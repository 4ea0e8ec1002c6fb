"""Golden outputs: ``dynav run`` on the shipped spec files, byte for byte.

The fixtures under ``tests/fixtures/golden/<spec>/`` are the ``results.jsonl``
and step logs of a reference run.  Any change that moves a trajectory, even
by one unit in the last place of one coordinate, fails here; a change meant to
alter behaviour regenerates them with

    PYTHONPATH=src python -m dynav.cli run --episodes specs/<spec>.json \
        --out tests/fixtures/golden/<spec>

and deletes the report files that command also writes.
"""
from pathlib import Path

import pytest

from dynav.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "golden"


@pytest.mark.parametrize("spec", ["objectnav_small", "multigoal_demo"])
def test_run_matches_golden_outputs(tmp_path, spec):
    out = tmp_path / spec
    assert main(["run", "--episodes", str(ROOT / "specs" / f"{spec}.json"),
                 "--out", str(out)]) == 0
    expected = sorted(p.name for p in (GOLDEN / spec).glob("*.jsonl"))
    assert sorted(p.name for p in out.glob("*.jsonl")) == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDEN / spec / name).read_bytes(), name
