"""Golden request bodies: the bytes ``encode_request`` puts on the wire for
every request of ``dynav run`` on the shipped spec files, with the oracle.

The fixture holds, per spec and per episode, the sha256 of each request body
in the order the episode sent them.  A change to how a step's rays, hits,
goal or memory are held in memory must leave these bytes alone; a change
meant to alter the wire regenerates the fixture with

    PYTHONPATH=src python tests/test_wire_golden.py
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

import dynav.cli as cli
from dynav.backends.protocol import encode_request

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "request_bodies.json"
SPECS = ["objectnav_small", "multigoal_demo"]


def request_digests(spec: str, out: Path) -> dict:
    """Episode id -> the sha256 of each request body the episode sent."""
    sent = {}

    class Recording(cli.OracleBackend):
        def decide(self, req):
            body = encode_request(req)
            sent.setdefault(req.context.session_id, []).append(
                hashlib.sha256(body).hexdigest())
            return super().decide(req)

    original = cli.OracleBackend
    cli.OracleBackend = Recording
    try:
        code = cli.main(["run", "--episodes", str(ROOT / "specs" / f"{spec}.json"),
                         "--out", str(out)])
    finally:
        cli.OracleBackend = original
    assert code == 0
    return dict(sorted(sent.items()))


@pytest.mark.parametrize("spec", SPECS)
def test_request_bodies_match_golden(tmp_path, spec):
    expected = json.loads(FIXTURE.read_text())[spec]
    got = request_digests(spec, tmp_path / spec)
    assert list(got) == list(expected)
    for episode, digests in expected.items():
        assert len(got[episode]) == len(digests), episode
        for i, (a, b) in enumerate(zip(got[episode], digests)):
            assert a == b, f"{episode}: request {i} differs"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {spec: request_digests(spec, Path(tmp) / spec) for spec in SPECS}
    FIXTURE.write_text(json.dumps(table, indent=1) + "\n")
    sys.exit(0)
