"""The JSON examples in the docs load through the code that reads such input,
and the config keys and run flags the docs list are the ones the code takes."""
import argparse
import dataclasses
import json
import re
from pathlib import Path

from dynav.backends.protocol import PROTOCOL_VERSION, DecisionRequest
from dynav.cli import build_parser
from dynav.config import RunConfig
from dynav.goals import GoalSpec
from dynav.worldgen import WorldGenSpec

DOCS = Path(__file__).resolve().parent.parent / "docs"


def section(doc: str, heading: str) -> str:
    """The text of ``doc`` under ``heading``, up to the next heading of its level."""
    text = (DOCS / doc).read_text()
    start = text.index(f"\n{heading}\n") + len(heading) + 2
    level = heading.split(" ")[0]
    end = text.find(f"\n{level} ", start)
    return text[start:end if end >= 0 else None]


def first_json_example(doc: str, heading: str):
    """The value of the first ```json block under ``heading`` in ``doc``."""
    return json.loads(re.search(r"```json\n(.*?)```", section(doc, heading), re.DOTALL).group(1))


def test_the_episode_spec_example_loads():
    episodes = first_json_example("formats.md", "## Episode spec file")["episodes"]
    goals = [GoalSpec.from_dict(g) for episode in episodes for g in episode["goals"]]
    assert {g.kind for g in goals} == {"name", "description", "instance"}
    worldgens = [WorldGenSpec.from_dict(e["worldgen"]) for e in episodes if "worldgen" in e]
    assert worldgens


def test_the_request_example_parses():
    example = first_json_example("protocol.md", "## Request body")
    assert DecisionRequest.from_dict(example).to_dict() == example


def test_the_protocol_doc_names_the_protocol_version():
    title = (DOCS / "protocol.md").read_text().splitlines()[0]
    assert title == f"# Decision protocol (`{PROTOCOL_VERSION}`)"


FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def test_the_run_config_table_names_every_field_and_no_other():
    rows = [line for line in section("formats.md", "## Run config").splitlines()
            if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(FIELDS)


def test_the_worldgen_table_names_every_field_and_no_other():
    text = section("formats.md", "## Episode spec file")
    rows = [line for line in text.split("`worldgen` keys and their types")[1].splitlines()
            if line.strip().startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted({f.name for f in dataclasses.fields(WorldGenSpec)} | {"seed"})


def test_the_run_flags_in_the_docs_are_the_parsers():
    run = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices["run"]
    flags = {a.option_strings[-1]: a.dest for a in run._actions if a.option_strings}
    text = section("cli.md", "## `dynav run`")
    tuning = re.search(r"Tuning flags mirroring config keys:(.*?)\.\s", text, re.DOTALL).group(1)
    listed = re.findall(r"`(--[a-z-]+)`", tuning)
    assert listed and [f for f in listed if flags.get(f) not in FIELDS] == []
    documented = set(re.findall(r"`(--[a-z-]+)", text))
    assert sorted(f for f, dest in flags.items() if dest in FIELDS and f not in documented) == []
