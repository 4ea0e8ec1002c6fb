"""The JSON examples in the docs load through the code that reads such input."""
import json
import re
from pathlib import Path

from dynav.backends.protocol import PROTOCOL_VERSION, DecisionRequest
from dynav.goals import GoalSpec
from dynav.worldgen import WorldGenSpec

DOCS = Path(__file__).resolve().parent.parent / "docs"


def first_json_example(doc: str, heading: str):
    """The value of the first ```json block under ``heading`` in ``doc``."""
    text = (DOCS / doc).read_text()
    section = text[text.index(f"\n{heading}\n"):]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1))


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
