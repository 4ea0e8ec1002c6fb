"""Goals: what a goal refuses, its text, and its record on the wire."""
import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynav.backends.protocol import (DecisionRequest, encode_request, make_stop_request,
                                     request_context)
from dynav.errors import SchemaViolation
from dynav.geometry import Pose
from dynav.goals import DESCRIPTION, INSTANCE, NAME, GoalSpec
from dynav.sensing import Observation

from conftest import with_rays


def test_a_goal_has_three_fields():
    assert [f.name for f in dataclasses.fields(GoalSpec)] == ["kind", "category", "attributes"]


def test_goal_text_forms():
    assert GoalSpec(NAME, "chair").text == "chair"
    assert GoalSpec(DESCRIPTION, "chair", ("red", "wooden")).text == "chair (red, wooden)"
    assert GoalSpec(INSTANCE, "", ("red", "tall")).text == "object with red, tall"
    assert GoalSpec(DESCRIPTION, "tv.stand", ("black",)).text == "tv.stand (black)"


def wire_goal(goal: GoalSpec) -> GoalSpec:
    """The goal record of a request for ``goal``, as a server parses it."""
    obs = with_rays(Observation, (), pose=Pose(0.0, 0.0, 0.0), fov=math.pi)
    ctx = request_context(obs, "s", goal)
    req = DecisionRequest.from_dict(json.loads(encode_request(make_stop_request(ctx))))
    assert req.context.goal_text == goal.text
    return req.context.goal


# short texts over the characters the goal text is made of
_text = st.text(st.sampled_from("ab (),."), max_size=6)


@settings(max_examples=500, deadline=None)
@given(kind=st.sampled_from((NAME, DESCRIPTION, INSTANCE)),
       category=st.one_of(_text, _text.map("object with ".__add__),
                          st.sampled_from(("chair", "tv.stand", "tv(old)"))),
       attributes=st.lists(_text | st.sampled_from(("red", "black", "x (y", "(old")),
                           max_size=3))
@example(kind=DESCRIPTION, category="tv (old)", attributes=["red, tall"])
@example(kind=NAME, category="object with red", attributes=[])
@example(kind=INSTANCE, category="", attributes=["x)", " red"])
def test_every_goal_that_constructs_reaches_the_backend_whole(kind, category, attributes):
    try:
        goal = GoalSpec(kind, category, attributes)
    except ValueError:
        assert (bool(category) != (kind != INSTANCE) or bool(attributes) != (kind != NAME)
                or "" in attributes)
        return
    assert goal.text == goal.render_text()
    assert GoalSpec.from_dict(goal.to_dict()) == goal
    assert wire_goal(goal) == goal


@pytest.mark.parametrize("kind, category, attributes", [
    ("name", "tv (old)", ()),             # a goal's text once read attributes from " ("
    ("description", "tv (old)", ("black",)),
    ("name", "object with red", ()),      # and took this prefix for an instance goal
    ("description", "chair", ("red, tall",)),
    ("instance", "", ("x)",)),
    ("description", "chair", (" red",)),
], ids=repr)
def test_goals_the_goal_text_could_not_carry_construct(kind, category, attributes):
    goal = GoalSpec.from_dict({"kind": kind, "category": category,
                               "attributes": list(attributes)})
    assert goal == GoalSpec(kind, category, attributes)
    assert wire_goal(goal) == goal


@pytest.mark.parametrize("kind, category, attributes", [
    ("instance", "", ("",)),
    ("description", "chair", ("red", "")),
    ("name", "chair", ("red",)),              # a name goal has no attributes
    ("instance", "chair", ("red",)),          # nor an instance goal a category
    ("instance", "", ()),
    ("description", "", ("red",)),
    ("name", "", ()),
    ("relation", "chair", ()),
], ids=repr)
def test_malformed_goals_are_refused(kind, category, attributes):
    with pytest.raises(ValueError):
        GoalSpec(kind, category, attributes)
    with pytest.raises(SchemaViolation, match="bad goal"):
        GoalSpec.from_dict({"kind": kind, "category": category,
                            "attributes": list(attributes)})
