"""Goals: what a goal refuses, its text, its record on the wire, and the one
rule that decides what fits a goal."""
import dataclasses
import json
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dynav.backends.oracle import OracleBackend
from dynav.backends.protocol import (DecisionRequest, RequestContext, WireNode, encode_request,
                                     make_stop_request, request_context)
from dynav.config import RunConfig
from dynav.errors import SchemaViolation
from dynav.geometry import Pose
from dynav.goals import DESCRIPTION, INSTANCE, NAME, GoalSpec
from dynav.memory import MemoryGraph
from dynav.sensing import Observation

from conftest import Row, has_words, with_rays, words_in_a_row


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
                or "" in attributes or kind != INSTANCE and not has_words(category))
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
    ("name", ".", ()),                        # a category without words would fit any name
    ("name", " ", ()),
    ("name", "_-", ()),                       # "_" separates words, as "-" does
    ("description", "()", ("red",)),
], ids=repr)
def test_malformed_goals_are_refused(kind, category, attributes):
    with pytest.raises(ValueError):
        GoalSpec(kind, category, attributes)
    with pytest.raises(SchemaViolation, match="bad goal"):
        GoalSpec.from_dict({"kind": kind, "category": category,
                            "attributes": list(attributes)})


# -- the one goal-fit rule ---------------------------------------------------------

def fits_reference(goal: GoalSpec, name: str, attributes) -> bool:
    """The rule as written out: the category's words, ignoring case, are
    words of the name, one after another, and every goal attribute is among
    the attributes."""
    if not words_in_a_row(goal.category, name):
        return False
    return all(a in attributes for a in goal.attributes)


def test_a_category_fits_whole_words_of_a_name_only():
    chair = GoalSpec.name_goal("chair")
    assert chair.fits("chair_1", ()) and chair.fits("Chair-2", ())
    assert GoalSpec.name_goal("dining table").fits("dining_table_1", ())
    # an armchair is no chair to motion.success, which compares categories
    assert not chair.fits("armchair_1", ())
    assert not GoalSpec(DESCRIPTION, "chair", ("red",)).fits("armchair_1", ("red",))


def test_a_category_fits_by_its_words_and_needs_one():
    with pytest.raises(SchemaViolation, match="holds no letter or digit"):
        GoalSpec.from_dict({"kind": "name", "category": "."})
    dotted = GoalSpec.from_dict({"kind": "name", "category": "(a)."})
    assert dotted.fits("a_2", ()) and not dotted.fits("table_2", ())
    assert GoalSpec(INSTANCE, "", ("red",)).fits("table_2", ("red",))  # no category at all


# labels over letters of both cases and two separators, so a category may be
# part of a label only when case is ignored, and part of a word of it
_label = st.text(st.sampled_from("aAbB_-1"), min_size=1, max_size=5)
_attribute = st.sampled_from(("red", "Red", "tall", "x"))


@st.composite
def fit_cases(draw):
    """Sightings (label, attributes, location) and a goal whose category is
    often part of one of the labels and whose attributes often fit."""
    labels = draw(st.lists(_label, min_size=1, max_size=6, unique=True))
    sightings = [(label, tuple(sorted(draw(st.sets(_attribute, max_size=3)))),
                  draw(st.none() | st.tuples(st.integers(-5, 5), st.integers(-5, 5))))
                 for label in labels]
    kind = draw(st.sampled_from((NAME, DESCRIPTION, INSTANCE)))
    category = ""
    if kind != INSTANCE:
        label = draw(st.sampled_from(labels) | _label)
        i = draw(st.integers(0, len(label) - 1))
        category = label[i:draw(st.integers(i + 1, len(label)))]
        if draw(st.booleans()):
            category = category.swapcase()
        assume(has_words(category))
    attributes = () if kind == NAME else tuple(draw(st.sets(_attribute, min_size=1,
                                                            max_size=2)))
    return sightings, GoalSpec(kind, category, attributes)


@settings(max_examples=300, deadline=None)
@given(case=fit_cases())
def test_goal_rays_recall_and_retrieval_follow_one_rule(case):
    sightings, goal = case
    fit = [fits_reference(goal, label, attrs) for label, attrs, _ in sightings]
    assert [goal.fits(label, attrs) for label, attrs, _ in sightings] == fit

    # the oracle's goal rays: the labelled, non-wall rays whose hit fits
    rows = [Row(float(i), 1.0 + i, label, attrs) for i, (label, attrs, _) in enumerate(sightings)]
    rows += [Row(10.0, 1.0, "wall", goal.attributes), Row(11.0, 1.0, None)]
    records = tuple(WireNode(label, attrs, None if loc is None else tuple(map(float, loc)))
                    for label, attrs, loc in sightings)
    ctx = with_rays(RequestContext, rows, session_id="s", step=0, goal_text="", goal=goal,
                    pose=(0.0, 0.0, 0.0), memory=records, constraints=())
    assert OracleBackend._goal_rays(ctx) == [i for i, f in enumerate(fit) if f]

    # recall reads the records that fit, and only those
    oracle = OracleBackend.from_config(RunConfig())
    kept = tuple(r for r, f in zip(records, fit) if f)
    dropped = tuple(r for r, f in zip(records, fit) if not f)
    assert oracle._remembered_target(ctx) == oracle._remembered_target(
        dataclasses.replace(ctx, memory=kept))
    assert oracle._remembered_target(dataclasses.replace(ctx, memory=dropped)) is None

    # retrieval without hops selects exactly the nodes that fit
    g = MemoryGraph()
    for label, attrs, loc in sightings:
        g.add_node(label, attrs, loc, step=1)
    for (a, *_), (b, *_) in zip(sightings, sightings[1:]):
        g.add_edge(a, b, "next to")
    selected = g.spatial_query(goal.fits, 0)
    assert set(selected.nodes) == {label for (label, _, _), f in zip(sightings, fit) if f}
