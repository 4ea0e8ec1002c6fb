"""Goals: the goal-text grammar, what a goal refuses, and its JSON form."""
import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynav.errors import SchemaViolation
from dynav.goals import DESCRIPTION, INSTANCE, NAME, GoalSpec, parse_goal_text


def test_a_goal_has_three_fields():
    assert [f.name for f in dataclasses.fields(GoalSpec)] == ["kind", "category", "attributes"]


def test_parse_goal_text_forms():
    assert parse_goal_text("chair") == ("chair", ())
    assert parse_goal_text("chair (red, wooden)") == ("chair", ("red", "wooden"))
    assert parse_goal_text("object with red, tall") == ("", ("red", "tall"))
    # a dot in the category once made the whole text read as the category
    assert parse_goal_text("tv.stand (black)") == ("tv.stand", ("black",))


# short texts over the characters the grammar turns on
_text = st.text(st.sampled_from("ab (),."), max_size=6)


@settings(max_examples=500, deadline=None)
@given(kind=st.sampled_from((NAME, DESCRIPTION, INSTANCE)),
       category=st.one_of(_text, _text.map("object with ".__add__),
                          st.sampled_from(("chair", "tv.stand", "tv(old)"))),
       attributes=st.lists(_text | st.sampled_from(("red", "black", "x (y", "(old")),
                           max_size=3))
@example(kind=DESCRIPTION, category="tv.stand", attributes=["black"])
@example(kind=DESCRIPTION, category="chair ", attributes=["red"])
@example(kind=DESCRIPTION, category="chair", attributes=["x (y", "(old"])
@example(kind=INSTANCE, category="", attributes=["x (y", "red"])
@example(kind=NAME, category="tv(old)", attributes=[])
def test_every_goal_that_constructs_reads_back_from_its_text(kind, category, attributes):
    try:
        goal = GoalSpec(kind, category, attributes)
    except ValueError:
        return
    assert goal.text == goal.render_text()
    assert parse_goal_text(goal.text) == (goal.category, goal.attributes)
    assert GoalSpec.from_dict(goal.to_dict()) == goal


@pytest.mark.parametrize("kind, category, attributes", [
    ("name", "tv (old)", ()),                 # " (" would open the attributes
    ("description", "tv (old)", ("black",)),
    ("name", "object with red", ()),          # the prefix marks an instance goal
    ("description", "chair", ("red, tall",)),  # attributes the text cannot carry
    ("instance", "", ("x)",)),
    ("instance", "", ("",)),
    ("description", "chair", (" red",)),
    ("name", "chair", ("red",)),              # the text carries no name attributes
    ("instance", "chair", ("red",)),          # nor an instance category
    ("instance", "", ()),
], ids=repr)
def test_goals_whose_text_could_not_read_back_are_refused(kind, category, attributes):
    with pytest.raises(ValueError):
        GoalSpec(kind, category, attributes)
    with pytest.raises(SchemaViolation, match="bad goal"):
        GoalSpec.from_dict({"kind": kind, "category": category,
                            "attributes": list(attributes)})
