"""Goal descriptions, their text, and how they match world objects.

Three goal styles are supported:

* ``name``: reach any object of a category ("toilet").
* ``description``: a category qualified by attributes ("the red chair").
* ``instance``: an attribute signature standing in for an image of one
  specific object; any object carrying every listed attribute matches.

A goal reaches the decision backend as a record (``to_dict``), which a
backend reads, and as its text (``render_text``), which is prompt text only.

What fits a goal is decided here and nowhere else: ``matches`` for world
objects, by category, and ``fits`` for anything known only by a name and
attributes: the oracle's sightings and memory records, and the nodes that
memory retrieval selects.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, List, Tuple

from .errors import SchemaViolation, UnresolvableGoal, check_strings, check_type
from .world import SemanticObject, WorldMap

NAME = "name"
DESCRIPTION = "description"
INSTANCE = "instance"

_NOT_ALNUM = re.compile(r"[\W_]+")


# fits runs for every sighting and every remembered node of every step, on
# names that repeat from step to step
@lru_cache(maxsize=4096)
def _words(text: str) -> str:
    """The words of ``text``, lower-cased, each with a space on either side:
    ``" dining table 1 "`` for ``Dining_Table-1``, and ``" "`` for a text
    without words.  One such string holds another only as whole words in a
    row."""
    return " " + "".join(word + " " for word in _NOT_ALNUM.split(text.lower()) if word)


# what a goal of each kind holds
_FIELDS = {NAME: "a category and no attributes",
           DESCRIPTION: "a category and at least one attribute",
           INSTANCE: "at least one attribute and no category"}


@dataclass(frozen=True)
class GoalSpec:
    kind: str
    category: str = ""
    attributes: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in _FIELDS:
            raise ValueError(f"unknown goal kind: {self.kind!r}")
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if (bool(self.category) != (self.kind != INSTANCE)
                or bool(self.attributes) != (self.kind != NAME)):
            raise ValueError(f"{self.kind} goals need {_FIELDS[self.kind]}")
        if "" in self.attributes:
            raise ValueError("goal attributes must be non-empty")
        # a category without words would fit every name, as a missing one does
        if self.kind != INSTANCE and _words(self.category) == " ":
            raise ValueError(f"goal category {self.category!r} holds no letter or digit")

    def render_text(self) -> str:
        """The goal as prompt text: ``chair``, ``chair (red, wooden)`` or
        ``object with red, tall``."""
        if self.kind == NAME:
            return self.category
        if self.kind == DESCRIPTION:
            return self.category + " (" + ", ".join(self.attributes) + ")"
        return "object with " + ", ".join(self.attributes)

    text = property(render_text)

    def matches(self, obj: SemanticObject) -> bool:
        if self.kind == NAME:
            return obj.category == self.category
        if self.kind == DESCRIPTION:
            return obj.category == self.category and set(self.attributes) <= set(obj.attributes)
        return set(self.attributes) <= set(obj.attributes)

    def matching_objects(self, world: WorldMap) -> List[SemanticObject]:
        """The world's objects that match, in world order; UnresolvableGoal
        when there are none."""
        matching = [o for o in world.objects if self.matches(o)]
        if not matching:
            raise UnresolvableGoal(f"no object matches goal {self.text!r}")
        return matching

    def fits(self, name: str, attributes: Collection[str]) -> bool:
        """Whether a thing called ``name`` with ``attributes`` fits the goal:
        the category's words are whole words of the name, in a row, and every
        goal attribute is among ``attributes``.  Words are the runs of letters
        and digits, compared ignoring case: ``chair_1`` and ``Chair-2`` fit
        ``chair`` and ``dining_table_1`` fits ``dining table``, but
        ``armchair_1`` does not fit ``chair``.  An instance goal has no
        category, so any name fits it."""
        return _words(self.category) in _words(name) and set(self.attributes) <= set(attributes)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "category": self.category,
                "attributes": list(self.attributes)}

    @classmethod
    def from_dict(cls, d) -> "GoalSpec":
        """A goal from its JSON form; an unknown key, or anything malformed,
        raises SchemaViolation."""
        check_type(d, dict, "a goal")
        unknown = set(d) - {"kind", "category", "attributes"}
        if unknown:
            raise SchemaViolation(f"unknown goal keys: {sorted(unknown)}")
        try:
            return cls(check_type(d.get("kind", ""), str, "goal kind"),
                       check_type(d.get("category", ""), str, "goal category"),
                       check_strings(d.get("attributes", []), "goal attributes"))
        except ValueError as e:
            raise SchemaViolation(f"bad goal: {e}") from e

    @classmethod
    def name_goal(cls, category: str) -> "GoalSpec":
        return cls(kind=NAME, category=category)
