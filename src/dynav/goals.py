"""Goal descriptions, their text, and how they match world objects.

Three goal styles are supported:

* ``name``: reach any object of a category ("toilet").
* ``description``: a category qualified by attributes ("the red chair").
* ``instance``: an attribute signature standing in for an image of one
  specific object; any object carrying every listed attribute matches.

A goal reaches the decision backend as its text (``render_text``), and
``parse_goal_text`` reads that text back; this module holds the whole
grammar, and a goal whose text could not read back does not construct.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import SchemaViolation, check_strings, check_type
from .memory import check_clause_attribute
from .world import SemanticObject

NAME = "name"
DESCRIPTION = "description"
INSTANCE = "instance"

# what a goal of each kind holds: its text carries exactly these
_FIELDS = {NAME: "a category and no attributes",
           DESCRIPTION: "a category and at least one attribute",
           INSTANCE: "at least one attribute and no category"}
_INSTANCE_PREFIX = "object with "


def parse_goal_text(text: str) -> Tuple[str, Tuple[str, ...]]:
    """The ``(category, attributes)`` of a goal text, the category ``""``
    for an instance goal: the inverse of ``GoalSpec.render_text``.

    Any text parses: one that no goal renders gets some pair, never an error.
    """
    if text.startswith(_INSTANCE_PREFIX):
        return "", tuple(text[len(_INSTANCE_PREFIX):].split(", "))
    category, paren, attributes = text.partition(" (")
    if paren:
        return category, tuple(attributes.removesuffix(")").split(", "))
    return text, ()


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
        # " (" opens a description's attributes, and the prefix marks an
        # instance goal
        if " (" in self.category or self.category.startswith(_INSTANCE_PREFIX):
            raise ValueError(f"goal category {self.category!r} holds ' (' or starts "
                             f"with {_INSTANCE_PREFIX!r}, which the goal text cannot carry")
        for attribute in self.attributes:
            check_clause_attribute(attribute, "goal attribute")

    def render_text(self) -> str:
        """Canonical text form, which ``parse_goal_text`` reads back."""
        if self.kind == NAME:
            return self.category
        if self.kind == DESCRIPTION:
            return self.category + " (" + ", ".join(self.attributes) + ")"
        return _INSTANCE_PREFIX + ", ".join(self.attributes)

    text = property(render_text)

    def matches(self, obj: SemanticObject) -> bool:
        if self.kind == NAME:
            return obj.category == self.category
        if self.kind == DESCRIPTION:
            return obj.category == self.category and set(self.attributes) <= set(obj.attributes)
        return set(self.attributes) <= set(obj.attributes)

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

    @classmethod
    def instance_goal(cls, signature) -> "GoalSpec":
        return cls(kind=INSTANCE, attributes=tuple(signature))
