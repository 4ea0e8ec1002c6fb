"""Goal descriptions and how they match world objects.

Three goal styles are supported:

* ``name``: reach any object of a category ("toilet").
* ``description``: a category qualified by attributes and optional relational
  hints ("the red chair near the table").
* ``instance``: an attribute signature standing in for an image of one
  specific object; any object carrying every listed attribute matches.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import SchemaViolation, check_strings, check_type
from .world import SemanticObject

NAME = "name"
DESCRIPTION = "description"
INSTANCE = "instance"


@dataclass(frozen=True)
class GoalSpec:
    kind: str
    category: str = ""
    attributes: Tuple[str, ...] = ()
    relation_hints: Tuple[str, ...] = ()
    text: str = ""

    def __post_init__(self):
        if self.kind not in (NAME, DESCRIPTION, INSTANCE):
            raise ValueError(f"unknown goal kind: {self.kind!r}")
        if self.kind in (NAME, DESCRIPTION) and not self.category:
            raise ValueError(f"{self.kind} goals need a category")
        if self.kind == DESCRIPTION and not (self.attributes or self.relation_hints):
            raise ValueError("description goals need at least one attribute or hint")
        if self.kind == INSTANCE and not self.attributes:
            raise ValueError("instance goals need an attribute signature")
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "relation_hints", tuple(self.relation_hints))
        if not self.text:
            object.__setattr__(self, "text", self.render_text())

    def render_text(self) -> str:
        """Canonical text form, also parseable by the deterministic backend."""
        if self.kind == NAME:
            return self.category
        if self.kind == DESCRIPTION:
            parts = self.category
            if self.attributes:
                parts += " (" + ", ".join(self.attributes) + ")"
            if self.relation_hints:
                parts += " " + "; ".join(self.relation_hints)
            return parts
        return "object with " + ", ".join(self.attributes)

    def matches(self, obj: SemanticObject) -> bool:
        if self.kind == NAME:
            return obj.category == self.category
        if self.kind == DESCRIPTION:
            return obj.category == self.category and set(self.attributes) <= set(obj.attributes)
        return set(self.attributes) <= set(obj.attributes)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "category": self.category,
            "attributes": list(self.attributes),
            "relation_hints": list(self.relation_hints),
            "text": self.text,
        }

    @classmethod
    def from_dict(cls, d) -> "GoalSpec":
        """A goal from its JSON form; anything malformed raises SchemaViolation."""
        check_type(d, dict, "a goal")
        texts = {k: check_type(d.get(k, ""), str, f"goal {k}")
                 for k in ("kind", "category", "text")}
        lists = {k: check_strings(d.get(k, []), f"goal {k}")
                 for k in ("attributes", "relation_hints")}
        try:
            return cls(**texts, **lists)
        except ValueError as e:
            raise SchemaViolation(f"bad goal: {e}") from e

    @classmethod
    def name_goal(cls, category: str) -> "GoalSpec":
        return cls(kind=NAME, category=category)

    @classmethod
    def instance_goal(cls, signature) -> "GoalSpec":
        return cls(kind=INSTANCE, attributes=tuple(signature))
