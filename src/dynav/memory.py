"""Graph memory of named entities and their spatial relations.

Nodes are keyed by name; re-adding a name updates the stored node (attribute
sets union, the location follows the most recent sighting, last_seen is
monotone).  Edges are directed (start, target, relation) triples, unique as
triples, with endpoints auto-created on demand.  Queries treat edges as
bidirectional.  Merging two graphs is commutative, associative, and
idempotent so agents can exchange memories in any order.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (EmptyName, SchemaViolation, SelfLoop, check_integer, check_location,
                     check_strings, check_type, read_json)

GRAPH_FORMAT = "dynav-graph/1"


@dataclass(frozen=True)
class MemoryNode:
    name: str
    attributes: frozenset = frozenset()
    location: Optional[Tuple[float, float]] = None
    last_seen: int = 0
    source_agent: str = ""

    def __post_init__(self):
        if not self.name:
            raise EmptyName("node name must be non-empty")
        object.__setattr__(self, "attributes", frozenset(self.attributes))
        if self.location is not None:
            x, y = float(self.location[0]), float(self.location[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"node {self.name!r} location must be finite")
            object.__setattr__(self, "location", (x, y))


@dataclass(frozen=True)
class MemoryEdge:
    start: str
    target: str
    relation: str

    def __post_init__(self):
        if not self.start or not self.target or not self.relation:
            raise EmptyName("edge endpoints and relation must be non-empty")
        if self.start == self.target:
            raise SelfLoop(f"edge {self.start!r} -> itself")

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.start, self.target, self.relation)


@dataclass(frozen=True)
class SemanticFilter:
    """Node selector for spatial queries.

    ``name_pattern`` is a case-insensitive substring; ``required_attributes``
    must all be present.  ``hops`` expands the matched set along edges (both
    directions) before the induced subgraph is taken.
    """

    name_pattern: Optional[str] = None
    required_attributes: frozenset = frozenset()
    hops: int = 0

    def __post_init__(self):
        object.__setattr__(self, "required_attributes", frozenset(self.required_attributes))
        if self.hops < 0:
            raise ValueError("hops must be >= 0")


def _merge_node(a: MemoryNode, b: MemoryNode) -> MemoryNode:
    """Field-wise, order-independent union of two sightings of one entity."""
    assert a.name == b.name
    attributes = a.attributes | b.attributes
    last_seen = max(a.last_seen, b.last_seen)
    if a.last_seen != b.last_seen:
        winner = a if a.last_seen > b.last_seen else b
        location = winner.location
        agent = winner.source_agent
    else:
        locs = [l for l in (a.location, b.location) if l is not None]
        location = min(locs) if locs else None
        agent = min(a.source_agent, b.source_agent)
    return MemoryNode(a.name, attributes, location, last_seen, agent)


class MemoryGraph:
    """Mutable graph with a version counter that bumps on every actual change."""

    def __init__(self):
        self.nodes: Dict[str, MemoryNode] = {}
        self.edges: Dict[Tuple[str, str, str], MemoryEdge] = {}
        self.version: int = 0

    # -- mutation -----------------------------------------------------------

    def add_node(self, name: str, attributes: Sequence[str] = (),
                 location: Optional[Tuple[float, float]] = None,
                 step: int = 0, agent: str = "") -> None:
        """Insert or update a node.

        Attributes union with what is stored; the location is overwritten only
        when this sighting is at least as recent as the stored one; last_seen
        never decreases.  No-op updates leave the version untouched.
        """
        incoming = MemoryNode(name, frozenset(attributes), location, step, agent)
        old = self.nodes.get(name)
        if old is None:
            self.nodes[name] = incoming
            self.version += 1
            return
        attributes_u = old.attributes | incoming.attributes
        last_seen = max(old.last_seen, incoming.last_seen)
        if incoming.last_seen >= old.last_seen and incoming.location is not None:
            loc = incoming.location
            agent_out = incoming.source_agent
        else:
            loc = old.location
            agent_out = old.source_agent
        new = MemoryNode(name, attributes_u, loc, last_seen, agent_out)
        if new != old:
            self.nodes[name] = new
            self.version += 1

    def add_edge(self, start: str, target: str, relation: str) -> None:
        """Insert a directed relation; duplicates are idempotent no-ops.

        Missing endpoints are auto-created as bare nodes.
        """
        edge = MemoryEdge(start, target, relation)  # validates non-empty, no self-loop
        changed = False
        for name in (start, target):
            if name not in self.nodes:
                self.nodes[name] = MemoryNode(name)
                changed = True
        if edge.key not in self.edges:
            self.edges[edge.key] = edge
            changed = True
        if changed:
            self.version += 1

    def copy(self) -> "MemoryGraph":
        g = MemoryGraph()
        g.nodes = dict(self.nodes)
        g.edges = dict(self.edges)
        g.version = self.version
        return g

    # -- queries ------------------------------------------------------------

    def _matches(self, node: MemoryNode, flt: SemanticFilter) -> bool:
        if flt.name_pattern is not None and flt.name_pattern.lower() not in node.name.lower():
            return False
        return flt.required_attributes <= node.attributes

    def spatial_query(self, flt: SemanticFilter) -> "MemoryGraph":
        """Induced subgraph around filter matches, expanded ``flt.hops`` hops."""
        selected = {n for n, node in self.nodes.items() if self._matches(node, flt)}
        neighbours: Dict[str, set] = {}
        if flt.hops:
            for s, t, _r in self.edges:
                neighbours.setdefault(s, set()).add(t)
                neighbours.setdefault(t, set()).add(s)
        frontier = set(selected)
        for _ in range(flt.hops):
            nxt = set()
            for name in frontier:
                nxt.update(neighbours.get(name, ()))
            nxt -= selected
            if not nxt:
                break
            selected |= nxt
            frontier = nxt
        g = MemoryGraph()
        for name in sorted(selected):
            g.nodes[name] = self.nodes[name]
        for key, edge in self.edges.items():
            if edge.start in selected and edge.target in selected:
                g.edges[key] = edge
        g.version = 1 if (g.nodes or g.edges) else 0
        return g

    def render_text(self, budget: int) -> str:
        """Natural-language listing: one clause per node and per edge.

        Items beyond the budget are dropped, most recently seen first (an
        edge's recency is the max of its endpoints').  Output is stable for a
        fixed graph.
        """
        if budget <= 0:
            return ""
        items: List[Tuple[int, int, str, str]] = []  # (-recency, kind_rank, sort_key, clause)
        for name in self.nodes:
            node = self.nodes[name]
            clause = name
            if node.attributes:
                clause += " (" + ", ".join(sorted(node.attributes)) + ")"
            if node.location is not None:
                clause += f" at ({node.location[0]:.1f}, {node.location[1]:.1f})"
            items.append((-node.last_seen, 0, name, clause))
        for (s, t, r) in self.edges:
            recency = max(self.nodes[s].last_seen, self.nodes[t].last_seen)
            items.append((-recency, 1, f"{s}|{r}|{t}", f"{s} is {r} {t}"))
        items.sort()
        clauses = [clause for *_rank, clause in items[:budget]]
        return ". ".join(clauses) + "." if clauses else ""

    # -- equality (for tests and merge laws; version excluded) ---------------

    def same_content(self, other: "MemoryGraph") -> bool:
        return self.nodes == other.nodes and set(self.edges) == set(other.edges)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": GRAPH_FORMAT,
            "version": self.version,
            "nodes": [
                {
                    "name": n.name,
                    "attributes": sorted(n.attributes),
                    "location": list(n.location) if n.location is not None else None,
                    "last_seen": n.last_seen,
                    "source_agent": n.source_agent,
                }
                for n in (self.nodes[k] for k in sorted(self.nodes))
            ],
            "edges": [
                {"start": s, "target": t, "relation": r}
                for (s, t, r) in sorted(self.edges)
            ],
        }

    @classmethod
    def from_dict(cls, d) -> "MemoryGraph":
        """A graph from its JSON form; anything malformed raises SchemaViolation."""
        check_type(d, dict, "a graph")
        if d.get("format") != GRAPH_FORMAT:
            raise SchemaViolation(f"unknown graph format: {d.get('format')!r:.60}")
        g = cls()
        try:
            for nd in check_type(d.get("nodes", []), list, "nodes"):
                check_type(nd, dict, "a node")
                name = check_type(nd.get("name"), str, "node name")
                g.nodes[name] = MemoryNode(
                    name, frozenset(check_strings(nd.get("attributes", []), "node attributes")),
                    check_location(nd.get("location"), "node location"),
                    check_integer(nd.get("last_seen", 0), "node last_seen"),
                    check_type(nd.get("source_agent", ""), str, "node source_agent"))
            for ed in check_type(d.get("edges", []), list, "edges"):
                check_type(ed, dict, "an edge")
                edge = MemoryEdge(*(check_type(ed.get(k), str, f"edge {k}")
                                    for k in ("start", "target", "relation")))
                if edge.start not in g.nodes or edge.target not in g.nodes:
                    raise SchemaViolation(f"edge {edge.key} references a missing node")
                g.edges[edge.key] = edge
        except (EmptyName, SelfLoop) as e:
            raise SchemaViolation(f"bad graph payload: {e}") from e
        g.version = check_integer(d.get("version", 0), "graph version")
        return g


def merge(a: MemoryGraph, b: MemoryGraph) -> MemoryGraph:
    """Union of two graphs with field-wise node resolution.

    Attribute sets union; last_seen takes the max; on a strict recency win the
    winner's location and source agent are kept, on a tie the smallest
    non-null location (and smallest agent id) wins so the result is
    independent of argument order.
    """
    out = MemoryGraph()
    for name in set(a.nodes) | set(b.nodes):
        na, nb = a.nodes.get(name), b.nodes.get(name)
        if na is None:
            out.nodes[name] = nb
        elif nb is None:
            out.nodes[name] = na
        else:
            out.nodes[name] = _merge_node(na, nb)
    out.edges = dict(a.edges)
    out.edges.update(b.edges)
    out.version = max(a.version, b.version)
    return out


def save_graph(g: MemoryGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(g.to_dict(), fh, sort_keys=True, indent=1, allow_nan=False)


def load_graph(path) -> MemoryGraph:
    return MemoryGraph.from_dict(read_json(path))
