"""Graph memory of named entities and their spatial relations.

Nodes are keyed by name.  One rule, the join ``_merge_node``, resolves every
update of a node: attributes union, last_seen takes the max, the more recent
sighting keeps its location and agent (so a newer sighting without a location
leaves the node unlocated), and on equal last_seen the smallest non-null
location and the smallest non-empty agent win.  ``add_node`` joins a
sighting, ``add_edge`` joins a bare node (which changes no node) for each
endpoint, and ``merge`` joins one graph's nodes into a copy of the other, so
merging agents' graphs in any order gives what replaying all their operations
into one graph gives.  Edges are directed (start, target, relation) triples,
unique as triples; queries treat them as bidirectional.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import (SchemaViolation, check_integer, check_location, check_strings, check_type,
                     read_json)

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
            raise ValueError("node name must be non-empty")
        if self.last_seen < 0:
            raise ValueError(f"node {self.name!r} last_seen must be >= 0")
        object.__setattr__(self, "attributes", frozenset(self.attributes))
        if "" in self.attributes:
            raise ValueError(f"node {self.name!r} attributes must be non-empty")
        if self.location is not None:
            x, y = float(self.location[0]), float(self.location[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"node {self.name!r} location must be finite")
            object.__setattr__(self, "location", (x, y))

    def clause(self) -> str:
        """``name (attr, attr) at (x, y)``, without the attributes or the
        location when there are none; the location has one decimal."""
        text = self.name
        if self.attributes:
            text += " (" + ", ".join(sorted(self.attributes)) + ")"
        if self.location is not None:
            text += f" at ({self.location[0]:.1f}, {self.location[1]:.1f})"
        return text


@dataclass(frozen=True)
class MemoryEdge:
    start: str
    target: str
    relation: str

    def __post_init__(self):
        if not self.start or not self.target or not self.relation:
            raise ValueError("edge endpoints and relation must be non-empty")
        if self.start == self.target:
            raise ValueError(f"edge {self.start!r} -> itself")

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.start, self.target, self.relation)

    def clause(self) -> str:
        return f"{self.start} is {self.relation} {self.target}"


def _merge_node(a: MemoryNode, b: MemoryNode) -> MemoryNode:
    """The join of two sightings of one entity (see the module docstring)."""
    assert a.name == b.name
    if a.last_seen != b.last_seen:
        winner = a if a.last_seen > b.last_seen else b
        location, agent = winner.location, winner.source_agent
    else:
        location = min((l for l in (a.location, b.location) if l is not None), default=None)
        agent = min((g for g in (a.source_agent, b.source_agent) if g), default="")
    return MemoryNode(a.name, a.attributes | b.attributes, location,
                      max(a.last_seen, b.last_seen), agent)


class MemoryGraph:
    """Mutable graph with a version counter that bumps on every actual change."""

    def __init__(self):
        self.nodes: Dict[str, MemoryNode] = {}
        self.edges: Dict[Tuple[str, str, str], MemoryEdge] = {}
        self.version: int = 0

    # -- mutation -----------------------------------------------------------

    def _join(self, node: MemoryNode) -> bool:
        """Join a sighting into the stored node; True when that changed it."""
        old = self.nodes.get(node.name)
        new = node if old is None else _merge_node(old, node)
        if new == old:
            return False
        self.nodes[node.name] = new
        return True

    def add_node(self, name: str, attributes: Sequence[str] = (),
                 location: Optional[Tuple[float, float]] = None,
                 step: int = 0, agent: str = "") -> None:
        """Join one sighting into the graph; a no-op leaves the version untouched."""
        if self._join(MemoryNode(name, frozenset(attributes), location, step, agent)):
            self.version += 1

    def add_edge(self, start: str, target: str, relation: str) -> None:
        """Insert a directed relation, joining a bare node for each endpoint.

        Duplicates are idempotent no-ops.
        """
        edge = MemoryEdge(start, target, relation)  # validates non-empty, no self-loop
        changed = self._join(MemoryNode(start)) | self._join(MemoryNode(target))
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

    def spatial_query(self, fits: Callable[[str, frozenset], bool],
                      hops: int = 0) -> "MemoryGraph":
        """The subgraph induced by the nodes for which ``fits(name,
        attributes)`` holds, expanded ``hops`` hops along edges (both
        directions)."""
        selected = {n for n, node in self.nodes.items() if fits(n, node.attributes)}
        neighbours: Dict[str, set] = {}
        if hops:
            for s, t, _r in self.edges:
                neighbours.setdefault(s, set()).add(t)
                neighbours.setdefault(t, set()).add(s)
        frontier = set(selected)
        for _ in range(hops):
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

    def cut(self, budget: int) -> List[Union[MemoryNode, MemoryEdge]]:
        """The nodes and edges that ``render_text`` lists, in its order.

        Items beyond the budget are dropped, most recently seen first (an
        edge's recency is the max of its endpoints'); on equal recency nodes
        come first, by name, then edges, by ``start|relation|target``.
        Stable for a fixed graph.
        """
        ranked = [((-node.last_seen, 0, name), node) for name, node in self.nodes.items()]
        for (s, t, r), edge in self.edges.items():
            recency = max(self.nodes[s].last_seen, self.nodes[t].last_seen)
            ranked.append(((-recency, 1, f"{s}|{r}|{t}", edge.clause()), edge))
        ranked.sort(key=lambda item: item[0])
        return [item for _rank, item in ranked[:max(0, budget)]]

    def render_text(self, budget: int) -> str:
        """Natural-language listing of ``cut(budget)``: one clause per node
        and per edge."""
        return render(self.cut(budget))

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
                if name in g.nodes:
                    raise SchemaViolation(f"node {name!r:.60} is listed twice")
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
        except ValueError as e:
            raise SchemaViolation(f"bad graph payload: {e}") from e
        g.version = check_integer(d.get("version", 0), "graph version")
        return g


def render(cut: Sequence[Union[MemoryNode, MemoryEdge]]) -> str:
    """The clauses of ``cut`` joined by ". ", ending in "."; empty for no items."""
    return ". ".join(item.clause() for item in cut) + "." if cut else ""


def merge(a: MemoryGraph, b: MemoryGraph) -> MemoryGraph:
    """``a`` with every node of ``b`` joined in and b's edges added.

    The content is independent of argument order; the version is the larger
    of the two.
    """
    out = a.copy()
    for node in b.nodes.values():
        out._join(node)
    out.edges.update(b.edges)
    out.version = max(a.version, b.version)
    return out


def save_graph(g: MemoryGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(g.to_dict(), fh, sort_keys=True, indent=1, allow_nan=False)


def load_graph(path) -> MemoryGraph:
    return MemoryGraph.from_dict(read_json(path))
