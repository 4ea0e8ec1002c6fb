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
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import EmptyName, NoPath, SchemaViolation, SelfLoop, UnknownNode

GRAPH_FORMAT = "dynav-graph/1"

DEFAULT_MAX_HOPS = 3


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
    must all be present; ``relation`` selects nodes incident to an edge with
    that relation.  ``hops`` expands the matched set along edges (both
    directions) before the induced subgraph is taken.
    """

    name_pattern: Optional[str] = None
    required_attributes: frozenset = frozenset()
    relation: Optional[str] = None
    hops: int = 0

    def __post_init__(self):
        object.__setattr__(self, "required_attributes", frozenset(self.required_attributes))
        if self.hops < 0:
            raise ValueError("hops must be >= 0")


@dataclass(frozen=True)
class Hop:
    """One step of an inferred path: the relation used and the node reached."""

    relation: str
    node: str
    forward: bool  # False when the stored edge was traversed target-to-start


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

    def _neighbors(self, name: str) -> List[str]:
        out = set()
        for (s, t, _r) in self.edges:
            if s == name:
                out.add(t)
            elif t == name:
                out.add(s)
        return sorted(out)

    def _matches(self, node: MemoryNode, flt: SemanticFilter) -> bool:
        if flt.name_pattern is not None and flt.name_pattern.lower() not in node.name.lower():
            return False
        if flt.required_attributes and not flt.required_attributes <= node.attributes:
            return False
        if flt.relation is not None:
            incident = any(r == flt.relation and node.name in (s, t)
                           for (s, t, r) in self.edges)
            if not incident:
                return False
        return True

    def spatial_query(self, flt: SemanticFilter, max_hops: int = DEFAULT_MAX_HOPS) -> "MemoryGraph":
        """Induced subgraph around filter matches, expanded ``flt.hops`` hops."""
        if flt.hops > max_hops:
            raise ValueError(f"hops {flt.hops} exceeds the configured maximum {max_hops}")
        selected = {n for n, node in self.nodes.items() if self._matches(node, flt)}
        frontier = set(selected)
        for _ in range(flt.hops):
            nxt = set()
            for name in frontier:
                nxt.update(self._neighbors(name))
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

    def path_inference(self, start: str, target: str) -> List[Hop]:
        """Minimum-hop path treating edges as bidirectional.

        Equal-length paths tie-break to the lexicographically smallest node
        sequence.  Returns an empty list when start == target.
        """
        for name in (start, target):
            if name not in self.nodes:
                raise UnknownNode(name)
        if start == target:
            return []
        # distance-to-target field, then walk greedily by smallest node name
        dist = {target: 0}
        q = deque([target])
        while q:
            cur = q.popleft()
            for nb in self._neighbors(cur):
                if nb not in dist:
                    dist[nb] = dist[cur] + 1
                    q.append(nb)
        if start not in dist:
            raise NoPath(f"no path from {start!r} to {target!r}")
        hops: List[Hop] = []
        cur = start
        while cur != target:
            nxt = min(nb for nb in self._neighbors(cur) if dist.get(nb, -1) == dist[cur] - 1)
            hops.append(Hop(self._pick_relation(cur, nxt), nxt,
                            forward=self._has_forward(cur, nxt)))
            cur = nxt
        return hops

    def _has_forward(self, a: str, b: str) -> bool:
        return any(s == a and t == b for (s, t, _r) in self.edges)

    def _pick_relation(self, a: str, b: str) -> str:
        fwd = sorted(r for (s, t, r) in self.edges if s == a and t == b)
        if fwd:
            return fwd[0]
        back = sorted(r for (s, t, r) in self.edges if s == b and t == a)
        return back[0]

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
    def from_dict(cls, d: dict) -> "MemoryGraph":
        if not isinstance(d, dict) or d.get("format") != GRAPH_FORMAT:
            raise SchemaViolation(f"unknown graph format: {d.get('format')!r}"
                                  if isinstance(d, dict) else "graph payload must be an object")
        g = cls()
        try:
            for nd in d.get("nodes", []):
                loc = nd.get("location")
                g.nodes[nd["name"]] = MemoryNode(
                    name=nd["name"],
                    attributes=frozenset(nd.get("attributes", ())),
                    location=tuple(loc) if loc is not None else None,
                    last_seen=int(nd.get("last_seen", 0)),
                    source_agent=nd.get("source_agent", ""),
                )
            for ed in d.get("edges", []):
                edge = MemoryEdge(ed["start"], ed["target"], ed["relation"])
                if edge.start not in g.nodes or edge.target not in g.nodes:
                    raise SchemaViolation(f"edge {edge.key} references a missing node")
                g.edges[edge.key] = edge
        except SchemaViolation:
            raise
        except (KeyError, TypeError, ValueError, EmptyName, SelfLoop) as e:
            raise SchemaViolation(f"bad graph payload: {e}") from e
        g.version = int(d.get("version", 0))
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
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaViolation(f"graph file is not valid JSON: {e}") from e
    return MemoryGraph.from_dict(payload)
