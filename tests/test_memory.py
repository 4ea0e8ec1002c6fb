"""Graph memory: update semantics, queries, merge algebra, persistence."""
import json
import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynav.errors import EmptyName, NoPath, SchemaViolation, SelfLoop, UnknownNode
from dynav.backends.protocol import MemoryOp
from dynav.memory import (
    Hop,
    MemoryGraph,
    MemoryNode,
    SemanticFilter,
    load_graph,
    merge,
    save_graph,
)
from dynav.policy import apply_memory_ops

NAMES = ("lamp", "sofa", "door", "sink", "oven", "rug")
ATTRS = ("red", "tall", "metal", "soft")
RELS = ("near", "left of")


node_op = st.tuples(
    st.just("node"),
    st.sampled_from(NAMES),
    st.sets(st.sampled_from(ATTRS), max_size=2),
    st.one_of(st.none(), st.tuples(st.integers(0, 9).map(float), st.integers(0, 9).map(float))),
    st.integers(0, 5),
    st.sampled_from(("", "agent_a", "agent_b")),
)
edge_op = st.tuples(
    st.just("edge"),
    st.sampled_from(NAMES),
    st.sampled_from(NAMES),
    st.sampled_from(RELS),
)


def build(ops):
    g = MemoryGraph()
    for op in ops:
        if op[0] == "node":
            _, name, attrs, loc, step, agent = op
            g.add_node(name, attrs, loc, step, agent)
        else:
            _, s, t, r = op
            if s != t:
                g.add_edge(s, t, r)
    return g


graphs = st.lists(st.one_of(node_op, edge_op), max_size=25).map(build)


# -- node and edge updates -----------------------------------------------------


def test_add_node_unions_attributes_and_tracks_recency():
    g = MemoryGraph()
    g.add_node("sofa", ["red"], (1.0, 2.0), step=3, agent="a")
    g.add_node("sofa", ["soft"], (4.0, 5.0), step=7, agent="b")
    n = g.nodes["sofa"]
    assert n.attributes == frozenset({"red", "soft"})
    assert n.location == (4.0, 5.0)
    assert n.last_seen == 7
    assert n.source_agent == "b"

    # an older sighting adds attributes but cannot move the location back
    g.add_node("sofa", ["tall"], (9.0, 9.0), step=2, agent="c")
    n = g.nodes["sofa"]
    assert n.attributes == frozenset({"red", "soft", "tall"})
    assert n.location == (4.0, 5.0)
    assert n.last_seen == 7


def test_version_bumps_only_on_change():
    g = MemoryGraph()
    g.add_node("sofa", ["red"], (1.0, 2.0), step=3)
    v = g.version
    g.add_node("sofa", ["red"], (1.0, 2.0), step=3)  # exact repeat: no-op
    assert g.version == v
    g.add_node("sofa", ["soft"])
    assert g.version == v + 1
    g.add_edge("sofa", "door", "near")
    v = g.version
    g.add_edge("sofa", "door", "near")
    assert g.version == v


def test_add_edge_autocreates_and_validates():
    g = MemoryGraph()
    g.add_edge("lamp", "door", "near")
    assert set(g.nodes) == {"lamp", "door"}
    with pytest.raises(SelfLoop):
        g.add_edge("lamp", "lamp", "near")
    with pytest.raises(EmptyName):
        g.add_edge("", "door", "near")
    with pytest.raises(EmptyName):
        g.add_node("", [])


# -- spatial queries -------------------------------------------------------------


def demo_graph():
    g = MemoryGraph()
    g.add_node("red_lamp", ["red", "tall"], (1.0, 1.0), step=1)
    g.add_node("blue_sofa", ["soft"], (2.0, 2.0), step=2)
    g.add_node("oven", ["metal"], (5.0, 5.0), step=3)
    g.add_node("rug", [], (2.5, 2.0), step=1)
    g.add_edge("red_lamp", "blue_sofa", "near")
    g.add_edge("blue_sofa", "rug", "on")
    g.add_edge("oven", "rug", "far from")
    return g


def test_spatial_query_by_name_and_attributes():
    g = demo_graph()
    sub = g.spatial_query(SemanticFilter(name_pattern="LAMP"))
    assert set(sub.nodes) == {"red_lamp"}
    assert not sub.edges

    sub = g.spatial_query(SemanticFilter(required_attributes={"metal"}))
    assert set(sub.nodes) == {"oven"}

    sub = g.spatial_query(SemanticFilter(relation="on"))
    assert set(sub.nodes) == {"blue_sofa", "rug"}
    assert set(sub.edges) == {("blue_sofa", "rug", "on")}


def test_spatial_query_hop_expansion():
    g = demo_graph()
    sub = g.spatial_query(SemanticFilter(name_pattern="lamp", hops=1))
    assert set(sub.nodes) == {"red_lamp", "blue_sofa"}
    sub = g.spatial_query(SemanticFilter(name_pattern="lamp", hops=2))
    assert set(sub.nodes) == {"red_lamp", "blue_sofa", "rug"}
    assert ("blue_sofa", "rug", "on") in sub.edges
    with pytest.raises(ValueError):
        g.spatial_query(SemanticFilter(name_pattern="lamp", hops=9), max_hops=3)


def test_spatial_query_result_is_detached():
    g = demo_graph()
    sub = g.spatial_query(SemanticFilter(name_pattern="lamp"))
    sub.add_node("intruder")
    assert "intruder" not in g.nodes


# -- path inference ---------------------------------------------------------------


def bfs_distance(g: MemoryGraph, start: str, target: str):
    adj = {}
    for (s, t, _r) in g.edges:
        adj.setdefault(s, set()).add(t)
        adj.setdefault(t, set()).add(s)
    seen = {start: 0}
    q = deque([start])
    while q:
        cur = q.popleft()
        if cur == target:
            return seen[cur]
        for nb in adj.get(cur, ()):
            if nb not in seen:
                seen[nb] = seen[cur] + 1
                q.append(nb)
    return None


def test_path_inference_follows_edges_both_ways():
    g = MemoryGraph()
    g.add_edge("lamp", "sofa", "near")
    g.add_edge("door", "sofa", "left of")  # stored pointing at sofa
    hops = g.path_inference("lamp", "door")
    assert hops == [Hop("near", "sofa", forward=True), Hop("left of", "door", forward=False)]


def test_path_inference_tie_breaks_lexicographically():
    g = MemoryGraph()
    for mid in ("door", "sink"):
        g.add_edge("lamp", mid, "near")
        g.add_edge(mid, "rug", "near")
    hops = g.path_inference("lamp", "rug")
    assert [h.node for h in hops] == ["door", "rug"]


def test_path_inference_edge_cases():
    g = demo_graph()
    assert g.path_inference("oven", "oven") == []
    with pytest.raises(UnknownNode):
        g.path_inference("oven", "ghost")
    g.add_node("island")
    with pytest.raises(NoPath):
        g.path_inference("oven", "island")


@settings(max_examples=150, deadline=None)
@given(g=graphs, a=st.sampled_from(NAMES), b=st.sampled_from(NAMES))
def test_path_inference_matches_bfs(g, a, b):
    if a not in g.nodes or b not in g.nodes:
        return
    ref = bfs_distance(g, a, b)
    if ref is None:
        with pytest.raises(NoPath):
            g.path_inference(a, b)
        return
    hops = g.path_inference(a, b)
    assert len(hops) == ref
    # every hop uses a real stored edge in some direction
    cur = a
    for h in hops:
        if h.forward:
            assert (cur, h.node, h.relation) in g.edges
        else:
            assert (h.node, cur, h.relation) in g.edges
        cur = h.node
    assert cur == b or ref == 0


# -- text rendering ----------------------------------------------------------------


def test_render_text_content_and_budget():
    g = demo_graph()
    full = g.render_text(budget=100)
    assert "red_lamp (red, tall) at (1.0, 1.0)" in full
    assert "blue_sofa is on rug" in full
    assert full.endswith(".")

    assert g.render_text(budget=0) == ""
    # the budget keeps the most recent items: oven (step 3) outlives rug (step 1)
    short = g.render_text(budget=2)
    assert "oven" in short
    assert "red_lamp (red" not in short
    assert g.render_text(budget=2) == short  # stable


def test_render_text_counts_clauses():
    g = demo_graph()
    assert g.render_text(budget=3).count(". ") + 1 == 3
    n_items = len(g.nodes) + len(g.edges)
    assert g.render_text(budget=999).count(". ") + 1 == n_items


# -- merge algebra -------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(a=graphs, b=graphs)
def test_merge_commutative(a, b):
    assert merge(a, b).same_content(merge(b, a))


@settings(max_examples=120, deadline=None)
@given(a=graphs, b=graphs, c=graphs)
def test_merge_associative(a, b, c):
    assert merge(merge(a, b), c).same_content(merge(a, merge(b, c)))


@settings(max_examples=80, deadline=None)
@given(a=graphs)
def test_merge_idempotent(a):
    assert merge(a, a).same_content(a)
    assert merge(a, MemoryGraph()).same_content(a)


def test_merge_node_resolution_rules():
    a = MemoryGraph()
    a.add_node("sofa", ["red"], (1.0, 1.0), step=5, agent="a")
    b = MemoryGraph()
    b.add_node("sofa", ["soft"], (2.0, 2.0), step=3, agent="b")
    m = merge(a, b)
    n = m.nodes["sofa"]
    assert n.attributes == frozenset({"red", "soft"})
    assert n.location == (1.0, 1.0)  # strict recency win
    assert n.source_agent == "a"

    c = MemoryGraph()
    c.add_node("sofa", [], (0.5, 9.0), step=5, agent="z")
    tie = merge(a, c)
    assert tie.nodes["sofa"].location == (0.5, 9.0)  # tie: smallest location
    assert tie.nodes["sofa"].source_agent == "a"     # tie: smallest agent id


# -- persistence ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(g=graphs)
def test_save_load_round_trip(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("graphs") / "g.json"
    save_graph(g, path)
    again = load_graph(path)
    assert again.same_content(g)
    assert again.version == g.version


def test_load_rejects_bad_payloads(tmp_path):
    with pytest.raises(SchemaViolation):
        MemoryGraph.from_dict({"format": "dynav-graph/9"})
    with pytest.raises(SchemaViolation):
        MemoryGraph.from_dict({
            "format": "dynav-graph/1",
            "nodes": [],
            "edges": [{"start": "a", "target": "b", "relation": "near"}],
        })
    broken = tmp_path / "g.json"
    broken.write_text("]")
    with pytest.raises(SchemaViolation):
        load_graph(broken)


def test_saved_file_is_sorted_json(tmp_path):
    g = demo_graph()
    path = tmp_path / "g.json"
    save_graph(g, path)
    payload = json.loads(path.read_text())
    names = [n["name"] for n in payload["nodes"]]
    assert names == sorted(names)
    assert payload["format"] == "dynav-graph/1"


# -- non-finite locations ------------------------------------------------------------

NON_FINITE = [(math.nan, 1.0), (1.0, math.inf), (-math.inf, math.nan)]


@pytest.mark.parametrize("loc", NON_FINITE)
def test_node_rejects_non_finite_location(loc):
    with pytest.raises(ValueError):
        MemoryNode("chair_9", location=loc)
    g = MemoryGraph()
    with pytest.raises(ValueError):
        g.add_node("chair_9", (), loc, step=1)
    assert g.nodes == {} and g.version == 0


def test_load_rejects_non_finite_location(tmp_path):
    # Python's json reads the bare NaN / Infinity tokens other writers emit
    path = tmp_path / "g.json"
    path.write_text('{"format": "dynav-graph/1", "version": 1, "edges": [], '
                    '"nodes": [{"name": "x", "location": [NaN, Infinity]}]}')
    with pytest.raises(SchemaViolation):
        load_graph(path)


def test_memory_ops_with_non_finite_location_are_dropped(caplog):
    g = MemoryGraph()
    g.add_node("chair_1", (), (2.0, 1.0), step=1)
    ops = [MemoryOp(op="add_node", name="chair_1", location=(math.nan, 1.0)),
           MemoryOp(op="add_node", name="lamp_1", location=(1.0, 1.0))]
    apply_memory_ops(g, ops, step_index=1, agent="a")
    assert g.nodes["chair_1"].location == (2.0, 1.0)
    assert "lamp_1" in g.nodes
    assert any("dropping malformed memory op" in r.message for r in caplog.records)
    # with the NaN sighting refused, a tie merges the same in either order
    b = MemoryGraph()
    b.add_node("chair_1", (), (3.0, 1.0), step=1)
    assert merge(g, b).same_content(merge(b, g))
    assert merge(g, b).nodes["chair_1"].location == (2.0, 1.0)


def test_save_refuses_non_finite_numbers(tmp_path):
    g = demo_graph()
    name = sorted(g.nodes)[0]
    # bypass the node check to reach the writer
    object.__setattr__(g.nodes[name], "location", (math.nan, 0.0))
    path = tmp_path / "g.json"
    with pytest.raises(ValueError):
        save_graph(g, path)
