"""Graph memory: update semantics, queries, merge algebra, persistence."""
import functools
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynav.errors import EmptyName, SchemaViolation, SelfLoop
from dynav.backends.protocol import (PROTOCOL_VERSION, SCORE, DecisionRequest, MemoryOp,
                                    RequestContext, WireCandidate, parse_response)
from dynav.memory import (
    MemoryEdge,
    MemoryGraph,
    MemoryNode,
    SemanticFilter,
    load_graph,
    merge,
    save_graph,
)
from dynav.policy import apply_memory_ops
from dynav.world import SemanticObject

from conftest import MISSING, dotted, json_values, replaced, replacements

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


def test_a_newer_sighting_without_a_location_leaves_the_node_unlocated():
    seen_by_a = ("node", "sofa", (), (1.0, 1.0), 5, "A")
    seen_by_b = ("node", "sofa", (), None, 7, "B")
    expected = MemoryNode("sofa", (), None, 7, "B")
    assert build([seen_by_a, seen_by_b]).nodes["sofa"] == expected
    assert build([seen_by_b, seen_by_a]).nodes["sofa"] == expected
    assert merge(build([seen_by_a]), build([seen_by_b])).nodes["sofa"] == expected


def test_a_same_step_tie_keeps_the_smallest_location_and_agent():
    sightings = [((2.0, 2.0), "b"), ((1.0, 1.0), "c"), (None, "")]
    for order in (sightings, sightings[::-1]):
        g = MemoryGraph()
        for loc, agent in order:
            g.add_node("sofa", [], loc, step=5, agent=agent)
        assert g.nodes["sofa"] == MemoryNode("sofa", (), (1.0, 1.0), 5, "b")


def test_add_edge_changes_no_stored_node():
    g = MemoryGraph()
    g.add_node("lamp", ["red"], (1.0, 1.0), step=0, agent="a")
    lamp = g.nodes["lamp"]
    g.add_edge("lamp", "door", "near")
    assert g.nodes["lamp"] == lamp
    assert g.nodes["door"] == MemoryNode("door")
    v = g.version
    g.add_edge("door", "lamp", "near")
    assert g.version == v + 1  # a new edge, and no node changed
    g.add_edge("door", "lamp", "near")
    assert g.version == v + 1 and g.nodes["lamp"] == lamp


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


def test_spatial_query_hop_expansion():
    g = demo_graph()
    sub = g.spatial_query(SemanticFilter(name_pattern="lamp", hops=1))
    assert set(sub.nodes) == {"red_lamp", "blue_sofa"}
    sub = g.spatial_query(SemanticFilter(name_pattern="lamp", hops=2))
    assert set(sub.nodes) == {"red_lamp", "blue_sofa", "rug"}
    assert ("blue_sofa", "rug", "on") in sub.edges


def test_spatial_query_result_is_detached():
    g = demo_graph()
    sub = g.spatial_query(SemanticFilter(name_pattern="lamp"))
    sub.add_node("intruder")
    assert "intruder" not in g.nodes


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


# dots inside a name are fine; one ending a name would read as the ". " separator
clause_names = st.from_regex(r"[a-z](?:[a-z0-9_.\-]{0,7}[a-z0-9_\-])?", fullmatch=True)
coordinates = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(nodes=st.dictionaries(clause_names, st.tuples(
           st.sets(st.sampled_from(ATTRS), max_size=3),
           st.one_of(st.none(), st.tuples(coordinates, coordinates))), max_size=6),
       edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from(RELS)),
                      max_size=8))
@example(nodes={"tv.stand": ({"black"}, (1.0, 2.0)), "sofa": (set(), (3.0, 1.0))}, edges=[])
def test_render_then_parse_recovers_every_located_node(nodes, edges):
    g = MemoryGraph()
    for step, (name, (attrs, loc)) in enumerate(sorted(nodes.items())):
        g.add_node(name, attrs, loc, step=step)
    names = sorted(nodes)
    for s, t, r in edges:
        if s < len(names) and t < len(names) and s != t:
            g.add_edge(names[s], names[t], r)
    parsed = list(MemoryGraph.located_clauses(g.render_text(budget=100)))
    expected = {name: (tuple(sorted(attrs)), (float(f"{loc[0]:.1f}"), float(f"{loc[1]:.1f}")))
                for name, (attrs, loc) in nodes.items() if loc is not None}
    assert {name: (attrs, loc) for name, attrs, loc in parsed} == expected
    assert len(parsed) == len(expected)


def test_names_the_memory_text_cannot_carry_are_refused(caplog):
    # render_text of "a. b" and "tv." would read back as "b" and "(black)"
    for name in ("a. b", "tv."):
        with pytest.raises(ValueError):
            MemoryNode(name)
        graph = {"format": "dynav-graph/1", "nodes": [{"name": name}]}
        with pytest.raises(SchemaViolation, match="holds"):
            MemoryGraph.from_dict(graph)
    g = MemoryGraph()
    ops = [MemoryOp(op="add_node", name="a. b", location=(3.0, 4.0)),
           MemoryOp(op="add_node", name="tv.", attributes=("black",), location=(1.0, 2.0)),
           MemoryOp(op="add_node", name="tv.stand", attributes=("black",), location=(1.0, 2.0)),
           MemoryOp(op="add_edge", start="tv.stand", target="tv.", relation="near")]
    apply_memory_ops(g, ops, step_index=1, agent="a")
    assert set(g.nodes) == {"tv.stand"} and not g.edges
    assert sum("dropping malformed memory op" in r.message for r in caplog.records) == 3
    assert list(MemoryGraph.located_clauses(g.render_text(budget=10))) == [
        ("tv.stand", ("black",), (1.0, 2.0))]


# names the memory text misreads: located_clauses takes the first " (" of a
# node clause for its attributes, so "tv (old)" at (1, 2) read back as "tv"
# with the attribute "old", and "lamp at (9.0, 9.0)" as "lamp at" with the
# attributes "9.0" and "9.0"
PARENTHESISED_NAMES = ("tv (old)", "lamp at (9.0, 9.0)")


def test_names_with_a_parenthesis_after_a_space_are_refused(caplog):
    for name in PARENTHESISED_NAMES:
        with pytest.raises(ValueError, match="cannot carry"):
            SemanticObject(name=name, category="tv", center=(1.0, 2.0), radius=0.3)
        with pytest.raises(ValueError, match="cannot carry"):
            MemoryNode(name, location=(1.0, 2.0))
        graph = {"format": "dynav-graph/1", "nodes": [{"name": name}]}
        with pytest.raises(SchemaViolation, match="cannot carry"):
            MemoryGraph.from_dict(graph)
    # a score reply's add_node ops with such names parse, then are dropped as
    # malformed where the node would be made; the well-formed op still lands
    request = DecisionRequest(SCORE, RequestContext("s", 1, "tv", (0.0, 0.0, 0.0), ()),
                              (WireCandidate(1, 1.0, 0.0),), "goal-name/3")
    reply = {"version": PROTOCOL_VERSION, "kind": SCORE, "memory_ops": [
        {"op": "add_node", "name": name, "location_m": [1.0, 2.0]}
        for name in PARENTHESISED_NAMES + ("tv(old)",)]}
    g = MemoryGraph()
    apply_memory_ops(g, parse_response(reply, request).memory_ops, step_index=1, agent="a")
    assert set(g.nodes) == {"tv(old)"}
    assert sum("dropping malformed memory op" in r.message for r in caplog.records) == 2
    assert list(MemoryGraph.located_clauses(g.render_text(budget=10))) == [
        ("tv(old)", (), (1.0, 2.0))]


@settings(max_examples=300, deadline=None)
@given(name=st.text(st.sampled_from("ab .()\n"), min_size=1, max_size=8)
       | st.text(min_size=1, max_size=5),
       attributes=st.sets(st.sampled_from(ATTRS), max_size=2))
@example(name="tv (old)", attributes=set())
@example(name="lamp at (9.0, 9.0)", attributes={"red"})
@example(name="a) b", attributes={"red"})
def test_every_name_a_node_accepts_reads_back_whole(name, attributes):
    g = MemoryGraph()
    try:
        g.add_node(name, attributes, (1.0, 2.0))
    except ValueError:
        return
    assert list(MemoryGraph.located_clauses(g.render_text(budget=10))) == [
        (name, tuple(sorted(attributes)), (1.0, 2.0))]


# attributes the memory text cannot read back: each splits, breaks or loses
# its node clause
UNCARRIED_ATTRIBUTES = ("red, tall", "red,tall", "x)", "a. b", "", " red", "red\n")


def test_attributes_the_memory_text_cannot_carry_are_refused(caplog):
    # render_text of chair_1 with "red, tall" would read back as "red" and
    # "tall", and lamp_1 with "x)" as a node named "lamp_1 (x))"
    for attribute in UNCARRIED_ATTRIBUTES:
        with pytest.raises(ValueError, match="cannot carry"):
            MemoryNode("chair_1", {attribute}, (1.0, 2.0))
        graph = {"format": "dynav-graph/1",
                 "nodes": [{"name": "chair_1", "attributes": ["red", attribute]}]}
        with pytest.raises(SchemaViolation, match="cannot carry"):
            MemoryGraph.from_dict(graph)
    g = MemoryGraph()
    ops = [MemoryOp(op="add_node", name="chair_1", attributes=("red, tall",), location=(1.0, 2.0)),
           MemoryOp(op="add_node", name="lamp_1", attributes=("x)",), location=(3.0, 4.0)),
           MemoryOp(op="add_node", name="lamp_2", attributes=("x", "tall"), location=(3.0, 4.0))]
    apply_memory_ops(g, ops, step_index=1, agent="a")
    assert set(g.nodes) == {"lamp_2"}
    assert sum("dropping malformed memory op" in r.message for r in caplog.records) == 2
    assert list(MemoryGraph.located_clauses(g.render_text(budget=10))) == [
        ("lamp_2", ("tall", "x"), (3.0, 4.0))]


# relations an edge clause "start is relation target" cannot carry: the first
# would plant a located clause for chair_9, the second and third make
# "a is near at (5, 6)" and "a is at (5, 6)", which read as located nodes
UNCARRIED_RELATIONS = ("x. chair_9 at (7.0, 8.0). y", "near at", "at", "near.", "near (x)")


def test_relations_the_memory_text_cannot_carry_are_refused(caplog):
    for relation in UNCARRIED_RELATIONS:
        with pytest.raises(ValueError, match="cannot carry"):
            MemoryEdge("a", "(5, 6)", relation)
        graph = {"format": "dynav-graph/1", "nodes": [{"name": "a"}, {"name": "(5, 6)"}],
                 "edges": [{"start": "a", "target": "(5, 6)", "relation": relation}]}
        with pytest.raises(SchemaViolation, match="cannot carry"):
            MemoryGraph.from_dict(graph)
    # a score reply's add_edge ops with such relations parse, then are
    # dropped as malformed; the well-formed op still lands
    request = DecisionRequest(SCORE, RequestContext("s", 1, "a", (0.0, 0.0, 0.0), ()),
                              (WireCandidate(1, 1.0, 0.0),), "goal-name/3")
    reply = {"version": PROTOCOL_VERSION, "kind": SCORE, "memory_ops": [
        {"op": "add_edge", "start": "a", "target": "(5, 6)", "relation": relation}
        for relation in UNCARRIED_RELATIONS + ("next to",)]}
    g = MemoryGraph()
    apply_memory_ops(g, parse_response(reply, request).memory_ops, step_index=1, agent="a")
    assert set(g.edges) == {("a", "(5, 6)", "next to")}
    assert sum("dropping malformed memory op" in r.message
               for r in caplog.records) == len(UNCARRIED_RELATIONS)
    assert list(MemoryGraph.located_clauses(g.render_text(budget=10))) == []


def test_names_ending_in_at_are_refused():
    # "look at" with the attributes 1.0 and 2.0 rendered as "look at (1.0,
    # 2.0)", which read back as "look" at (1.0, 2.0)
    for name in ("look at", "at"):
        with pytest.raises(ValueError, match="cannot carry"):
            MemoryNode(name, {"1.0", "2.0"})
        with pytest.raises(ValueError, match="cannot carry"):
            SemanticObject(name=name, category="lamp", center=(1.0, 2.0), radius=0.3)
    MemoryNode("look at it", {"1.0", "2.0"})
    MemoryNode("hat", {"1.0", "2.0"})


_clause_text = st.text(st.sampled_from("ab t.(5, 6)"), min_size=1, max_size=10)


@settings(max_examples=300, deadline=None)
@given(start=_clause_text, target=_clause_text, relation=_clause_text,
       attributes=st.sets(st.sampled_from(("5", "6.0", "red")), max_size=2))
@example(start="a", target="(5, 6)", relation="near at", attributes=set())
@example(start="a", target="(5, 6)", relation="at", attributes=set())
@example(start="look at", target="b", relation="near", attributes={"5", "6.0"})
def test_no_unlocated_node_or_edge_reads_back_as_a_located_node(start, target, relation,
                                                                 attributes):
    g = MemoryGraph()
    try:
        g.add_node(start, attributes)
        g.add_edge(start, target, relation)
    except (ValueError, EmptyName, SelfLoop):
        return
    assert list(MemoryGraph.located_clauses(g.render_text(budget=10))) == []


# names, attributes and relations over the characters the memory text is made of
_clause_part = st.text(st.sampled_from("ab #.,()at-1 0"), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(nodes=st.lists(st.tuples(_clause_part, st.sets(_clause_part, max_size=3),
                                st.one_of(st.none(), st.tuples(coordinates, coordinates))),
                      max_size=5),
       edges=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), _clause_part),
                      max_size=4))
@example(nodes=[("n", {"# at (1.0", "2.0"}, None)], edges=[])
def test_any_graph_the_checks_accept_reads_back_exactly_its_located_nodes(nodes, edges):
    g = MemoryGraph()
    for step, (name, attributes, location) in enumerate(nodes):
        try:
            g.add_node(name, attributes, location, step=step)
        except (ValueError, EmptyName):
            pass
    names = sorted(g.nodes)
    for s, t, relation in edges:
        if s < len(names) and t < len(names):
            try:
                g.add_edge(names[s], names[t], relation)
            except (ValueError, SelfLoop):
                pass
    parsed = list(MemoryGraph.located_clauses(g.render_text(budget=100)))
    expected = [(n.name, tuple(sorted(n.attributes)),
                 (float(f"{n.location[0]:.1f}"), float(f"{n.location[1]:.1f}")))
                for n in g.nodes.values() if n.location is not None]
    assert sorted(parsed) == sorted(expected)


def node_clause(attributes) -> str:
    """render_text of a graph holding only chair_1 at (1, 2) with ``attributes``."""
    listed = f" ({', '.join(sorted(attributes))})" if attributes else ""
    return f"chair_1{listed} at (1.0, 2.0)."


@settings(max_examples=300, deadline=None)
@given(attributes=st.sets(st.text(st.sampled_from("ab ,.)(\n"), max_size=5)
                          | st.text(max_size=4), max_size=3))
@example(attributes={"red, tall"})
@example(attributes={"x)"})
@example(attributes={"tall.", "(old"})
def test_a_node_holds_exactly_the_attributes_the_memory_text_reads_back(attributes):
    reads_back = list(MemoryGraph.located_clauses(node_clause(attributes))) == [
        ("chair_1", tuple(sorted(attributes)), (1.0, 2.0))]
    g = MemoryGraph()
    try:
        g.add_node("chair_1", attributes, (1.0, 2.0))
    except ValueError:
        assert not reads_back
    else:
        assert reads_back and g.render_text(budget=10) == node_clause(attributes)


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


# Adversarial operation streams: few names, steps and locations, so equal
# steps, null and repeated locations and empty and repeated agents are common.
LOCATIONS = (None, (0.0, 0.0), (1.0, 2.0), (2.0, 1.0))
sighting_op = st.tuples(
    st.just("node"),
    st.sampled_from(NAMES[:3]),
    st.sets(st.sampled_from(ATTRS), max_size=2),
    st.sampled_from(LOCATIONS),
    st.integers(0, 3),
    st.sampled_from(("", "agent_a", "agent_b")),
)
split_stream = st.lists(st.tuples(st.integers(0, 2), st.one_of(sighting_op, edge_op)),
                        max_size=30)


@settings(max_examples=500, deadline=None)
@given(stream=split_stream, data=st.data())
def test_replicas_agree_with_one_replay_on_any_split_and_order(stream, data):
    ops = [op for _agent, op in stream]
    whole = build(ops)
    assert build(data.draw(st.permutations(ops))).same_content(whole)
    replicas = [build([op for agent, op in stream if agent == k]) for k in range(3)]
    assert functools.reduce(merge, replicas).same_content(whole)


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


# -- graph files: every field is checked, and only SchemaViolation escapes ------------

VALID_GRAPH = {
    "format": "dynav-graph/1", "version": 3,
    "nodes": [{"name": "chair_1", "attributes": ["red"], "location": [1.0, 2.0],
               "last_seen": 2, "source_agent": "ep0"},
              {"name": "lamp_1", "attributes": [], "location": None, "last_seen": 1,
               "source_agent": ""}],
    "edges": [{"start": "chair_1", "target": "lamp_1", "relation": "near"}],
}
GRAPH_PATHS = [
    ("format",), ("version",), ("nodes",), ("nodes", 0), ("nodes", 0, "name"),
    ("nodes", 0, "attributes"), ("nodes", 0, "attributes", 0), ("nodes", 0, "location"),
    ("nodes", 0, "location", 1), ("nodes", 0, "last_seen"), ("nodes", 0, "source_agent"),
    ("edges",), ("edges", 0), ("edges", 0, "start"), ("edges", 0, "relation"),
]


def test_valid_graph_loads():
    assert MemoryGraph.from_dict(VALID_GRAPH).to_dict() == VALID_GRAPH


@pytest.mark.parametrize("path, value", [
    (("nodes", 0, "attributes"), "red"),  # not the attributes {"r", "e", "d"}
    (("nodes",), [5]),
    (("nodes", 0, "last_seen"), math.inf),
    (("nodes", 0, "last_seen"), 2.0),
    (("nodes", 0, "location"), [1.0]),
    (("nodes", 0, "name"), 7),
    (("nodes", 0, "source_agent"), None),
    (("edges", 0), "chair_1 near lamp_1"),
    (("edges", 0, "relation"), ["near"]),
    (("version",), "3"),
    (("edges",), {}),
], ids=lambda v: dotted(v) if isinstance(v, tuple) else repr(v))
def test_from_dict_refuses_a_wrong_type(path, value):
    with pytest.raises(SchemaViolation):
        MemoryGraph.from_dict(replaced(VALID_GRAPH, path, value))


def test_a_negative_last_seen_is_refused():
    # steps start at 0, so the bare node add_edge joins changes no stored node
    with pytest.raises(ValueError):
        MemoryNode("x", last_seen=-1)
    with pytest.raises(SchemaViolation, match="last_seen"):
        MemoryGraph.from_dict(replaced(VALID_GRAPH, ("nodes", 0, "last_seen"), -1))


def test_load_refuses_an_infinite_last_seen(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(VALID_GRAPH).replace('"last_seen": 2', '"last_seen": Infinity'))
    with pytest.raises(SchemaViolation, match="last_seen"):
        load_graph(path)


def loads_or_violates(payload):
    try:
        g = MemoryGraph.from_dict(payload)
    except SchemaViolation:
        return
    for n in g.nodes.values():
        assert isinstance(n.name, str) and isinstance(n.last_seen, int)
        assert all(isinstance(a, str) for a in n.attributes)
        assert n.location is None or all(map(math.isfinite, n.location))
    json.dumps(g.to_dict(), allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(payload=json_values)
def test_from_dict_raises_only_schema_violation(payload):
    loads_or_violates(payload)


@pytest.mark.parametrize("path", GRAPH_PATHS, ids=dotted)
@settings(max_examples=30, deadline=None)
@given(value=replacements)
def test_from_dict_field_raises_only_schema_violation(path, value):
    if isinstance(path[-1], int) and value is MISSING:
        return
    loads_or_violates(replaced(VALID_GRAPH, path, value))
