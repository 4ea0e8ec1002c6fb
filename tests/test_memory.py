"""Graph memory: update semantics, queries, the excerpt and the records a
request carries of it, merge algebra, persistence."""
import functools
import json
import math
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dynav.backends.oracle import OracleBackend
from dynav.backends.protocol import (PROTOCOL_VERSION, SCORE, DecisionRequest, MemoryOp,
                                    RequestContext, WireCandidate, WireNode, encode_request,
                                    make_stop_request, parse_response, request_context)
from dynav.config import RunConfig
from dynav.errors import EmptyName, SchemaViolation, SelfLoop
from dynav.geometry import Pose
from dynav.goals import DESCRIPTION, INSTANCE, NAME, GoalSpec
from dynav.memory import (
    MemoryEdge,
    MemoryGraph,
    MemoryNode,
    SemanticFilter,
    load_graph,
    merge,
    render,
    save_graph,
)
from dynav.policy import apply_memory_ops, memory_cut, memory_excerpt
from dynav.sensing import Observation
from dynav.world import SemanticObject

from conftest import (MISSING, dotted, json_values, replaced, replacements, same_content,
                      with_rays)

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


# -- the cut: what a step's memory excerpt holds ------------------------------------

clause_names = st.from_regex(r"[a-z](?:[a-z0-9_.\-]{0,7}[a-z0-9_\-])?", fullmatch=True)
coordinates = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(nodes=st.dictionaries(clause_names, st.tuples(
           st.sets(st.sampled_from(ATTRS), max_size=3),
           st.one_of(st.none(), st.tuples(coordinates, coordinates)), st.integers(0, 3)),
           max_size=6),
       edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from(RELS)),
                      max_size=8),
       budget=st.integers(-1, 16))
def test_the_cut_is_the_most_recent_prefix_of_every_node_and_edge(nodes, edges, budget):
    g = MemoryGraph()
    for name, (attrs, loc, step) in sorted(nodes.items()):
        g.add_node(name, attrs, loc, step=step)
    names = sorted(nodes)
    for s, t, r in edges:
        if s < len(names) and t < len(names) and s != t:
            g.add_edge(names[s], names[t], r)
    whole = g.cut(100)
    assert sorted(n.name for n in whole if isinstance(n, MemoryNode)) == sorted(g.nodes)
    assert sorted(e.key for e in whole if isinstance(e, MemoryEdge)) == sorted(g.edges)

    def recency(item):
        if isinstance(item, MemoryNode):
            return item.last_seen
        return max(g.nodes[item.start].last_seen, g.nodes[item.target].last_seen)

    assert [recency(i) for i in whole] == sorted(map(recency, whole), reverse=True)
    assert g.cut(budget) == whole[:max(0, budget)]
    assert g.render_text(budget) == render(g.cut(budget))


# -- the memory records, against the text parse they replace -------------------------

# The parse the oracle recalled by before the records, kept as the reference:
# the located node clauses of a memory text, the (category, attributes) of a
# goal text, and the names, relations and attributes whose text it read back.
_LOCATED = re.compile(
    r"(?P<name>(?:(?! \().)+?)(?: \((?P<attrs>[^)]*)\))?"
    r" at \((?P<x>-?\d+(?:\.\d+)?), (?P<y>-?\d+(?:\.\d+)?)\)",
    re.DOTALL)


def located_clauses(text):
    for clause in text.removesuffix(".").split(". "):
        m = _LOCATED.fullmatch(clause)
        if m:
            attrs = tuple(a.strip() for a in (m.group("attrs") or "").split(",") if a.strip())
            yield m.group("name"), attrs, (float(m.group("x")), float(m.group("y")))


def parse_goal_text(text):
    if text.startswith("object with "):
        return "", tuple(text[len("object with "):].split(", "))
    category, paren, attributes = text.partition(" (")
    if paren:
        return category, tuple(attributes.removesuffix(")").split(", "))
    return text, ()


def text_carries_name(name):
    return not (". " in name or " (" in name or name.endswith(".")
                or f" {name}".endswith(" at"))


def text_carries_attribute(attribute):
    return bool(attribute and attribute == attribute.strip() and "," not in attribute
                and ")" not in attribute and ". " not in attribute)


def text_recall(ctx):
    """Where the oracle recalled the goal from the texts: the nearest located
    clause of memory_text, the first on a tie, that fits the parsed goal_text."""
    category, attributes = parse_goal_text(ctx.goal_text)
    best, best_d = None, math.inf
    for name, attrs, (x, y) in located_clauses(ctx.memory_text):
        if category.lower() not in name.lower() or not set(attributes) <= set(attrs):
            continue
        d = math.hypot(x - ctx.pose[0], y - ctx.pose[1])
        if d < best_d:
            best, best_d = (x, y), d
    return best


_OBS = with_rays(Observation, (), pose=Pose(5.0, 5.0, 0.0), fov=math.pi)


def wire_context(g, goal, cfg=RunConfig()):
    """The context of a step with memory ``g`` and ``goal``, as a decision
    server parses it off the wire."""
    cut = memory_cut(g, goal, cfg)
    req = make_stop_request(request_context(_OBS, "s", goal, memory_excerpt(cut), cut))
    return DecisionRequest.from_dict(json.loads(encode_request(req))).context


def recall(g, goal):
    return OracleBackend()._remembered_target(wire_context(g, goal))


# names, attributes and relations over the characters the memory text is made of
_clause_part = st.text(st.sampled_from("ab #.,()at-1 0"), min_size=1, max_size=8)
_goal_part = st.text(st.sampled_from("ab #.,()t-1 0"), min_size=1, max_size=3)


@st.composite
def text_goals(draw, names=(), attributes=()):
    """A goal whose text the goal grammar read back; its category is often
    part of one of ``names``, its attributes often among ``attributes``."""
    kind = draw(st.sampled_from((NAME, DESCRIPTION, INSTANCE)))
    category = ""
    if kind != INSTANCE:
        category = draw(_goal_part)
        if names and draw(st.booleans()):
            name = draw(st.sampled_from(names))
            i = draw(st.integers(0, len(name) - 1))
            category = name[i:draw(st.integers(i + 1, len(name)))]
    parts = st.sampled_from(attributes) | _goal_part if attributes else _goal_part
    goal_attributes = () if kind == NAME else draw(st.lists(parts, min_size=1, max_size=2))
    assume(" (" not in category and not category.startswith("object with ")
           and all(map(text_carries_attribute, goal_attributes)))
    return GoalSpec(kind, category, goal_attributes)


@settings(max_examples=400, deadline=None)
@given(nodes=st.lists(st.tuples(_clause_part, st.sets(_clause_part, max_size=3),
                                st.one_of(st.none(), st.tuples(coordinates, coordinates),
                                          st.tuples(st.integers(0, 10).map(float),
                                                    st.integers(0, 10).map(float)))),
                      max_size=6),
       edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), _clause_part),
                      max_size=4),
       data=st.data())
def test_the_oracle_recalls_from_the_records_what_it_recalled_from_the_text(nodes, edges,
                                                                            data):
    g = MemoryGraph()
    for step, (name, attributes, location) in enumerate(nodes):
        if text_carries_name(name) and all(map(text_carries_attribute, attributes)):
            g.add_node(name, attributes, location, step=step % 3)
    names = sorted(g.nodes)
    for s, t, relation in edges:
        if s < len(names) and t < len(names) and s != t and text_carries_name(relation):
            g.add_edge(names[s], names[t], relation)
    goal = data.draw(text_goals(names, sorted(set().union(*(n.attributes
                                                             for n in g.nodes.values())))))
    ctx = wire_context(g, goal)
    assert OracleBackend()._remembered_target(ctx) == text_recall(ctx)


@pytest.mark.parametrize("nodes, goal, where", [
    ([("n", {"# at (1.0", "2.0"}, None, 0)], GoalSpec.name_goal("n"), None),
    # equally near: the first in render order, the most recently seen
    ([("a", (), (5.0, 8.0), 0), ("b a", (), (8.0, 5.0), 1)], GoalSpec.name_goal("a"),
     (8.0, 5.0)),
    # rounded to 0.1 m, as the text shows it
    ([("a", (), (1.04, 2.05), 0), ("ab", (), (1.06, -0.05), 0)], GoalSpec.name_goal("a"),
     (1.0, 2.0)),
], ids=("unlocated", "tie", "rounding"))
def test_text_and_record_recall_agree_on_chosen_graphs(nodes, goal, where):
    g = MemoryGraph()
    for name, attributes, location, step in nodes:
        g.add_node(name, attributes, location, step=step)
    ctx = wire_context(g, goal)
    assert OracleBackend()._remembered_target(ctx) == text_recall(ctx) == where


def _node(name, attributes=(), location=None):
    return {"name": name, "attributes": list(attributes), "location": location}


# Each misreading of the memory text that a refusal rule once closed: the
# graph, the goal, and where the oracle must recall it (None: nowhere).
MISREAD = {
    # read back as "stand", so a tv goal was never recalled
    "tv.stand": ([_node("tv.stand", ["black"], [1.0, 2.0])], [],
                 GoalSpec.name_goal("tv"), (1.0, 2.0)),
    # read back as the two attributes "red" and "tall"
    "red, tall": ([_node("chair_1", ["red, tall"], [1.0, 2.0]),
                   _node("chair_2", ["red", "tall"], [3.0, 3.0])], [],
                  GoalSpec("instance", "", ("red, tall",)), (1.0, 2.0)),
    # read back as "b"
    "a. b": ([_node("a. b", [], [3.0, 4.0])], [], GoalSpec.name_goal("a. b"), (3.0, 4.0)),
    # read back as a node named "(black)"
    "tv.": ([_node("tv.", ["black"], [1.0, 2.0])], [],
            GoalSpec("description", "tv.", ("black",)), (1.0, 2.0)),
    # read back as a node named "lamp_1 (x))" with no attributes
    "x)": ([_node("lamp_1", ["x)"], [3.0, 4.0])], [],
           GoalSpec("instance", "", ("x)",)), (3.0, 4.0)),
    # read back as "tv" with the attribute "old"
    "tv (old)": ([_node("tv (old)", [], [1.0, 2.0])], [],
                 GoalSpec.name_goal("tv (old)"), (1.0, 2.0)),
    "tv (old) has no attribute": ([_node("tv (old)", [], [1.0, 2.0])], [],
                                  GoalSpec("description", "tv", ("old",)), None),
    # read back as "lamp at" with the attributes "9.0" and "9.0"
    "lamp at (9.0, 9.0)": ([_node("lamp at (9.0, 9.0)", [], [1.0, 2.0])], [],
                           GoalSpec.name_goal("lamp"), (1.0, 2.0)),
    # unlocated, read back as "look" at (1.0, 2.0)
    "look at": ([_node("look at", ["1.0", "2.0"])], [], GoalSpec.name_goal("look"), None),
    # an edge, read back as a node "a is near" at (5.0, 6.0)
    "near at": ([_node("a"), _node("(5, 6)")],
                [{"start": "a", "target": "(5, 6)", "relation": "near at"}],
                GoalSpec.name_goal("a is near"), None),
    # an edge that planted a sighting of chair_9
    "x. chair_9 at (7.0, 8.0). y": (
        [_node("a"), _node("b")],
        [{"start": "a", "target": "b", "relation": "x. chair_9 at (7.0, 8.0). y"}],
        GoalSpec.name_goal("chair_9"), None),
    # unlocated, read back as a node "n (#" at (1.0, 2.0)
    "n (# at (1.0": ([_node("n", ["# at (1.0", "2.0"])], [], GoalSpec.name_goal("n"), None),
}


@pytest.mark.parametrize("case", MISREAD)
def test_what_the_memory_text_misread_loads_and_is_recalled_where_it_lies(case):
    nodes, edges, goal, where = MISREAD[case]
    g = MemoryGraph.from_dict({"format": "dynav-graph/1", "nodes": nodes, "edges": edges})
    for node in nodes:  # and a world file holds such an object
        SemanticObject(name=node["name"], category="thing", center=(1.0, 2.0), radius=0.3,
                       attributes=node["attributes"])
    ctx = wire_context(g, goal)
    for name, attributes, location in ctx.memory:  # each record is its node, whole
        node = g.nodes[name]
        assert (frozenset(attributes), location) == (node.attributes, node.location)
    assert OracleBackend()._remembered_target(ctx) == where


def test_a_reply_may_name_anything_but_the_empty_string(caplog):
    """Memory ops with any name, attribute or relation land; one with an
    empty one is dropped as malformed where the node or edge would be made."""
    request = DecisionRequest(
        SCORE, with_rays(RequestContext, (), session_id="s", step=1, goal_text="tv",
                         goal=GoalSpec.name_goal("tv"), pose=(0.0, 0.0, 0.0)),
        (WireCandidate(1, 1.0, 0.0),), "goal-name/3")
    names = ("a. b", "tv.", "tv (old)", "lamp at (9.0, 9.0)", "look at", "at", "tv(old)")
    attributes = ("red, tall", "x)", " red", "red\n", "# at (1.0")
    relations = ("x. chair_9 at (7.0, 8.0). y", "near at", "at", "near.", "near (x)")
    reply = {"version": PROTOCOL_VERSION, "kind": SCORE, "memory_ops": [
        *({"op": "add_node", "name": n, "location_m": [1.0, 2.0]} for n in names + ("",)),
        *({"op": "add_node", "name": "chair_1", "attributes": [a]} for a in attributes + ("",)),
        *({"op": "add_edge", "start": "a. b", "target": "tv.", "relation": r}
          for r in relations + ("",))]}
    g = MemoryGraph()
    apply_memory_ops(g, parse_response(reply, request).memory_ops, step_index=1, agent="a")
    assert set(g.nodes) == set(names) | {"chair_1"}
    assert g.nodes["chair_1"].attributes == frozenset(attributes)
    assert set(g.edges) == {("a. b", "tv.", r) for r in relations}
    assert sum("dropping malformed memory op" in r.message for r in caplog.records) == 3


def test_names_relations_and_attributes_must_be_non_empty():
    with pytest.raises(EmptyName):
        MemoryNode("")
    with pytest.raises(EmptyName):
        MemoryNode("chair_1", {"red", ""})
    with pytest.raises(EmptyName):
        MemoryEdge("a", "b", "")
    for node in ({"name": ""}, {"name": "chair_1", "attributes": ["red", ""]}):
        with pytest.raises(SchemaViolation, match="non-empty"):
            MemoryGraph.from_dict({"format": "dynav-graph/1", "nodes": [node]})
    with pytest.raises(ValueError, match="non-empty"):
        SemanticObject(name="c", category="chair", center=(0, 0), radius=0.3,
                       attributes=("red", ""))
    with pytest.raises(ValueError, match="reserved"):  # a ray could not tell it from a wall
        SemanticObject(name="wall", category="chair", center=(0, 0), radius=0.3)


@settings(max_examples=300, deadline=None)
@given(name=st.text(st.sampled_from("ab .()\n"), min_size=1, max_size=8)
       | st.text(min_size=1, max_size=5),
       attributes=st.sets(st.text(st.sampled_from("ab ,.)(\n"), max_size=5)
                          | st.text(max_size=4), max_size=3))
@example(name="tv (old)", attributes=set())
@example(name="lamp at (9.0, 9.0)", attributes={"red"})
@example(name="a) b", attributes={"red, tall", "x)"})
def test_every_node_that_constructs_reaches_the_oracle_whole(name, attributes):
    g = MemoryGraph()
    try:
        g.add_node(name, attributes, (1.04, 2.05))
    except EmptyName:
        assert "" in attributes
        return
    ctx = wire_context(g, GoalSpec.name_goal(name))
    assert ctx.memory == (WireNode(name, tuple(sorted(attributes)), (1.04, 2.05)),)
    assert OracleBackend()._remembered_target(ctx) == (1.0, 2.0)  # as the text shows it
    assert ctx.memory_text == g.render_text(RunConfig().memory_budget)


_clause_text = st.text(st.sampled_from("ab t.(5, 6)"), min_size=1, max_size=10)


@settings(max_examples=300, deadline=None)
@given(start=_clause_text, target=_clause_text, relation=_clause_text,
       attributes=st.sets(st.sampled_from(("5", "6.0", "red")), max_size=2))
@example(start="a", target="(5, 6)", relation="near at", attributes=set())
@example(start="look at", target="b", relation="near", attributes={"5", "6.0"})
def test_no_unlocated_node_or_edge_gives_a_located_record(start, target, relation, attributes):
    g = MemoryGraph()
    try:
        g.add_node(start, attributes)
        g.add_edge(start, target, relation)
    except SelfLoop:
        return
    for name in (start, target, relation):
        ctx = wire_context(g, GoalSpec.name_goal(name))
        assert all(node.location_m is None for node in ctx.memory)
        assert OracleBackend()._remembered_target(ctx) is None


def test_render_text_counts_clauses():
    g = demo_graph()
    assert g.render_text(budget=3).count(". ") + 1 == 3
    n_items = len(g.nodes) + len(g.edges)
    assert g.render_text(budget=999).count(". ") + 1 == n_items


# -- merge algebra -------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(a=graphs, b=graphs)
def test_merge_commutative(a, b):
    assert same_content(merge(a, b), merge(b, a))


@settings(max_examples=120, deadline=None)
@given(a=graphs, b=graphs, c=graphs)
def test_merge_associative(a, b, c):
    assert same_content(merge(merge(a, b), c), merge(a, merge(b, c)))


@settings(max_examples=80, deadline=None)
@given(a=graphs)
def test_merge_idempotent(a):
    assert same_content(merge(a, a), a)
    assert same_content(merge(a, MemoryGraph()), a)


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
    assert same_content(build(data.draw(st.permutations(ops))), whole)
    replicas = [build([op for agent, op in stream if agent == k]) for k in range(3)]
    assert same_content(functools.reduce(merge, replicas), whole)


# -- persistence ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(g=graphs)
def test_save_load_round_trip(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("graphs") / "g.json"
    save_graph(g, path)
    again = load_graph(path)
    assert same_content(again, g)
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
    assert same_content(merge(g, b), merge(b, g))
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
