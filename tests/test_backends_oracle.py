"""Deterministic backend: scoring modes, hazard filtering, stop and memory ops."""
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynav.backends.oracle import OracleBackend, _tokens
from dynav.backends.protocol import (
    FILTER,
    PROTOCOL_VERSION,
    SCORE,
    STOP_CHECK,
    DecisionRequest,
    RequestContext,
    WireCandidate,
    WireNode,
)
from dynav.config import RunConfig
from dynav.episodes import load_episode_specs, run_episode
from dynav.errors import SchemaViolation
from dynav.goals import DESCRIPTION, INSTANCE, GoalSpec

from conftest import Row, packed, rays_of, with_rays

SPEC = Path(__file__).resolve().parent.parent / "specs" / "objectnav_small.json"


def make_req(kind=SCORE, goal=GoalSpec.name_goal("chair"), rays=(), candidates=(), memory=(),
             constraints=(), pose=(0.0, 0.0, 0.0), session="s", step=0):
    """A request whose goal and memory records are ``goal`` and ``memory``,
    with texts that say nothing: the oracle reads the records alone."""
    ctx = with_rays(RequestContext, rays, session_id=session, step=step, goal_text="", goal=goal,
                    pose=pose, memory=tuple(memory), constraints=tuple(constraints))
    return DecisionRequest(kind, ctx, tuple(candidates), "goal-name/3")


def located(name, x, y, *attributes):
    return WireNode(name, attributes, (x, y))


@pytest.fixture
def backend():
    return OracleBackend.from_config(RunConfig())


# -- goal matching -----------------------------------------------------------------


def test_goal_rays_match_label_and_attributes(backend):
    # a goal ray is a labelled, non-wall ray whose label and attributes match
    rays = [Row(0.0, 2.0, "chair_1", ("red", "wooden"), ()),
            Row(1.0, 2.0, "chair_1", ("blue",), ()),
            Row(2.0, 2.0, "wall", ("red",), ()),
            Row(3.0, 2.0, None),
            Row(4.0, 2.0, "table_1", ("red",), ())]
    def goal_rays(goal):
        ctx = make_req(goal=goal, rays=rays).context
        return [rays_of(ctx)[i] for i in backend._goal_rays(ctx)]

    red_chair = GoalSpec(DESCRIPTION, "chair", ("red",))
    assert goal_rays(red_chair) == rays[:1]
    red = GoalSpec(INSTANCE, "", ("red",))
    assert goal_rays(red) == [rays[0], rays[4]]
    chair = GoalSpec.name_goal("Chair")
    assert goal_rays(chair) == rays[:2]
    sofa = GoalSpec.name_goal("sofa")
    assert goal_rays(sofa) == []


# -- scoring: goal visible ----------------------------------------------------------


def test_goal_visible_scores_by_angular_proximity(backend):
    rays = [Row(10.0, 3.0, "chair_1")]
    cands = [WireCandidate(1, 2.0, 0.0), WireCandidate(2, 2.0, 12.0),
             WireCandidate(3, 2.0, -30.0)]
    resp = backend.decide(make_req(rays=rays, candidates=cands))
    assert resp.kind == SCORE
    assert resp.scores[1] == pytest.approx(1.0 - math.radians(10.0) / math.pi)
    assert resp.scores[2] == pytest.approx(1.0 - math.radians(2.0) / math.pi)
    assert resp.scores[3] == pytest.approx(1.0 - math.radians(40.0) / math.pi)
    assert max(resp.scores, key=resp.scores.get) == 2


def test_goal_reference_is_nearest_sighting(backend):
    # two chairs in view: the closer one at -20 deg sets the reference bearing
    rays = [Row(30.0, 6.0, "chair_1"), Row(-20.0, 2.0, "chair_2")]
    cands = [WireCandidate(1, 2.0, 28.0), WireCandidate(2, 2.0, -18.0)]
    resp = backend.decide(make_req(rays=rays, candidates=cands))
    assert resp.scores[2] > resp.scores[1]


# -- scoring: frontier fallback -------------------------------------------------------


def test_frontier_prefers_longest_reach(backend):
    rays = [Row(0.0, 5.0, "wall")]
    cands = [WireCandidate(1, 2.0, -20.0), WireCandidate(2, 4.0, 0.0),
             WireCandidate(3, 3.0, 20.0)]
    resp = backend.decide(make_req(rays=rays, candidates=cands, memory=()))
    assert max(resp.scores, key=resp.scores.get) == 2
    assert resp.scores[2] > resp.scores[3] > resp.scores[1]


@settings(max_examples=60, deadline=None)
@given(step=st.integers(0, 500), session=st.sampled_from(("a", "b", "c")))
def test_frontier_order_is_stable_across_dither(step, session):
    backend = OracleBackend.from_config(RunConfig())
    cands = [WireCandidate(1, 2.0, -20.0), WireCandidate(2, 4.0, 0.0),
             WireCandidate(3, 3.0, 20.0)]
    resp = backend.decide(make_req(candidates=cands, session=session, step=step))
    # the dither is smaller than one coarse range bin: 4 > 3 > 2 always holds
    assert resp.scores[2] > resp.scores[3] > resp.scores[1]
    assert all(0.0 <= s <= 1.0 for s in resp.scores.values())


def test_frontier_dither_varies_with_step(backend):
    cands = [WireCandidate(1, 2.0, -20.0), WireCandidate(2, 2.3, 20.0)]
    picks = set()
    for step in range(12):
        resp = backend.decide(make_req(candidates=cands, step=step))
        picks.add(max(resp.scores, key=resp.scores.get))
    # equal coarse reach: the step-keyed dither varies which ray wins
    assert picks == {1, 2}


# -- scoring: remembered target --------------------------------------------------------


def test_memory_steering_prefers_target_bearing(backend):
    memory = [located("chair_2", 5.0, 5.0, "red")]  # bearing 45 deg from the origin
    cands = [WireCandidate(1, 3.0, 40.0), WireCandidate(2, 3.0, -40.0)]
    resp = backend.decide(make_req(candidates=cands, memory=memory))
    assert resp.scores[1] > resp.scores[2]


def test_memory_steering_picks_nearest_clause(backend):
    memory = [located("chair_9", 20.0, 0.0), located("chair_2", 0.0, 6.0)]
    cands = [WireCandidate(1, 3.0, 85.0),    # toward the close chair at (0, 6)
             WireCandidate(2, 3.0, 0.0)]     # toward the far chair at (20, 0)
    resp = backend.decide(make_req(candidates=cands, memory=memory))
    assert resp.scores[1] > resp.scores[2]


def test_memory_steering_ignores_non_matching_clauses(backend):
    # memory only locates a table; a chair goal falls back to frontier mode
    memory = [located("table_1", 0.0, 6.0), WireNode("chair_1", (), None)]
    cands = [WireCandidate(1, 2.0, 85.0), WireCandidate(2, 4.0, 0.0)]
    resp = backend.decide(make_req(candidates=cands, memory=memory))
    assert resp.scores[2] > resp.scores[1]


def test_memory_steering_gates_blocked_bearings(backend):
    # target dead ahead but that ray is nearly blocked; the clear flank wins
    memory = [located("chair_2", 6.0, 0.0)]
    cands = [WireCandidate(1, 0.2, 0.0), WireCandidate(2, 4.0, 50.0)]
    resp = backend.decide(make_req(candidates=cands, memory=memory))
    assert resp.scores[2] > resp.scores[1]


def test_memory_steering_reads_the_records_not_the_texts(backend):
    # the texts place a chair dead ahead; the records place it at 90 deg
    cands = [WireCandidate(1, 3.0, 0.0), WireCandidate(2, 3.0, 90.0)]
    req = make_req(candidates=cands, memory=[located("chair_2", 0.0, 6.0)])
    req = replace(req, context=replace(req.context, goal_text="chair",
                                       memory_text="chair_1 at (6.0, 0.0)."))
    resp = backend.decide(req)
    assert resp.scores[2] > resp.scores[1]


def test_memory_steering_skips_unlocated_records_and_rounds_to_the_text(backend):
    memory = [WireNode("chair_1", (), None), located("chair_2", 0.04, 6.04),
              located("chair_3", 6.0, -0.03)]
    ctx = make_req(memory=memory).context
    # chair_3 is nearer, but rounded to 0.1 m both lie 6 m away: the first wins
    assert backend._remembered_target(ctx) == (0.0, 6.0)
    assert backend._remembered_target(make_req(memory=memory[:1]).context) is None


def test_goal_visibility_overrides_memory(backend):
    memory = [located("chair_2", 0.0, 6.0)]
    rays = [Row(-10.0, 2.0, "chair_1")]
    cands = [WireCandidate(1, 3.0, -10.0), WireCandidate(2, 3.0, 85.0)]
    resp = backend.decide(make_req(rays=rays, candidates=cands, memory=memory))
    assert resp.scores[1] > resp.scores[2]


# -- filtering ---------------------------------------------------------------------


def test_filter_removes_candidates_near_hazards(backend):
    rays = [Row(0.0, 2.0, "sign_1", (), ("hazard",))]
    cands = [WireCandidate(1, 1.8, 0.0),    # lands 0.2 m short of the sign
             WireCandidate(2, 2.0, -40.0)]  # far from it
    resp = backend.decide(make_req(kind=FILTER, rays=rays, candidates=cands))
    assert resp.kind == FILTER
    assert resp.removals == (1,)
    assert resp.adjustments == ()


def test_filter_hazard_padding_covers_hidden_extent(backend):
    # two sightings of one hazard 0.8 m apart: the pad grows with the extent
    rays = [Row(-10.0, 2.0, "sign_1", (), ("hazard",)),
            Row(10.0, 2.2, "sign_1", (), ("hazard",))]
    wide = backend.decide(make_req(kind=FILTER, rays=rays,
                                   candidates=[WireCandidate(1, 3.4, 0.0)]))
    assert wide.removals == (1,)


def test_filter_removes_constraint_keyword_matches(backend):
    rays = [Row(0.0, 3.0, "oven_3"), Row(30.0, 3.0, "chair_1")]
    cands = [WireCandidate(1, 2.4, 1.0), WireCandidate(2, 2.4, 29.0)]
    resp = backend.decide(make_req(kind=FILTER, rays=rays, candidates=cands,
                                   constraints=("stay away from the oven",)))
    assert resp.removals == (1,)


def test_filter_clean_scene_removes_nothing(backend):
    rays = [Row(0.0, 3.0, "chair_1"), Row(20.0, 9.0, None)]
    cands = [WireCandidate(1, 2.4, 0.0), WireCandidate(2, 7.0, 20.0)]
    resp = backend.decide(make_req(kind=FILTER, rays=rays, candidates=cands))
    assert resp.removals == ()
    assert resp.adjustments == ()  # the oracle never nudges, only removes


def reference_filter(backend, req):
    """The filter as first written: each hazard's extent is recomputed per
    candidate, and each candidate scans every ray for its nearest one."""
    ctx = req.context
    removals = []
    hazard_groups, gaps, prev = {}, {}, {}
    rays = rays_of(ctx)
    for ray in rays:
        if ray.label and "hazard" in ray.tags:
            pt = backend._endpoint(ctx.pose, ray.theta, ray.depth)
            hazard_groups.setdefault(ray.label, []).append(pt)
            if ray.label in prev:
                gap = math.dist(prev[ray.label], pt)
                gaps[ray.label] = max(gaps.get(ray.label, 0.0), gap)
            prev[ray.label] = pt
    constraint_words = set()
    for c in ctx.constraints:
        constraint_words |= _tokens(c)
    for cand in req.candidates:
        cx, cy = backend._endpoint(ctx.pose, cand.theta_deg, cand.r_m)
        hit = False
        for label, pts in hazard_groups.items():
            extent = max(math.dist(p, q) for p in pts for q in pts) if len(pts) > 1 else 0.0
            pad = extent + 2.0 * gaps.get(label, 0.0) + 0.05
            if min(math.dist((cx, cy), p) for p in pts) <= backend.hazard_clearance + pad:
                hit = True
                break
        if not hit and constraint_words:
            ray = min(rays, key=lambda r: abs(r.theta - cand.theta_deg))
            if ray.label and ray.label != "wall" and _tokens(ray.label) & constraint_words:
                hit = True
        if hit:
            removals.append(cand.id)
    return tuple(removals)


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e)


# the wire parser refuses NaN and +-inf, but a request built in-process may
# hold them, so they reach the filter; a small pool makes duplicate thetas
# common.  An infinite theta on a hazard ray makes both filters raise, so the
# special values come rarely.
_thetas = st.one_of(st.floats(-200.0, 200.0), st.floats(-60.0, 60.0),
                    st.sampled_from((-30.0, 0.0, 12.5, 90.0)),
                    st.sampled_from((math.nan, math.inf, -math.inf, 0.0, 5.0, 10.0)))
_rays = st.lists(st.builds(
    Row, _thetas, st.one_of(st.floats(0.05, 5.0), st.just(math.nan)),
    st.sampled_from((None, "wall", "sign_1", "sign_2", "oven_3", "cone_4", "chair_1")),
    st.just(()), st.sampled_from(((), ("hazard",)))), max_size=40)
_cands = st.lists(st.builds(WireCandidate, st.integers(0, 40), st.floats(0.1, 5.0),
                            st.floats(-180.0, 180.0)), max_size=30)
_constraints = st.sampled_from(((), ("stay away from the oven",), ("avoid sign and cone",)))


@settings(max_examples=400, deadline=None)
@given(rays=_rays, cands=_cands, constraints=_constraints,
       pose=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-180.0, 180.0)))
@example(rays=[Row(math.nan, 3.0, "chair_1"), Row(0.0, 3.0, "oven_3")],
         cands=[WireCandidate(1, 2.0, 0.0)], constraints=("stay away from the oven",),
         pose=(0.0, 0.0, 0.0))
@example(rays=[Row(0.0, 3.0, "oven_3"), Row(math.nan, 3.0, "chair_1"),
               Row(0.0, 3.0, "chair_1"), Row(math.inf, 3.0, "oven_3")],
         cands=[WireCandidate(1, 2.0, 5.0)], constraints=("stay away from the oven",),
         pose=(0.0, 0.0, 0.0))
@example(rays=[], cands=[WireCandidate(1, 2.0, 5.0)], constraints=("stay away from the oven",),
         pose=(0.0, 0.0, 0.0))
def test_filter_matches_reference(rays, cands, constraints, pose):
    backend = OracleBackend.from_config(RunConfig())
    req = make_req(kind=FILTER, rays=rays, candidates=cands, constraints=constraints,
                   pose=pose)
    want = outcome(reference_filter, backend, req)
    # where the reference's ``min`` finds no ray, the oracle names the request bad
    want = SchemaViolation if want is ValueError else want
    got = outcome(lambda r: backend.decide(r).removals, req)
    assert got == want



# hazard layouts: up to 120 sightings of two hazards, often on shared bearings
# and depths so that points repeat, some so far out that the difference of two
# points overflows to inf
_hazard_rays = st.lists(st.builds(
    Row, st.one_of(st.floats(-90.0, 90.0), st.sampled_from((-45.0, 0.0, 30.0, 180.0))),
    st.one_of(st.floats(0.05, 5.0), st.sampled_from((1.0, 2.0, 1.5e308))),
    st.sampled_from(("sign_1", "cone_2")), st.just(()), st.just(("hazard",))),
    min_size=1, max_size=120)


@settings(max_examples=150, deadline=None)
@given(rays=_hazard_rays, cands=_cands, clearance=st.sampled_from((0.0, 0.45, 0.5)),
       pose=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-180.0, 180.0)))
@example(rays=[Row(0.0, 2.0, "sign_1", (), ("hazard",))],  # one point, candidates at reach
         cands=[WireCandidate(1, 1.5, 0.0), WireCandidate(2, 2.5, 0.0),
                WireCandidate(3, math.nextafter(1.5, 0.0), 0.0)],
         clearance=0.45, pose=(0.0, 0.0, 0.0))
@example(rays=[Row(30.0, 2.0, "sign_1", (), ("hazard",))] * 3,  # duplicates: extent 0.0
         cands=[WireCandidate(1, 1.5, 30.0)], clearance=0.45, pose=(1.0, -1.0, 0.0))
@example(rays=[Row(0.0, 1.5e308, "sign_1", (), ("hazard",)),  # 3e308 apart: extent inf
               Row(180.0, 1.5e308, "sign_1", (), ("hazard",))],
         cands=[WireCandidate(1, 1.0, 90.0)], clearance=0.5, pose=(0.0, 0.0, 0.0))
def test_hazard_filter_matches_double_loop(rays, cands, clearance, pose):
    """The filter's C-level pair and nearest-point scans keep the bits of the
    double loops they replaced, on hazard layouts alone."""
    backend = OracleBackend.from_config(RunConfig(hazard_clearance_m=clearance))
    req = make_req(kind=FILTER, rays=rays, candidates=cands, pose=pose)
    assert outcome(backend._removals, req.context, req.candidates) == \
        outcome(reference_filter, backend, req)


def test_hazard_filter_keeps_its_reach_inclusive():
    # one sighting at (2, 0): reach is 0.45 + 0.05 = 0.5 exactly, and a
    # candidate that lands exactly 0.5 m away is removed
    backend = OracleBackend.from_config(RunConfig(hazard_clearance_m=0.45))
    cands = [WireCandidate(1, 1.5, 0.0), WireCandidate(2, 2.5, 0.0),
             WireCandidate(3, math.nextafter(1.5, 0.0), 0.0)]
    req = make_req(kind=FILTER, rays=[Row(0.0, 2.0, "sign_1", (), ("hazard",))],
                   candidates=cands)
    assert backend.decide(req).removals == (1, 2)


# -- requests the parser accepts ------------------------------------------------------

# JSON values of any shape
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
              st.sampled_from(("chair_1", "hazard", "red", "wall", "sign_2"))),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(("hazard", "red", "k")), inner,
                                            max_size=2)),
    max_leaves=5)
# finite ray numbers, as JSON integers or floats, up to the largest floats
_ray_number = st.one_of(st.floats(-400.0, 400.0), st.floats(-1e308, 1e308),
                        st.integers(-10 ** 6, 10 ** 6))
_hit_entry = st.fixed_dictionaries({
    "label": st.sampled_from((None, "wall", "chair_1", "chair_2", "sign_1", "oven_3", "")),
    "attributes": st.lists(st.sampled_from(("red", "wooden", "hazard")), max_size=2),
    "tags": st.lists(st.sampled_from(("hazard", "red")), max_size=2)})
# values the parser refuses somewhere in the hit column or a hits entry, and
# in a packed column
_bad_value = st.one_of(st.floats() | st.booleans(), _json,
                       st.sampled_from(("1e400", "-inf", "nan", "7.5", " 3 ", -1, 9)))
_bad_float = st.sampled_from((math.nan, math.inf, -math.inf))
# lone surrogates are valid in a JSON string
_text = st.text(st.one_of(st.characters(), st.characters(categories=("Cs",))), max_size=6)
_finite = st.floats(-1e6, 1e6)
# a pose may be anywhere in the float range: added to a ray's numbers, it
# can reach past the largest float
_pose_number = st.one_of(_finite, st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from((1.7e308, -1.7976931348623157e308)))


@st.composite
def _observation(draw):
    """A valid observation of up to 8 rays; one time in four, one value of
    its columns or hits is replaced by one the parser refuses."""
    hits = draw(st.lists(_hit_entry, min_size=1, max_size=4))
    n = draw(st.integers(0, 8))
    rays = {"theta_deg": list(map(float, draw(st.lists(_ray_number, min_size=n, max_size=n)))),
            "distance_m": list(map(float, draw(st.lists(_ray_number, min_size=n, max_size=n)))),
            "hit": draw(st.lists(st.integers(0, len(hits) - 1), min_size=n, max_size=n))}
    if draw(st.integers(0, 3)) == 0:
        column, i = draw(st.sampled_from(sorted(rays))), draw(st.integers(0, 8))
        if i < n:
            rays[column][i] = draw(_bad_value if column == "hit" else _bad_float)
        else:
            key = draw(st.sampled_from(("label", "attributes", "tags")))
            draw(st.sampled_from(hits))[key] = draw(_bad_value)
    rays.update(theta_deg=packed(rays["theta_deg"]), distance_m=packed(rays["distance_m"]))
    return {"pose": draw(st.fixed_dictionaries({"x_m": _pose_number, "y_m": _pose_number,
                                                "heading_deg": _pose_number})),
            "rays": rays, "hits": hits}
_CHAIR = {"kind": "name", "category": "chair"}
_goal = st.one_of(
    st.sampled_from((_CHAIR, {"kind": "description", "category": "chair", "attributes": ["red"]},
                     {"kind": "instance", "attributes": ["red"]},
                     {"kind": "name", "category": "sign"})),
    _json)
# a memory record: a located chair or sign, or one field the parser refuses
_memory_node = st.fixed_dictionaries({
    "name": st.sampled_from(("chair_1", "chair_2", "sign_2", "")) | _json,
    "attributes": st.lists(st.sampled_from(("red", "wooden")), max_size=2) | _json,
    "location_m": st.one_of(st.none(), st.lists(_ray_number, min_size=2, max_size=2),
                            st.sampled_from(([10 ** 400, 2.0], [math.nan, 1.0])), _json)})
_request = st.fixed_dictionaries({
    "version": st.just(PROTOCOL_VERSION),
    "kind": st.sampled_from((FILTER, SCORE, STOP_CHECK)),
    "session_id": _text,
    "step": st.integers(-5, 10 ** 6),
    "goal_text": st.one_of(st.sampled_from(("chair", "chair (red)", "object with red", "")),
                           _text),
    "goal": _goal,
    "observation": _observation(),
    "candidates": st.lists(st.fixed_dictionaries({
        "id": st.integers(0, 20), "r_m": _finite, "theta_deg": _finite}), max_size=4),
    "memory_text": st.one_of(
        st.sampled_from(("", "chair_1 (red) at (3.0, 1.5); sign_2 at (-1.0, 2.0)",
                         "chair_9 at (1" + "0" * 400 + ", 2.0)")), _text),
    "memory": st.lists(_memory_node, max_size=3) | _json,
    "constraints": st.lists(st.sampled_from(("stay away from the oven", "avoid sign_1")),
                            max_size=2),
    "template_id": _text,
}).map(lambda d: {k: v for k, v in d.items()  # a stop check carries no candidates key
                  if not (k == "candidates" and d["kind"] == STOP_CHECK)})
_POSE = {"x_m": 0.0, "y_m": 0.0, "heading_deg": 0.0}


@settings(max_examples=600, deadline=None)
@given(payload=_request)
@example(payload={"version": PROTOCOL_VERSION, "kind": FILTER, "session_id": "s", "step": 0,
                  "goal": _CHAIR,
                  "observation": {"pose": _POSE,
                                  "rays": {"theta_deg": packed([math.inf]),
                                           "distance_m": packed([2.0]),
                                           "hit": [0]},
                                  "hits": [{"label": "sign_1", "attributes": [],
                                            "tags": ["hazard"]}]},
                  "candidates": [{"id": 1, "r_m": 1.0, "theta_deg": 0.0}]})
@example(payload={"version": PROTOCOL_VERSION, "kind": SCORE, "session_id": "s", "step": 0,
                  "goal": _CHAIR,
                  "observation": {"pose": _POSE,
                                  "rays": {"theta_deg": packed([-1.7976931348623157e308]),
                                           "distance_m": packed([1e308]), "hit": [0]},
                                  "hits": [{"label": "chair_1", "attributes": [],
                                            "tags": []}]},
                  "candidates": [{"id": 1, "r_m": 1.0, "theta_deg": 0.0}]})
@example(payload={"version": PROTOCOL_VERSION, "kind": FILTER, "session_id": "s", "step": 0,
                  "goal": _CHAIR,
                  "observation": {"pose": _POSE,
                                  "rays": {"theta_deg": packed([]),
                                           "distance_m": packed([]), "hit": []},
                                  "hits": []},
                  "candidates": [{"id": 1, "r_m": 1.0, "theta_deg": 0.0}],
                  "constraints": ["stay away from the oven"]})
@example(payload={"version": PROTOCOL_VERSION, "kind": FILTER, "session_id": "s", "step": 0,
                  "goal": _CHAIR,
                  "observation": {"pose": {**_POSE, "heading_deg": -1.7976931348623157e308},
                                  "rays": {"theta_deg": packed([-1.7976931348623157e308]),
                                           "distance_m": packed([2.0]), "hit": [0]},
                                  "hits": [{"label": "sign_1", "attributes": [],
                                            "tags": ["hazard"]}]},
                  "candidates": [{"id": 1, "r_m": 1.0, "theta_deg": 0.0}]})
@example(payload={"version": PROTOCOL_VERSION, "kind": SCORE, "session_id": "s", "step": 0,
                  "goal": _CHAIR,
                  "observation": {"pose": {**_POSE, "x_m": 1.7e308},
                                  "rays": {"theta_deg": packed([0.0]),
                                           "distance_m": packed([1.7e308]),
                                           "hit": [0]},
                                  "hits": [{"label": "chair_1", "attributes": [],
                                            "tags": []}]},
                  "candidates": [{"id": 1, "r_m": 1.0, "theta_deg": 0.0}]})
@example(payload={"version": PROTOCOL_VERSION, "kind": SCORE, "session_id": "s", "step": 0,
                  "goal": _CHAIR,
                  "observation": {"pose": {**_POSE, "x_m": -1.7e308},
                                  "rays": {"theta_deg": packed([0.0]),
                                           "distance_m": packed([1.0]),
                                           "hit": [0]},
                                  "hits": [{"label": None, "attributes": [], "tags": []}]},
                  "candidates": [{"id": 1, "r_m": 1.0, "theta_deg": 0.0}],
                  "memory": [{"name": "chair_1", "location_m": [1.7e308, 0.0]},
                             {"name": "chair_2", "location_m": [0.0, 0.0]}]})
def test_decide_returns_or_raises_schema_violation_on_any_parsed_request(payload):
    """A request the server's parser accepts either gets a reply that encodes
    as strict JSON, or is refused as a schema violation, never another
    exception."""
    try:
        req = DecisionRequest.from_dict(payload)
    except SchemaViolation:
        return
    try:
        reply = OracleBackend.from_config(RunConfig()).decide(req)
    except SchemaViolation:
        return
    json.dumps(reply.to_dict(), allow_nan=False)


# -- stop check --------------------------------------------------------------------


def test_stop_confidence_requires_goal_within_threshold(backend):
    near = make_req(kind=STOP_CHECK, rays=[Row(5.0, 0.29, "chair_1")])
    far = make_req(kind=STOP_CHECK, rays=[Row(5.0, 0.31, "chair_1")])
    none = make_req(kind=STOP_CHECK, rays=[Row(5.0, 0.2, "table_1")])
    assert backend.decide(near).s_stop == 1.0
    assert backend.decide(far).s_stop == 0.0
    assert backend.decide(none).s_stop == 0.0
    assert backend.decide(near).kind == STOP_CHECK


def test_score_replies_rate_stop_confidence(backend):
    cands = [WireCandidate(1, 1.0, 0.0)]
    near = make_req(rays=[Row(5.0, 0.29, "chair_1")], candidates=cands)
    far = make_req(rays=[Row(5.0, 0.31, "chair_1")], candidates=cands)
    none = make_req(rays=[Row(5.0, 0.2, "table_1")], candidates=cands)
    assert backend.decide(near).s_stop == 1.0
    assert backend.decide(far).s_stop == 0.0
    assert backend.decide(none).s_stop == 0.0


def stop_confidences(backend, req):
    """The s_stop of a score reply and of a stop_check reply on the context
    of ``req``, which may be of any kind."""
    scored = backend.decide(replace(req, kind=SCORE))
    checked = backend.decide(replace(req, kind=STOP_CHECK, candidates=()))
    return scored.s_stop, checked.s_stop


@settings(max_examples=300, deadline=None)
@given(payload=_request)
@example(payload={"version": PROTOCOL_VERSION, "kind": SCORE, "session_id": "s", "step": 0,
                  "goal_text": "chair (red)",
                  "goal": {"kind": "description", "category": "chair", "attributes": ["red"]},
                  "observation": {"pose": _POSE,
                                  "rays": {"theta_deg": packed([-3.0, 4.0]),
                                           "distance_m": packed([0.2, 0.25]),
                                           "hit": [0, 1]},
                                  "hits": [{"label": "chair_1", "attributes": [], "tags": []},
                                           {"label": "chair_2", "attributes": ["red"],
                                            "tags": []}]},
                  "candidates": [{"id": 1, "r_m": 1.0, "theta_deg": 0.0}]})
def test_score_and_stop_check_agree_on_stop_confidence(payload):
    """On any context the server's parser accepts, a score reply carries the
    s_stop that a stop_check reply on that context carries."""
    try:
        req = DecisionRequest.from_dict(payload)
    except SchemaViolation:
        return
    try:
        scored, checked = stop_confidences(OracleBackend.from_config(RunConfig()), req)
    except SchemaViolation:
        return
    assert scored == checked


def test_score_and_stop_check_agree_on_every_step_of_a_spec():
    cfg = RunConfig()
    oracle = OracleBackend.from_config(cfg)
    pairs = []

    class Comparing:
        def decide(self, req):
            if req.kind != FILTER:
                pairs.append(stop_confidences(oracle, req))
            return oracle.decide(req)

    for spec in load_episode_specs(str(SPEC), cfg):
        run_episode(spec, Comparing(), cfg)
    assert len(pairs) == 40  # one per step of the spec's five episodes
    assert all(scored == checked for scored, checked in pairs)
    assert sum(scored == 1.0 for scored, _ in pairs) >= 5  # each episode's stop


# -- memory operations on score replies ---------------------------------------------


def test_memory_ops_add_nodes_at_ray_endpoints(backend):
    rays = [Row(0.0, 2.0, "chair_1", ("red",)), Row(90.0, 3.0, "wall"),
            Row(45.0, 9.0, None)]
    resp = backend.decide(make_req(kind=SCORE, rays=rays, pose=(1.0, 1.0, 0.0)))
    assert resp.kind == SCORE
    assert len(resp.memory_ops) == 1
    op = resp.memory_ops[0]
    assert op.op == "add_node" and op.name == "chair_1"
    assert op.attributes == ("red",)
    assert op.location[0] == pytest.approx(3.0)
    assert op.location[1] == pytest.approx(1.0)


def test_memory_ops_keep_nearest_sighting(backend):
    rays = [Row(0.0, 2.0, "chair_1"), Row(2.0, 1.5, "chair_1")]
    resp = backend.decide(make_req(kind=SCORE, rays=rays))
    assert len(resp.memory_ops) == 1
    assert math.hypot(*resp.memory_ops[0].location) == pytest.approx(1.5)


def test_memory_ops_adjacency_edge(backend):
    # endpoints 0.4 m apart: adjacent; a third object far away is not linked
    rays = [Row(0.0, 2.0, "chair_1"), Row(11.0, 2.1, "table_1"),
            Row(-60.0, 6.0, "sofa_1")]
    resp = backend.decide(make_req(kind=SCORE, rays=rays))
    edges = [op for op in resp.memory_ops if op.op == "add_edge"]
    assert len(edges) == 1
    assert (edges[0].start, edges[0].target) == ("chair_1", "table_1")
    assert edges[0].relation == "next to"
    a = next(op for op in resp.memory_ops if op.name == "chair_1")
    b = next(op for op in resp.memory_ops if op.name == "table_1")
    assert math.dist(a.location, b.location) <= 1.0


def test_score_requests_also_emit_memory_ops(backend):
    rays = [Row(0.0, 2.0, "chair_1")]
    resp = backend.decide(make_req(rays=rays, candidates=[WireCandidate(1, 1.6, 0.0)]))
    assert any(op.op == "add_node" and op.name == "chair_1" for op in resp.memory_ops)


# -- plumbing ---------------------------------------------------------------------


def test_oracle_is_deterministic(backend):
    req = make_req(candidates=[WireCandidate(1, 2.0, 0.0), WireCandidate(2, 3.0, 30.0)],
                   rays=[Row(0.0, 5.0, "wall")], session="fixed", step=9)
    assert backend.decide(req) == backend.decide(req)


def test_oracle_rejects_a_bad_kind(backend):
    with pytest.raises(SchemaViolation):
        backend.decide(make_req(kind="prophecy"))
    # memory operations come back on score replies; there is no kind for them
    with pytest.raises(SchemaViolation, match="unknown request kind"):
        backend.decide(make_req(kind="memory_extract"))
