"""Step policy: one request per step, the filter on the score reply, scoring,
the two-consecutive-step stop rule, and fallbacks."""
import math
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynav import episodes, policy
from dynav.backends import protocol
from dynav.backends.oracle import OracleBackend
from dynav.backends.protocol import (
    FILTER,
    SCORE,
    STOP_CHECK,
    DecisionResponse,
    MemoryOp,
    WireNode,
    request_context,
)
from dynav.config import RunConfig
from dynav.episodes import load_episode_specs, run_episode
from dynav.errors import BackendUnavailable
from dynav.geometry import PolarAction
from dynav.goals import GoalSpec
from dynav.memory import MemoryGraph
from dynav.geometry import AgentBody
from dynav.policy import (
    AgentState,
    apply_memory_ops,
    memory_cut,
    memory_excerpt,
    pick_best,
    propose,
    select_action,
    step,
)
from dynav.proposer import (Adjustment, Boundary, Candidate, CandidateSet, boundary,
                            sample_initial)
from dynav.sensing import sense
from dynav.world import SemanticObject

from conftest import empty_world, make_pose, points_of


class Scripted:
    """Backend stub: fixed candidate scores, removals and adjustments plus a
    queue of stop confidences, one per step, answered on the score reply or,
    for a step with nothing to score, on the stop check."""

    def __init__(self, scores=None, stops=(), memory_ops=(), fail=False, removals=(),
                 adjustments=()):
        self.scores = scores
        self.stops = list(stops)
        self.memory_ops = tuple(memory_ops)
        self.fail = fail
        self.removals = tuple(removals)
        self.adjustments = tuple(adjustments)
        self.kinds = []

    def decide(self, req):
        self.kinds.append(req.kind)
        if self.fail:
            raise BackendUnavailable("scripted outage")
        s = self.stops.pop(0) if self.stops else 0.0
        if req.kind == STOP_CHECK:
            return DecisionResponse(kind=STOP_CHECK, s_stop=s)
        scores = self.scores
        if scores is None:
            scores = {c.id: c.r_m / 10.0 for c in req.candidates}
        return DecisionResponse(kind=SCORE, removals=self.removals,
                                adjustments=self.adjustments, scores=dict(scores), s_stop=s,
                                memory_ops=self.memory_ops)


def ctx_of(obs):
    return request_context(obs, session_id="s", goal=GoalSpec.name_goal("chair"))


def select_with(candidates, obs, backend, cfg, streak, depths=()):
    """select_action on a hand-made candidate set: (decision, survivors, memory ops).
    The set's boundary lies on ``obs``'s fan, with ray i at ``depths[i]`` for
    each depth given."""
    points = Boundary(obs.fan, np.arange(len(depths)), np.array(depths, dtype=float))
    cset = CandidateSet(tuple(candidates), alpha=0.8, theta_delta=math.radians(15.0),
                        points=points)
    return select_action(ctx_of(obs), cset, backend, cfg, streak)


@pytest.fixture
def obs(box_world, body):
    return sense(box_world, make_pose(5.0, 4.0, 0.0), body, n_rays=21)


def drive_stops(obs, stops, tau):
    """Feed a stop-confidence sequence through select_action; return stop step or None."""
    cfg = RunConfig(tau_stop=tau)
    backend = Scripted(stops=list(stops))
    streak = 0
    for i in range(len(stops)):
        decision = select_with([Candidate(1, 2.0, 0.0)], obs, backend, cfg, streak)[0]
        streak = decision.stop_streak
        if decision.chosen.stop:
            return i
    return None


def test_stop_needs_two_consecutive_exceedances(obs):
    tau = 0.6
    assert drive_stops(obs, [0.7, 0.7], tau) == 1
    assert drive_stops(obs, [0.7, 0.5, 0.7, 0.7], tau) == 3
    assert drive_stops(obs, [0.7, 0.5, 0.7, 0.5], tau) is None
    # exactly tau does not count: the rule is strictly greater
    assert drive_stops(obs, [0.6, 0.6, 0.6], tau) is None
    assert drive_stops(obs, [1.0], tau) is None


def test_pick_best_breaks_ties_low_id():
    assert pick_best({3: 0.5, 1: 0.9, 2: 0.9}) == 1
    assert pick_best({7: 0.0}) == 7


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(1, 30), st.floats(0.0, 1.0), min_size=1, max_size=10))
def test_pick_best_is_argmax(scores):
    best = pick_best(scores)
    assert scores[best] == max(scores.values())
    assert all(i >= best for i, s in scores.items() if s == scores[best])


def test_select_action_picks_highest_score(obs):
    cands = [Candidate(1, 1.0, -0.3), Candidate(2, 4.0, 0.0), Candidate(3, 2.0, 0.3)]
    decision = select_with(cands, obs, Scripted(), RunConfig(), 0)[0]
    assert decision.chosen == PolarAction(4.0, 0.0)
    assert not decision.fallback
    assert decision.scores[2] == pytest.approx(0.4)


def test_select_action_fills_missing_scores(obs):
    cands = [Candidate(1, 1.0, -0.3), Candidate(2, 4.0, 0.0)]
    backend = Scripted(scores={1: 0.3})
    decision = select_with(cands, obs, backend, RunConfig(), 0)[0]
    assert decision.scores == {1: 0.3, 2: 0.0}
    assert decision.chosen.r == pytest.approx(1.0)


def test_select_action_backend_failure_degrades(obs):
    cands = [Candidate(1, 1.0, 0.0)]
    decision, kept, ops = select_with(cands, obs, Scripted(fail=True), RunConfig(), 1)
    assert decision.fallback and decision.backend_failed
    assert len(kept) == 0  # no candidate was cleared
    assert decision.stop_streak == 1  # failure leaves the streak unchanged
    assert decision.chosen.r == 0.0
    assert decision.chosen.theta == pytest.approx(math.radians(15.0))
    assert ops == ()


def test_select_action_no_candidates_rotates(obs):
    decision = select_with([], obs, Scripted(stops=[0.9]), RunConfig(), 0)[0]
    assert decision.fallback and not decision.backend_failed
    assert decision.chosen.r == 0.0
    assert decision.s_stop == 0.9
    assert decision.stop_streak == 1  # the stop check still ran


def test_select_action_stop_wins_over_scores(obs):
    cands = [Candidate(1, 5.0, 0.0)]
    backend = Scripted(stops=[0.9, 0.9])
    streak = select_with(cands, obs, backend, RunConfig(), 0)[0].stop_streak
    decision = select_with(cands, obs, backend, RunConfig(), streak)[0]
    assert decision.chosen.stop
    assert decision.stop_streak == 2


def test_select_action_is_deterministic(obs):
    cands = [Candidate(1, 1.0, -0.3), Candidate(2, 4.0, 0.0)]
    a = select_with(cands, obs, Scripted(), RunConfig(), 0)
    b = select_with(cands, obs, Scripted(), RunConfig(), 0)
    assert a == b


def test_a_removed_candidate_is_never_chosen(obs):
    # the reply rates the candidate it removes highest: its score is ignored
    cands = [Candidate(1, 1.0, -0.3), Candidate(2, 4.0, 0.0), Candidate(3, 2.0, 0.3)]
    backend = Scripted(scores={1: 0.2, 2: 1.0, 3: 0.4}, removals=[2])
    decision, kept, _ = select_with(cands, obs, backend, RunConfig(), 0)
    assert backend.kinds == [SCORE]
    assert [c.id for c in kept.candidates] == [1, 3]
    assert decision.scores == {1: 0.2, 3: 0.4}
    assert decision.chosen == PolarAction(2.0, 0.3)
    # a reply that removes every candidate rotates, with its stop confidence
    backend = Scripted(scores={1: 1.0, 2: 1.0, 3: 1.0}, removals=[1, 2, 3], stops=[0.9])
    decision, kept, _ = select_with(cands, obs, backend, RunConfig(), 0)
    assert len(kept) == 0 and decision.scores == {}
    assert decision.fallback and not decision.backend_failed
    assert decision.chosen == PolarAction(0.0, math.radians(15.0))
    assert decision.s_stop == 0.9 and decision.stop_streak == 1


def adjustment_set(obs):
    """Four candidates 0.35 rad or more apart on a boundary of 5 m, except
    1 m on ray 9 (about -0.114 rad), with ids 1..4 at -0.5, 0.0, 0.35 and
    just inside the right edge of the field of view; the boundary's depths
    come second."""
    depths = [1.0 if i == 9 else 5.0 for i in range(obs.n_rays)]
    cands = [Candidate(1, 4.0, -0.5), Candidate(2, 4.0, 0.0), Candidate(3, 4.0, 0.35),
             Candidate(4, 4.0, obs.fan.fov / 2 - 0.02)]
    return cands, depths


@pytest.mark.parametrize("adj, moved", [
    (Adjustment(2, 3.0, 0.05), True),    # within every clamp
    (Adjustment(2, 4.5, 0.0), False),    # range: longer than the candidate
    (Adjustment(2, -1.0, 0.0), False),   # range: not positive
    (Adjustment(1, 3.0, -0.36), False),  # bearing: moves more than theta_delta / 2
    (Adjustment(4, 3.0, None), False),   # field of view: past its edge
    (Adjustment(2, 3.0, -0.08), False),  # boundary: the 1 m ray lies within one ray gap
    (Adjustment(2, 3.0, 0.12), False),   # separation: closer than theta_delta to id 3
], ids=["within", "range", "positive", "bearing", "fov", "boundary", "separation"])
def test_an_adjustment_moves_its_candidate_within_the_clamps_and_keeps_its_score(
        obs, adj, moved):
    """A score reply's adjustment that keeps every clamp moves its candidate;
    one that breaks a clamp leaves the original.  Either way the candidate
    keeps its score."""
    if adj.theta is None:
        adj = adj._replace(theta=obs.fan.fov / 2 + 0.02)
    cands, depths = adjustment_set(obs)
    scores = {c.id: 0.9 if c.id == adj.id else 0.1 * c.id for c in cands}
    backend = Scripted(scores=scores, adjustments=[adj])
    decision, kept, _ = select_with(cands, obs, backend, RunConfig(), 0, depths=depths)
    before = {c.id: c for c in cands}
    after = {c.id: c for c in kept.candidates}
    expected = Candidate(adj.id, adj.r, adj.theta) if moved else before[adj.id]
    assert after == {**before, adj.id: expected}
    assert decision.scores == scores
    assert decision.chosen == PolarAction(expected.r, expected.theta)


# -- memory plumbing -------------------------------------------------------------


def test_description_goal_excerpt_holds_only_nodes_with_its_attributes():
    mem = MemoryGraph()
    mem.add_node("chair_1", ["red"], (1.0, 2.0), step=1)
    mem.add_node("chair_2", ["blue"], (3.0, 4.0), step=2)
    mem.add_node("table_1", [], (5.0, 6.0), step=3)
    mem.add_edge("chair_2", "table_1", "next to")
    red = memory_cut(mem, GoalSpec("description", "chair", ("red",)), RunConfig())
    assert red == [mem.nodes["chair_1"]]
    blue = memory_cut(mem, GoalSpec("description", "chair", ("blue",)), RunConfig())
    assert blue == [mem.nodes["table_1"], mem.edges[("chair_2", "table_1", "next to")],
                    mem.nodes["chair_2"]]


def test_memory_excerpt_respects_toggle():
    mem = MemoryGraph()
    mem.add_node("chair_1", ["red"], (1.0, 2.0), step=1)
    goal = GoalSpec.name_goal("chair")
    assert memory_cut(None, goal, RunConfig()) == []
    assert memory_cut(mem, goal, RunConfig(memory_enabled=False)) == []
    assert memory_excerpt([]) == ""
    cut = memory_cut(mem, goal, RunConfig())
    assert cut == [mem.nodes["chair_1"]]
    assert memory_excerpt(cut) == "chair_1 (red) at (1.0, 2.0)."


def test_memory_cut_keeps_the_goals_excerpt_within_the_budget():
    mem = MemoryGraph()
    for step in range(5):
        mem.add_node(f"chair_{step}", [], (float(step), 0.0), step=step)
    mem.add_node("table_1", [], (9.0, 9.0), step=9)
    mem.add_edge("chair_4", "table_1", "next to")
    cfg = RunConfig(memory_budget=3, memory_hops=1)
    cut = memory_cut(mem, GoalSpec.name_goal("chair"), cfg)
    assert cut == [mem.nodes["table_1"], mem.edges[("chair_4", "table_1", "next to")],
                   mem.nodes["chair_4"]]
    assert memory_excerpt(cut) == "table_1 at (9.0, 9.0). chair_4 is next to table_1. " \
                                  "chair_4 at (4.0, 0.0)."


def test_apply_memory_ops_skips_malformed():
    mem = MemoryGraph()
    ops = [
        MemoryOp(op="add_node", name="chair_1", attributes=("red",), location=(1.0, 2.0)),
        MemoryOp(op="add_edge", start="chair_1", target="chair_1", relation="near"),  # self loop
        MemoryOp(op="add_edge", start="chair_1", target="table_1", relation="next to"),
    ]
    apply_memory_ops(mem, ops, step_index=4, agent="run1")
    assert mem.nodes["chair_1"].last_seen == 4
    assert mem.nodes["chair_1"].source_agent == "run1"
    assert ("chair_1", "table_1", "next to") in mem.edges
    assert ("chair_1", "chair_1", "near") not in mem.edges


# -- proposal, and the filter on the score reply -----------------------------------


def test_propose_samples_the_boundary_without_a_backend_call(box_world, body, run_cfg):
    obs = sense(box_world, make_pose(5.0, 4.0, 0.0), body, n_rays=21)
    points = boundary(obs)
    out = propose(obs, run_cfg)
    assert out == sample_initial(points, run_cfg.alpha, run_cfg.theta_delta, run_cfg.r_min)
    assert len(out) > 0 and points_of(out.points) == points_of(points)


SIGN = SemanticObject(name="sign_1", category="sign", center=(5.0, 1.2), radius=0.25,
                      attributes=("yellow",), tags=frozenset({"hazard"}))


class HazardSeeker:
    """The oracle, except that every score it sends rates the candidates the
    oracle's filter rule removes 1.0.  When ``flaky``, the first call of each
    step raises BackendUnavailable."""

    def __init__(self, cfg, flaky):
        self.oracle = OracleBackend.from_config(cfg)
        self.flaky = flaky
        self.called = set()  # steps that have made a call

    def decide(self, req):
        first = req.context.step not in self.called
        self.called.add(req.context.step)
        if self.flaky and first:
            raise BackendUnavailable("scripted outage")
        resp = self.oracle.decide(req)
        if req.kind != SCORE:
            return resp
        removed = self.oracle.decide(replace(req, kind=FILTER)).removals
        return replace(resp, scores={**resp.scores, **dict.fromkeys(removed, 1.0)})


@pytest.mark.parametrize("flaky", [True, False], ids=["failed call", "removed scored 1.0"])
def test_no_removed_or_unfiltered_candidate_is_ever_chosen(flaky):
    """Twelve steps facing a hazard sign in front of a wall, with a backend
    that rates the candidates near the sign highest.  When the step's call
    fails, the step rotates in place; when it is answered, the agent never
    takes a candidate the filter rule removes."""
    cfg = RunConfig()
    world = empty_world(10.0, 8.0, objects=[SIGN])
    body = AgentBody(radius=cfg.agent_radius, max_sense=cfg.d_max)
    backend = HazardSeeker(cfg, flaky)
    constraints = ("avoid the caution sign",)
    removed_total = 0
    for i in range(12):
        pose = make_pose(3.5 + 0.3 * i, 3.5, -90.0 + 5.0 * (i - 6))
        out = step(AgentState(pose=pose, step_index=i), world, None,
                   GoalSpec.name_goal("chair"), backend, cfg, constraints=constraints,
                   session_id="s")
        obs = out.observation
        initial = sample_initial(boundary(obs), cfg.alpha, cfg.theta_delta, cfg.r_min)
        ctx = request_context(obs, "s", GoalSpec.name_goal("chair"), constraints=constraints)
        removed = set(backend.oracle.decide(
            protocol.make_filter_request(ctx, initial)).removals)
        removed_total += len(removed)
        unsafe = {(c.r, c.theta) for c in initial.candidates if c.id in removed}
        chosen = out.decision.chosen
        assert (chosen.r, chosen.theta) not in unsafe
        if flaky:
            assert out.decision.fallback and out.decision.backend_failed
            assert chosen == PolarAction(0.0, cfg.theta_delta)
            assert len(out.candidates) == 0
            assert (out.state.pose.x, out.state.pose.y) == (pose.x, pose.y)
        else:
            assert not out.decision.fallback
            assert not removed & {c.id for c in out.candidates.candidates}
    assert removed_total >= 12  # the filter rule removes a candidate at every step


def test_a_step_sends_one_score_request_with_its_context(box_world):
    """A step with candidates sends one request: a score request holding the
    step's context (identity, memory excerpt, constraints) and the goal's
    template.  Its reply carries the filter and the stop confidence, so no
    filter request or stop check is sent."""
    cfg = RunConfig(n_rays=31)
    mem = MemoryGraph()
    mem.add_node("chair_9", [], (3.0, 3.0), step=1)
    seen = []

    class Recording(Scripted):
        def decide(self, req):
            seen.append(req)
            return super().decide(req)

    step(AgentState(pose=make_pose(2.0, 4.0, 0.0), step_index=7), box_world, mem,
         GoalSpec.name_goal("chair"), Recording(), cfg,
         constraints=("keep right",), session_id="ep1")
    assert [r.kind for r in seen] == [SCORE]
    ctx = seen[0].context
    assert (ctx.session_id, ctx.step, ctx.goal_text, ctx.memory_text, ctx.constraints) == (
        "ep1", 7, "chair", "chair_9 at (3.0, 3.0).", ("keep right",))
    assert seen[0].template_id == "goal-name/3"
    assert ctx.goal == GoalSpec.name_goal("chair")
    assert ctx.memory == (WireNode("chair_9", (), (3.0, 3.0)),)
    assert seen[0].to_dict()["version"] == "dynav/6"


def test_step_without_traversable_ray_checks_stop_and_rotates(box_world):
    """A step whose every ray falls short of ``r_min`` samples no candidate:
    one stop check, no score request, and a rotation by theta_delta."""
    cfg = RunConfig(n_rays=31, r_min=100.0)
    backend = Scripted(stops=[0.5])
    state = AgentState(pose=make_pose(5.0, 4.0, 0.0))
    out = step(state, box_world, None, GoalSpec.name_goal("chair"), backend, cfg)
    assert backend.kinds == [STOP_CHECK]
    assert len(out.candidates) == 0
    assert out.decision.fallback and out.decision.s_stop == 0.5
    assert out.decision.chosen == PolarAction(0.0, cfg.theta_delta)
    assert out.state.pose.heading == pytest.approx(cfg.theta_delta)
    assert (out.state.pose.x, out.state.pose.y) == (5.0, 4.0)


SPEC = Path(__file__).resolve().parent.parent / "specs" / "objectnav_small.json"


class KindRecorder:
    """The oracle, recording the request kinds each step sends.  Its score
    reply removes every candidate on steps 3, 10, 17, ... of an episode, and
    the first score request of an episode that follows a confident reply is
    refused as unavailable."""

    def __init__(self, cfg):
        self.oracle = OracleBackend.from_config(cfg)
        self.tau = cfg.tau_stop
        self.kinds = defaultdict(list)  # (session, step) -> kinds sent
        self.confident = set()  # sessions whose last stop confidence exceeded tau
        self.failed = {}  # session -> the step whose score call failed
        self.s_stop = {}  # (session, step) -> the stop confidence replied

    def decide(self, req):
        ctx = req.context
        self.kinds[ctx.session_id, ctx.step].append(req.kind)
        if (req.kind == SCORE and ctx.session_id in self.confident
                and ctx.session_id not in self.failed):
            self.failed[ctx.session_id] = ctx.step
            raise BackendUnavailable("scripted outage")
        resp = self.oracle.decide(req)
        if req.kind == SCORE and ctx.step % 7 == 3:
            resp = replace(resp, removals=req.candidate_ids())
        self.s_stop[ctx.session_id, ctx.step] = resp.s_stop
        (self.confident.add if resp.s_stop > self.tau
         else self.confident.discard)(ctx.session_id)
        return resp


def test_request_kinds_sent_by_each_step(monkeypatch):
    """Over the objectnav spec, every step sends exactly one request.  A step
    with candidates sends score, whose reply carries the filter and the stop
    confidence; a step whose reply removed every candidate rotates with that
    reply's confidence; a step that sampled no candidate (here steps 5, 12,
    19, ..., whose candidates are blanked) sends only stop_check; and a score call
    that fails falls back, leaves the stop streak unchanged and sends
    nothing more."""
    cfg = RunConfig()
    outcomes = {}  # (session, step) -> (stop streak before the step, outcome)

    def recorded_step(state, world, mem, goal, backend, cfg, **kw):
        out = step(state, world, mem, goal, backend, cfg, **kw)
        outcomes[kw["session_id"], state.step_index] = (state.stop_streak, out)
        return out

    def blinded(obs, cfg):
        out = propose(obs, cfg)
        return replace(out, candidates=()) if obs.step % 7 == 5 else out

    monkeypatch.setattr(episodes, "step", recorded_step)
    monkeypatch.setattr(policy, "propose", blinded)
    backend = KindRecorder(cfg)
    for spec in load_episode_specs(str(SPEC), cfg):
        run_episode(spec, backend, cfg)

    assert set(backend.kinds) == set(outcomes)
    seen = Counter()
    for (session, index), (streak, out) in sorted(outcomes.items()):
        kinds, decision = backend.kinds[session, index], out.decision
        if backend.failed.get(session) == index:
            case = "score failed"
            assert kinds == [SCORE] and len(out.candidates) == 0
            assert decision.fallback and decision.backend_failed
            assert streak == decision.stop_streak == 1
        elif index % 7 == 5:
            case = "no candidate"
            assert kinds == [STOP_CHECK] and len(out.candidates) == 0
        elif index % 7 == 3:
            case = "all removed"
            assert kinds == [SCORE] and len(out.candidates) == 0
            assert decision.fallback and not decision.backend_failed
        else:
            case = "scored"
            assert kinds == [SCORE] and len(out.candidates) > 0
            assert not decision.fallback
        if case != "score failed":
            assert decision.s_stop == backend.s_stop[session, index]
        seen[case] += 1
    assert set(seen) == {"score failed", "no candidate", "all removed", "scored"}, seen


# -- full step cycle -------------------------------------------------------------


def test_step_moves_agent(box_world):
    cfg = RunConfig(n_rays=31)
    state = AgentState(pose=make_pose(2.0, 4.0, 0.0))
    out = step(state, box_world, None, GoalSpec.name_goal("chair"), Scripted(), cfg)
    assert out.state.step_index == 1
    assert out.traveled > 0.5
    assert out.state.pose != state.pose
    assert not out.decision.chosen.stop
    assert len(out.segments) >= 1
    assert out.segments[-1] == out.state.pose


def test_step_stop_freezes_pose(box_world):
    cfg = RunConfig(n_rays=31)
    backend = Scripted(stops=[0.9, 0.9])
    state = AgentState(pose=make_pose(5.0, 4.0, 0.0))
    out1 = step(state, box_world, None, GoalSpec.name_goal("chair"), backend, cfg)
    out2 = step(out1.state, box_world, None, GoalSpec.name_goal("chair"), backend, cfg)
    assert out2.decision.chosen.stop
    assert out2.state.pose == out1.state.pose
    assert out2.traveled == 0.0


def test_step_updates_memory_when_enabled(box_world):
    ops = [MemoryOp(op="add_node", name="chair_2", location=(4.0, 4.0))]
    for enabled, expected in ((True, {"chair_2"}), (False, set())):
        cfg = RunConfig(n_rays=31, memory_enabled=enabled)
        mem = MemoryGraph()
        state = AgentState(pose=make_pose(2.0, 4.0, 0.0))
        step(state, box_world, mem, GoalSpec.name_goal("chair"),
             Scripted(memory_ops=ops), cfg)
        assert set(mem.nodes) == expected
