"""Step policy: scoring, the two-consecutive-step stop rule, and fallbacks."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynav.backends.protocol import (
    FILTER,
    SCORE,
    STOP_CHECK,
    DecisionResponse,
    MemoryOp,
    RequestContext,
    TEMPLATES,
)
from dynav.config import RunConfig
from dynav.errors import BackendUnavailable
from dynav.geometry import PolarAction
from dynav.goals import GoalSpec
from dynav.memory import MemoryGraph
from dynav.policy import (
    AgentState,
    apply_memory_ops,
    goal_filter,
    memory_excerpt,
    pick_best,
    propose,
    select_action,
    step,
)
from dynav.proposer import Candidate, CandidateSet, boundary, sample_initial
from dynav.sensing import sense

from conftest import make_pose


class Scripted:
    """Backend stub: fixed candidate scores plus a queue of stop confidences."""

    def __init__(self, scores=None, stops=(), memory_ops=(), fail=False):
        self.scores = scores
        self.stops = list(stops)
        self.memory_ops = tuple(memory_ops)
        self.fail = fail
        self.kinds = []

    def decide(self, req):
        self.kinds.append(req.kind)
        if self.fail:
            raise BackendUnavailable("scripted outage")
        if req.kind == STOP_CHECK:
            s = self.stops.pop(0) if self.stops else 0.0
            return DecisionResponse(kind=STOP_CHECK, s_stop=s)
        if req.kind == SCORE:
            scores = self.scores
            if scores is None:
                scores = {c.id: c.r_m / 10.0 for c in req.candidates}
            return DecisionResponse(kind=SCORE, scores=dict(scores),
                                    memory_ops=self.memory_ops)
        return DecisionResponse(kind=req.kind)


CTX = RequestContext(session_id="s", step=0, goal_text="chair")


def select_with(candidates, obs, backend, cfg, streak):
    cset = CandidateSet(tuple(candidates), alpha=0.8, theta_delta=math.radians(15.0))
    return select_action(CTX, obs, cset, TEMPLATES["name"], backend, cfg, streak)


@pytest.fixture
def obs(box_world, body):
    return sense(box_world, make_pose(5.0, 4.0, 0.0), body, n_rays=21)


def drive_stops(obs, stops, tau):
    """Feed a stop-confidence sequence through select_action; return stop step or None."""
    cfg = RunConfig(tau_stop=tau)
    backend = Scripted(stops=list(stops))
    streak = 0
    for i in range(len(stops)):
        decision, _ = select_with([Candidate(1, 2.0, 0.0)], obs, backend, cfg, streak)
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
    decision, _ = select_with(cands, obs, Scripted(), RunConfig(), 0)
    assert decision.chosen == PolarAction(4.0, 0.0)
    assert not decision.fallback
    assert decision.scores[2] == pytest.approx(0.4)


def test_select_action_fills_missing_scores(obs):
    cands = [Candidate(1, 1.0, -0.3), Candidate(2, 4.0, 0.0)]
    backend = Scripted(scores={1: 0.3})
    decision, _ = select_with(cands, obs, backend, RunConfig(), 0)
    assert decision.scores == {1: 0.3, 2: 0.0}
    assert decision.chosen.r == pytest.approx(1.0)


def test_select_action_backend_failure_degrades(obs):
    cands = [Candidate(1, 1.0, 0.0)]
    decision, ops = select_with(cands, obs, Scripted(fail=True), RunConfig(), 1)
    assert decision.fallback and decision.backend_failed
    assert decision.stop_streak == 1  # failure leaves the streak unchanged
    assert decision.chosen.r == 0.0
    assert decision.chosen.theta == pytest.approx(math.radians(15.0))
    assert ops == ()


def test_select_action_no_candidates_rotates(obs):
    decision, _ = select_with([], obs, Scripted(stops=[0.9]), RunConfig(), 0)
    assert decision.fallback and not decision.backend_failed
    assert decision.chosen.r == 0.0
    assert decision.s_stop == 0.9
    assert decision.stop_streak == 1  # the stop check still ran


def test_select_action_stop_wins_over_scores(obs):
    cands = [Candidate(1, 5.0, 0.0)]
    backend = Scripted(stops=[0.9, 0.9])
    streak = select_with(cands, obs, backend, RunConfig(), 0)[0].stop_streak
    decision, _ = select_with(cands, obs, backend, RunConfig(), streak)
    assert decision.chosen.stop
    assert decision.stop_streak == 2


def test_select_action_is_deterministic(obs):
    cands = [Candidate(1, 1.0, -0.3), Candidate(2, 4.0, 0.0)]
    a, _ = select_with(cands, obs, Scripted(), RunConfig(), 0)
    b, _ = select_with(cands, obs, Scripted(), RunConfig(), 0)
    assert a == b


# -- memory plumbing -------------------------------------------------------------


def test_goal_filter_shapes():
    f = goal_filter(GoalSpec.name_goal("chair"), hops=2)
    assert f.name_pattern == "chair" and f.hops == 2
    f = goal_filter(GoalSpec.instance_goal(["red", "tall"]), hops=1)
    assert f.required_attributes == frozenset({"red", "tall"})


def test_memory_excerpt_respects_toggle():
    mem = MemoryGraph()
    mem.add_node("chair_1", ["red"], (1.0, 2.0), step=1)
    goal = GoalSpec.name_goal("chair")
    assert memory_excerpt(None, goal, RunConfig()) == ""
    assert memory_excerpt(mem, goal, RunConfig(memory_enabled=False)) == ""
    text = memory_excerpt(mem, goal, RunConfig())
    assert "chair_1" in text and "(1.0, 2.0)" in text


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


# -- proposal with backend filtering ---------------------------------------------


class ScriptedFilter:
    def __init__(self, removals=(), fail=False):
        self.removals = removals
        self.fail = fail
        self.requests = []

    def decide(self, req):
        self.requests.append(req)
        if self.fail:
            raise BackendUnavailable("scripted outage")
        return DecisionResponse(kind=FILTER, removals=tuple(self.removals))


def test_propose_pipeline(box_world, body, run_cfg):
    obs = sense(box_world, make_pose(5.0, 4.0, 0.0), body, n_rays=21)
    backend = ScriptedFilter(removals=[1])
    out = propose(CTX, obs, [True] * 21, backend, run_cfg)
    assert 1 not in out.ids()
    req = backend.requests[0]
    assert req.kind == FILTER
    assert req.version == "dynav/1"
    assert req.session_id == "s" and req.goal_text == "chair"
    assert len(req.candidates) == len(out.ids()) + 1


def test_propose_survives_backend_outage(box_world, body, run_cfg):
    obs = sense(box_world, make_pose(5.0, 4.0, 0.0), body, n_rays=21)
    out = propose(CTX, obs, [True] * 21, ScriptedFilter(fail=True), run_cfg)
    ref = sample_initial(boundary(obs, [True] * 21), run_cfg.alpha, run_cfg.theta_delta,
                         run_cfg.r_min)
    assert out == ref


def test_step_requests_share_one_context(box_world):
    """Filter, score and stop requests of a step carry one identity, with the
    goal's template, the memory excerpt and the constraints."""
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
    assert [r.kind for r in seen] == [FILTER, SCORE, STOP_CHECK]
    assert {(r.session_id, r.step, r.goal_text, r.memory_text, r.constraints)
            for r in seen} == {("ep1", 7, "chair", "chair_9 at (3.0, 3.0).", ("keep right",))}
    assert seen[1].template_id == "goal-name/1"


# -- full step cycle -------------------------------------------------------------


def test_step_moves_agent(box_world):
    cfg = RunConfig(n_rays=31)
    state = AgentState(pose=make_pose(2.0, 4.0, 0.0))
    out = step(state, box_world, None, GoalSpec.name_goal("chair"), Scripted(), cfg)
    assert out.state.step_index == 1
    assert out.traveled > 0.5
    assert out.state.pose != state.pose
    assert not out.state.terminated
    assert len(out.segments) >= 1
    assert out.segments[-1] == out.state.pose


def test_step_stop_freezes_pose(box_world):
    cfg = RunConfig(n_rays=31)
    backend = Scripted(stops=[0.9, 0.9])
    state = AgentState(pose=make_pose(5.0, 4.0, 0.0))
    out1 = step(state, box_world, None, GoalSpec.name_goal("chair"), backend, cfg)
    out2 = step(out1.state, box_world, None, GoalSpec.name_goal("chair"), backend, cfg)
    assert out2.state.terminated
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
