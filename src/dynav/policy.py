"""Per-step decision logic: sense, propose and filter, score and stop, act.

Each step senses and builds one request context, extracts the navigable
boundary and samples candidates, lets the backend filter them, then makes two
logical backend calls: one scoring the annotated candidates and one judging
stop confidence on the raw observation.  Stop requires the confidence to
exceed the threshold on two consecutive steps.  Backend failures and empty
boundaries degrade to a rotation in place.
"""
from __future__ import annotations

import logging
import random
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

# sample_initial and make_filter_request are called through their modules, where
# perfbench/spans.py patches them
from . import proposer
from .backends import protocol
from .backends.protocol import (RequestContext, TEMPLATES, make_score_request,
                                make_stop_request)
from .errors import BackendUnavailable, EmptyBoundary, NoEscape
from .geometry import AgentBody, PolarAction, Pose
from .goals import GoalSpec, INSTANCE
from .memory import MemoryGraph, SemanticFilter
from .motion import execute, reactive_avoid
from .proposer import CandidateSet, apply_filter_response, boundary
from .sensing import Observation, sense, traversability_mask

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StepDecision:
    scores: Dict[int, float]
    s_stop: float
    chosen: PolarAction
    stop_streak: int
    fallback: bool = False     # True when degraded to rotation
    backend_failed: bool = False


@dataclass
class AgentState:
    pose: Pose
    step_index: int = 0
    stop_streak: int = 0
    terminated: bool = False


@dataclass(frozen=True)
class StepOutcome:
    state: AgentState
    decision: StepDecision
    observation: Observation
    candidates: CandidateSet
    segments: Tuple[Pose, ...]  # poses visited this step, avoidance nudge included
    traveled: float
    truncated: bool


def goal_filter(goal: GoalSpec, hops: int) -> SemanticFilter:
    """Memory retrieval filter derived from the goal's terms."""
    if goal.kind == INSTANCE:
        return SemanticFilter(required_attributes=frozenset(goal.attributes), hops=hops)
    return SemanticFilter(name_pattern=goal.category, hops=hops)


def memory_excerpt(mem: Optional[MemoryGraph], goal: GoalSpec, cfg) -> str:
    if mem is None or not cfg.memory_enabled:
        return ""
    sub = mem.spatial_query(goal_filter(goal, cfg.memory_hops),
                            max_hops=max(cfg.memory_hops, 3))
    return sub.render_text(cfg.memory_budget)


def pick_best(scores: Dict[int, float]) -> int:
    """Highest score wins; exact ties go to the lowest candidate id."""
    best = max(scores.values())
    return min(i for i, s in scores.items() if s == best)


def _fallback(theta_delta: float, streak: int, failed: bool = False) -> StepDecision:
    return StepDecision(scores={}, s_stop=0.0,
                        chosen=PolarAction(0.0, theta_delta), stop_streak=streak,
                        fallback=True, backend_failed=failed)


def propose(ctx: RequestContext, obs: Observation, traversability: Sequence[bool],
            backend, cfg) -> CandidateSet:
    """Boundary, far-first sampling, then backend filtering.

    ``cfg`` supplies alpha, theta_delta, and r_min.  Raises EmptyBoundary when
    no ray is traversable.  An empty initial set skips the filter call; on
    backend failure the unfiltered set is returned unchanged and the score
    call decides how to degrade.
    """
    points = boundary(obs, traversability)
    initial = proposer.sample_initial(points, cfg.alpha, cfg.theta_delta, cfg.r_min)
    if not initial.candidates:
        return initial
    try:
        resp = backend.decide(protocol.make_filter_request(ctx, obs, initial))
    except BackendUnavailable:
        log.warning("filter backend unavailable; keeping unfiltered candidates")
        return initial
    ray_gap = obs.fov / max(1, obs.n_rays - 1)
    return apply_filter_response(initial, points, resp.removals, resp.adjustments,
                                 obs.fov, ray_gap)


def select_action(ctx: RequestContext, obs: Observation, candidates: CandidateSet,
                  template_id: str, backend, cfg,
                  stop_streak: int) -> Tuple[StepDecision, Tuple]:
    """Score candidates, update the stop streak, and choose the action.

    Returns the decision plus any memory operations the backend emitted.  The
    stop check runs on the raw observation in a separate call; stop fires only
    when confidence has exceeded the threshold on this step and the previous
    one.  On backend failure the streak is left unchanged and the agent falls
    back to rotating by theta_delta.
    """
    memory_ops: Tuple = ()
    scores: Dict[int, float] = {}
    try:
        if candidates.candidates:
            score_resp = backend.decide(
                make_score_request(ctx, obs, candidates, template_id))
            scores = dict(score_resp.scores)
            memory_ops = score_resp.memory_ops
        stop_resp = backend.decide(make_stop_request(ctx, obs))
    except BackendUnavailable as e:
        log.warning("backend unavailable at step %d: %s", obs.step, e)
        return _fallback(cfg.theta_delta, stop_streak, failed=True), ()

    for c in candidates.candidates:
        if c.id not in scores:
            log.warning("backend omitted a score for candidate %d; assuming 0", c.id)
            scores[c.id] = 0.0

    s_stop = stop_resp.s_stop
    streak = stop_streak + 1 if s_stop > cfg.tau_stop else 0
    if streak >= 2:
        chosen = PolarAction.stop_action()
    elif scores:
        best = pick_best(scores)
        cand = candidates.by_id(best)
        chosen = PolarAction(cand.r, cand.theta)
    else:
        # nothing survived filtering: rotate to look elsewhere
        return replace(_fallback(cfg.theta_delta, streak), s_stop=s_stop), memory_ops
    return StepDecision(scores=scores, s_stop=s_stop, chosen=chosen,
                        stop_streak=streak), memory_ops


def apply_memory_ops(mem: MemoryGraph, ops, step_index: int, agent: str) -> None:
    """Apply backend add_node / add_edge operations, skipping malformed ones."""
    for op in ops:
        try:
            if op.op == "add_node":
                mem.add_node(op.name, op.attributes, op.location,
                             step=step_index, agent=agent)
            elif op.op == "add_edge":
                mem.add_edge(op.start, op.target, op.relation)
        except Exception as e:  # a bad op must not kill the episode
            log.warning("dropping malformed memory op %r: %s", op, e)


def step(state: AgentState, world, mem: Optional[MemoryGraph], goal: GoalSpec,
         backend, cfg, constraints: Tuple[str, ...] = (),
         session_id: str = "adhoc", rng: Optional[random.Random] = None) -> StepOutcome:
    """One full perceive-propose-decide-act cycle.

    Every request of the step shares one context.  Memory is updated in place
    when enabled.  A stop decision leaves the pose untouched and marks the
    state terminated.
    """
    body = AgentBody(radius=cfg.agent_radius, max_sense=cfg.d_max)
    obs = sense(world, state.pose, body, cfg.n_rays, fov=cfg.fov, step=state.step_index)
    mask = traversability_mask(obs, cfg.epsilon_mask, rng)
    ctx = RequestContext(session_id=session_id, step=state.step_index,
                         goal_text=goal.text, memory_text=memory_excerpt(mem, goal, cfg),
                         constraints=constraints)
    try:
        candidates = propose(ctx, obs, mask, backend, cfg)
    except EmptyBoundary:
        decision = _fallback(cfg.theta_delta, state.stop_streak)
        motion = execute(world, state.pose, body, decision.chosen)
        new_state = AgentState(motion.new_pose, state.step_index + 1, decision.stop_streak)
        return StepOutcome(new_state, decision, obs,
                           CandidateSet((), cfg.alpha, cfg.theta_delta),
                           (motion.new_pose,), 0.0, False)

    decision, memory_ops = select_action(ctx, obs, candidates, TEMPLATES[goal.kind],
                                         backend, cfg, state.stop_streak)
    if mem is not None and cfg.memory_enabled and memory_ops:
        apply_memory_ops(mem, memory_ops, step_index=state.step_index, agent=session_id)

    if decision.chosen.stop:
        new_state = AgentState(state.pose, state.step_index + 1,
                               decision.stop_streak, terminated=True)
        return StepOutcome(new_state, decision, obs, candidates, (), 0.0, False)

    segments = []
    start_pose = state.pose
    avoid_travel = 0.0
    try:
        nudged = reactive_avoid(world, state.pose, body, cfg.avoid_clearance)
        if nudged != state.pose:
            avoid_travel = state.pose.distance_to(nudged)
            segments.append(nudged)
            start_pose = nudged
    except NoEscape:
        log.warning("agent boxed in at step %d; treating the move as blocked",
                    state.step_index)
        new_state = AgentState(state.pose, state.step_index + 1, decision.stop_streak)
        return StepOutcome(new_state, decision, obs, candidates, (), 0.0, True)

    motion = execute(world, start_pose, body, decision.chosen)
    segments.append(motion.new_pose)
    new_state = AgentState(motion.new_pose, state.step_index + 1, decision.stop_streak)
    return StepOutcome(new_state, decision, obs, candidates, tuple(segments),
                       motion.traveled + avoid_travel, motion.truncated)
