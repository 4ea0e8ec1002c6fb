"""Per-step decision logic: sense, propose, decide, act.

Each step senses and builds one request context, extracts the navigable
boundary and samples candidates, then makes exactly one backend call: a
score request carrying the sampled candidates, whose reply removes or nudges
candidates, rates the survivors and rates stop confidence together, or, when
no candidate was sampled, a stop check.  Stop requires the confidence to
exceed the threshold on two consecutive steps.  A failed call and a step
left with no candidate degrade to a rotation in place, so no candidate the
backend has not cleared is ever executed.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

# sample_initial is called through its module, where perfbench/spans.py patches it
from . import proposer
from .backends.protocol import (RequestContext, make_score_request, make_stop_request,
                                request_context)
from .errors import BackendUnavailable, NoEscape
from .geometry import PolarAction, Pose
from .goals import GoalSpec
from .memory import MemoryGraph, render
from .motion import execute, reactive_avoid
from .proposer import CandidateSet, apply_filter_response, boundary
from .sensing import Observation, sense

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


@dataclass(frozen=True)
class StepOutcome:
    state: AgentState
    decision: StepDecision
    observation: Observation
    candidates: CandidateSet
    segments: Tuple[Pose, ...]  # poses visited this step, avoidance nudge included
    traveled: float
    truncated: bool


def memory_cut(mem: Optional[MemoryGraph], goal: GoalSpec, cfg) -> list:
    """The nodes and edges of the goal's memory excerpt, in render order:
    the nodes that fit the goal and those within ``cfg.memory_hops`` hops of
    them, cut by recency to ``cfg.memory_budget``; none when memory is off."""
    if mem is None or not cfg.memory_enabled:
        return []
    return mem.spatial_query(goal.fits, cfg.memory_hops).cut(cfg.memory_budget)


def memory_excerpt(cut: Sequence) -> str:
    """The memory text of a cut, which the request carries for a prompt; a
    step renders it once, here."""
    return render(cut)


def pick_best(scores: Dict[int, float]) -> int:
    """Highest score wins; exact ties go to the lowest candidate id."""
    best = max(scores.values())
    return min(i for i, s in scores.items() if s == best)


def _fallback(theta_delta: float, streak: int, failed: bool = False) -> StepDecision:
    return StepDecision(scores={}, s_stop=0.0,
                        chosen=PolarAction(0.0, theta_delta), stop_streak=streak,
                        fallback=True, backend_failed=failed)


def propose(obs: Observation, cfg) -> CandidateSet:
    """Boundary and far-first sampling; no backend call.

    ``cfg`` supplies alpha, theta_delta, and r_min.  The set keeps the
    boundary it was sampled from, which bounds the adjustments of the step's
    reply and holds the observation's fan.  An observation without a ray
    long enough to pass ``r_min`` gives an empty set.
    """
    return proposer.sample_initial(boundary(obs), cfg.alpha, cfg.theta_delta, cfg.r_min)


def select_action(ctx: RequestContext, candidates: CandidateSet, backend, cfg,
                  stop_streak: int) -> Tuple[StepDecision, CandidateSet, Tuple]:
    """Send the step's one request, update the stop streak, and choose the action.

    Candidates go in a score request, whose reply's removals and adjustments
    apply under the proposer's clamps; the best-scored survivor is chosen
    (scores of removed ids are ignored, a missing score counts 0).  Without
    candidates a stop check is sent.  Stop fires only when the reply's
    confidence has exceeded the threshold on this step and the previous one.

    Returns the decision, the surviving candidates and the reply's memory
    operations.  On backend failure the streak is left unchanged, no
    candidate survives, and the agent falls back to rotating by theta_delta.
    """
    try:
        if candidates.candidates:
            resp = backend.decide(make_score_request(ctx, candidates))
        else:
            resp = backend.decide(make_stop_request(ctx))
    except BackendUnavailable as e:
        log.warning("backend unavailable at step %d: %s", ctx.step, e)
        return (_fallback(cfg.theta_delta, stop_streak, failed=True),
                replace(candidates, candidates=()), ())

    kept = apply_filter_response(candidates, resp.removals, resp.adjustments)
    scores: Dict[int, float] = {}
    for c in kept.candidates:
        if c.id not in resp.scores:
            log.warning("backend omitted a score for candidate %d; assuming 0", c.id)
        scores[c.id] = resp.scores.get(c.id, 0.0)

    s_stop = resp.s_stop
    streak = stop_streak + 1 if s_stop > cfg.tau_stop else 0
    if streak >= 2:
        chosen = PolarAction.stop_action()
    elif scores:
        cand = kept.by_id(pick_best(scores))
        chosen = PolarAction(cand.r, cand.theta)
    else:
        # no candidate survived: rotate to look elsewhere
        return (replace(_fallback(cfg.theta_delta, streak), s_stop=s_stop), kept,
                resp.memory_ops)
    return (StepDecision(scores=scores, s_stop=s_stop, chosen=chosen, stop_streak=streak),
            kept, resp.memory_ops)


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
         session_id: str = "adhoc") -> StepOutcome:
    """One full perceive-propose-decide-act cycle.

    Memory is updated in place when enabled.  A stop decision leaves the pose
    untouched.
    """
    body = cfg.body
    obs = sense(world, state.pose, body, cfg.n_rays, fov=cfg.fov, step=state.step_index)
    cut = memory_cut(mem, goal, cfg)
    ctx = request_context(obs, session_id, goal, memory_excerpt(cut), cut, constraints)
    decision, candidates, memory_ops = select_action(
        ctx, propose(obs, cfg), backend, cfg, state.stop_streak)
    if mem is not None and cfg.memory_enabled and memory_ops:
        apply_memory_ops(mem, memory_ops, step_index=state.step_index, agent=session_id)

    if decision.chosen.stop:
        new_state = AgentState(state.pose, state.step_index + 1, decision.stop_streak)
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
