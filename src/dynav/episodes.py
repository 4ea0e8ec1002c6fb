"""Episode running: multi-goal navigation with per-goal budgets and step logs.

An episode visits its goals in order; each sub-task starts from wherever the
previous one ended and shares the same memory graph, so what the agent saw
while chasing goal 1 can shorten its route to goal 2.
"""
from __future__ import annotations

import json
import logging
import math
import os
import random
from dataclasses import dataclass
from typing import IO, List, Optional, Tuple

from .config import RunConfig
from .errors import SchemaViolation, Unreachable
from .geometry import AgentBody, Pose
from .goals import GoalSpec
from .memory import MemoryGraph
from .motion import success
from .planning import shortest_path
from .policy import AgentState, step
from .world import WorldMap
from .worldgen import WorldGenSpec, generate_world, random_free_pose

log = logging.getLogger(__name__)

STOPPED = "stopped"
BUDGET_EXHAUSTED = "budget_exhausted"
ABORTED = "aborted"


@dataclass(frozen=True)
class EpisodeSpec:
    episode_id: str
    world: WorldMap
    goals: Tuple[GoalSpec, ...]
    start: Optional[Pose] = None
    constraints: Tuple[str, ...] = ()
    seed: int = 0
    max_steps: Optional[int] = None        # per goal; None falls back to cfg
    max_distance_m: Optional[float] = None

    def __post_init__(self):
        if not 1 <= len(self.goals) <= 10:
            raise ValueError("episodes carry between 1 and 10 goals")


@dataclass(frozen=True)
class GoalResult:
    goal_text: str
    category: str
    success: bool
    path_length: float            # meters actually traveled for this goal
    shortest: Optional[float]     # oracle shortest path; None when unreachable
    steps: int
    stopped: bool
    unreachable: bool = False

    def to_dict(self) -> dict:
        return {
            "goal_text": self.goal_text, "category": self.category,
            "success": self.success, "path_length": self.path_length,
            "shortest": self.shortest, "steps": self.steps,
            "stopped": self.stopped, "unreachable": self.unreachable,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GoalResult":
        return cls(d["goal_text"], d["category"], bool(d["success"]),
                   float(d["path_length"]),
                   None if d.get("shortest") is None else float(d["shortest"]),
                   int(d["steps"]), bool(d["stopped"]), bool(d.get("unreachable", False)))


@dataclass(frozen=True)
class EpisodeResult:
    episode_id: str
    seed: int
    goal_results: Tuple[GoalResult, ...]
    trajectory: Tuple[Pose, ...]
    termination: str
    abort_reason: Optional[str] = None  # set when termination is ABORTED

    def to_dict(self) -> dict:
        d = {
            "episode_id": self.episode_id,
            "seed": self.seed,
            "termination": self.termination,
            "goals": [g.to_dict() for g in self.goal_results],
            "trajectory": [[p.x, p.y, p.heading] for p in self.trajectory],
        }
        if self.abort_reason is not None:
            d["abort_reason"] = self.abort_reason
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EpisodeResult":
        try:
            return cls(
                episode_id=d["episode_id"], seed=int(d.get("seed", 0)),
                goal_results=tuple(GoalResult.from_dict(g) for g in d["goals"]),
                trajectory=tuple(Pose(*p) for p in d.get("trajectory", ())),
                termination=d["termination"],
                abort_reason=d.get("abort_reason"),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaViolation(f"bad episode result record: {e}") from e


def _log_record(episode_id: str, outcome, mem_version: int) -> dict:
    d = outcome.decision
    return {
        "episode_id": episode_id,
        "step": outcome.observation.step,
        "pose": outcome.observation.pose.to_dict(),
        "candidate_set": [
            {"id": c.id, "r": c.r, "theta_deg": math.degrees(c.theta)}
            for c in outcome.candidates.candidates
        ],
        "scores": {str(i): s for i, s in sorted(d.scores.items())},
        "s_stop": d.s_stop,
        "chosen": d.chosen.to_dict(),
        "traveled": outcome.traveled,
        "memory_version": mem_version,
    }


def run_episode(spec: EpisodeSpec, backend, cfg: RunConfig,
                mem0: Optional[MemoryGraph] = None,
                step_log: Optional[IO[str]] = None) -> EpisodeResult:
    """Run every goal of the episode in order and account per-goal metrics.

    The caller's memory graph is copied, never mutated.  Termination reflects
    the final sub-task: a clean stop, an exhausted budget, or an abort.  An
    episode aborts after too many consecutive backend failures, or at once
    when a backend reply violates the protocol; the result names the reason.
    """
    body = AgentBody(radius=cfg.agent_radius, max_sense=cfg.d_max)
    rng = random.Random(spec.seed)
    start = spec.start or random_free_pose(spec.world, rng, body)
    mem = mem0.copy() if (mem0 is not None and cfg.memory_enabled) else MemoryGraph()
    max_steps = spec.max_steps or cfg.max_steps
    max_dist = spec.max_distance_m or cfg.max_distance_m

    state = AgentState(pose=start)
    trajectory: List[Pose] = [start]
    results: List[GoalResult] = []
    termination = STOPPED
    abort_reason: Optional[str] = None
    consecutive_failures = 0

    for gi, goal in enumerate(spec.goals):
        sub_start = state.pose
        try:
            l_opt = shortest_path(spec.world, sub_start, goal,
                                  cfg.success_threshold_m, body)
        except Unreachable:
            log.warning("episode %s goal %d (%s) unreachable; excluded from metrics",
                        spec.episode_id, gi, goal.text)
            results.append(GoalResult(goal.text, goal.category or goal.text, False,
                                      0.0, None, 0, False, unreachable=True))
            continue

        traveled = 0.0
        steps_used = 0
        stopped = False
        state = AgentState(pose=state.pose, step_index=state.step_index, stop_streak=0)
        while steps_used < max_steps and traveled <= max_dist:
            try:
                outcome = step(state, spec.world, mem, goal, backend, cfg,
                               constraints=spec.constraints,
                               session_id=spec.episode_id, rng=rng)
            except SchemaViolation as e:
                # retrying would not heal a malformed backend: end this
                # episode, not the batch
                log.warning("episode %s: %s", spec.episode_id, e)
                abort_reason = f"backend reply violates the protocol: {e}"
                break
            if step_log is not None:
                step_log.write(json.dumps(
                    _log_record(spec.episode_id, outcome, mem.version),
                    sort_keys=True) + "\n")
            consecutive_failures = (consecutive_failures + 1
                                    if outcome.decision.backend_failed else 0)
            steps_used += 1
            traveled += outcome.traveled
            trajectory.extend(outcome.segments)
            state = outcome.state
            if state.terminated:
                stopped = True
                break
            if consecutive_failures > cfg.max_backend_failures:
                abort_reason = f"{consecutive_failures} consecutive backend failures"
                break

        # a stop leaves the pose unchanged, so the stop step's scan is the
        # view from the final pose
        ok = stopped and success(spec.world, state.pose, goal, outcome.observation,
                                 cfg.success_threshold_m, cfg.visibility_required)
        results.append(GoalResult(goal.text, goal.category or goal.text, ok,
                                  traveled, l_opt, steps_used, stopped))
        state = AgentState(pose=state.pose, step_index=state.step_index, stop_streak=0)
        if abort_reason is not None:
            termination = ABORTED
            break
        termination = STOPPED if stopped else BUDGET_EXHAUSTED

    return EpisodeResult(spec.episode_id, spec.seed, tuple(results),
                         tuple(trajectory), termination, abort_reason)


def paired_memory_run(spec: EpisodeSpec, backend, cfg: RunConfig
                      ) -> Tuple[EpisodeResult, EpisodeResult]:
    """Run the same episode with and without memory; returns (with, without)."""
    with_mem = run_episode(spec, backend, cfg.with_overrides(memory_enabled=True))
    without = run_episode(spec, backend, cfg.with_overrides(memory_enabled=False))
    return with_mem, without


# -- episode spec files -------------------------------------------------------

def _goal_from_dict(d: dict) -> GoalSpec:
    try:
        return GoalSpec.from_dict(d)
    except (KeyError, ValueError) as e:
        raise SchemaViolation(f"bad goal record: {e}") from e


def load_episode_specs(path: str, cfg: RunConfig) -> List[EpisodeSpec]:
    """Read an episode spec file (see docs/formats.md) into runnable specs."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaViolation(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    if not isinstance(raw, dict) or "episodes" not in raw:
        raise SchemaViolation("episode spec must be an object with an 'episodes' list")
    base = os.path.dirname(os.path.abspath(path))
    specs: List[EpisodeSpec] = []
    worlds_cache: dict = {}
    for i, e in enumerate(raw["episodes"]):
        try:
            episode_id = e.get("id", f"ep{i:04d}")
            seed = int(e.get("seed", cfg.seed + i))
            if "world" in e:
                wpath = os.path.join(base, e["world"])
                if wpath not in worlds_cache:
                    worlds_cache[wpath] = WorldMap.load(wpath)
                world = worlds_cache[wpath]
            elif "worldgen" in e:
                wg = dict(e["worldgen"])
                wg_seed = int(wg.pop("seed", seed))
                world = generate_world(WorldGenSpec.from_dict(wg), wg_seed)
            else:
                raise SchemaViolation(f"episode {episode_id} needs 'world' or 'worldgen'")
            start = None
            if "start" in e:
                s = e["start"]
                start = Pose(float(s["x"]), float(s["y"]),
                             math.radians(float(s.get("heading_deg", 0.0))))
            goals = tuple(_goal_from_dict(g) for g in e["goals"])
            specs.append(EpisodeSpec(
                episode_id=episode_id, world=world, goals=goals, start=start,
                constraints=tuple(e.get("constraints", ())), seed=seed,
                max_steps=e.get("max_steps"), max_distance_m=e.get("max_distance_m")))
        except SchemaViolation:
            raise
        except (KeyError, TypeError, ValueError) as ex:
            raise SchemaViolation(f"bad episode record {i}: {ex}") from ex
    if not specs:
        raise SchemaViolation("episode spec file lists no episodes")
    return specs
