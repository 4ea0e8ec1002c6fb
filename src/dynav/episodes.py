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
from .errors import (GenerationFailed, SchemaViolation, Unreachable, UnresolvableGoal, check,
                     check_finite, check_integer, check_strings, check_type, read_json)
from .geometry import Pose
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
TERMINATIONS = (STOPPED, BUDGET_EXHAUSTED, ABORTED)


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
    def from_dict(cls, d) -> "GoalResult":
        check_type(d, dict, "a goal result")
        shortest = d.get("shortest")
        return cls(check_type(d.get("goal_text"), str, "goal_text"),
                   check_type(d.get("category"), str, "category"),
                   check_type(d.get("success"), bool, "success"),
                   _non_negative(check_finite(d.get("path_length"), "path_length"),
                                 "path_length"),
                   None if shortest is None else _non_negative(
                       check_finite(shortest, "shortest"), "shortest"),
                   _non_negative(check_integer(d.get("steps"), "steps"), "steps"),
                   check_type(d.get("stopped"), bool, "stopped"),
                   check_type(d.get("unreachable", False), bool, "unreachable"))


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
    def from_dict(cls, d) -> "EpisodeResult":
        """A result from its JSON form; anything malformed raises SchemaViolation."""
        check_type(d, dict, "an episode result")
        reason, termination = d.get("abort_reason"), d.get("termination")
        return cls(
            episode_id=check_type(d.get("episode_id"), str, "episode_id"),
            seed=check_integer(d.get("seed", 0), "seed"),
            goal_results=tuple(GoalResult.from_dict(g)
                               for g in check_type(d.get("goals"), list, "goals")),
            trajectory=tuple(_trajectory_pose(p)
                             for p in check_type(d.get("trajectory", []), list, "trajectory")),
            termination=check(termination, termination in TERMINATIONS,
                              f"termination must be one of {', '.join(TERMINATIONS)}"),
            abort_reason=None if reason is None else check_type(reason, str, "abort_reason"),
        )


def _non_negative(value, what: str):
    return check(value, value >= 0, f"{what} must not be negative")


def _trajectory_pose(p) -> Pose:
    check(p, isinstance(p, list) and len(p) == 3, "a trajectory pose must be [x, y, heading]")
    return Pose(*(check_finite(v, "trajectory pose") for v in p))


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
    when it has no start pose and its world has no free one, a goal matches
    no object in the world, a backend reply violates the protocol or a step
    raises any other exception; the result names the reason.
    """
    body = cfg.body
    try:
        start = spec.start or random_free_pose(spec.world, random.Random(spec.seed), body)
    except GenerationFailed as e:
        log.warning("episode %s: %s", spec.episode_id, e)
        return EpisodeResult(spec.episode_id, spec.seed, (), (), ABORTED,
                             f"no start pose: {e}")
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
        except UnresolvableGoal as e:
            # no object in this world matches the goal: no later goal runs
            log.warning("episode %s goal %d: %s", spec.episode_id, gi, e)
            abort_reason = str(e)
            termination = ABORTED
            break

        traveled = 0.0
        steps_used = 0
        stopped = False
        state = AgentState(pose=state.pose, step_index=state.step_index, stop_streak=0)
        while steps_used < max_steps and traveled <= max_dist:
            try:
                outcome = step(state, spec.world, mem, goal, backend, cfg,
                               constraints=spec.constraints,
                               session_id=spec.episode_id)
            except SchemaViolation as e:
                # retrying would not heal a malformed backend: end this
                # episode, not the batch
                log.warning("episode %s: %s", spec.episode_id, e)
                abort_reason = f"backend reply violates the protocol: {e}"
                break
            except Exception as e:
                # a fault in one episode ends that episode, never the batch
                log.exception("episode %s: step failed", spec.episode_id)
                abort_reason = f"step raised {type(e).__name__}: {e}"
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
            if outcome.decision.chosen.stop:
                stopped = True
                break
            if consecutive_failures > cfg.max_backend_failures:
                abort_reason = f"{consecutive_failures} consecutive backend failures"
                break

        ok = stopped and success(spec.world, state.pose, goal, cfg.success_threshold_m)
        results.append(GoalResult(goal.text, goal.category or goal.text, ok,
                                  traveled, l_opt, steps_used, stopped))
        if abort_reason is not None:
            termination = ABORTED
            break
        termination = STOPPED if stopped else BUDGET_EXHAUSTED

    return EpisodeResult(spec.episode_id, spec.seed, tuple(results),
                         tuple(trajectory), termination, abort_reason)


# -- episode spec files -------------------------------------------------------

def _episode_from_dict(e, i: int, base: str, cfg: RunConfig, worlds: dict) -> EpisodeSpec:
    check_type(e, dict, "an episode")
    episode_id = e.get("id", f"ep{i:04d}")
    # the id names the episode's step log file
    check(episode_id, isinstance(episode_id, str) and episode_id != ""
          and not set(episode_id) & set("/\\\0"), "id must be a file name")
    seed = check_integer(e.get("seed", cfg.seed + i), "seed")
    if ("world" in e) == ("worldgen" in e):
        raise SchemaViolation("needs exactly one of 'world' and 'worldgen'")
    if "world" in e:
        wpath = os.path.join(base, check_type(e["world"], str, "world"))
        if wpath not in worlds:
            worlds[wpath] = WorldMap.load(wpath)
        world = worlds[wpath]
    else:
        wg = e["worldgen"]
        world = generate_world(WorldGenSpec.from_dict(wg),
                               check_integer(wg.get("seed", seed), "worldgen seed"))
    start = None
    if "start" in e:
        s = check_type(e["start"], dict, "start")
        heading = check_finite(s.get("heading_deg", 0.0), "start heading_deg")
        x, y = check_finite(s["x"], "start x"), check_finite(s["y"], "start y")
        check((x, y), world.in_bounds(x, y), "start must lie inside the world")
        start = Pose(x, y, math.radians(heading))
    goals = check_type(e["goals"], list, "goals")
    max_steps, max_dist = e.get("max_steps"), e.get("max_distance_m")
    if max_steps is not None:
        check(max_steps, check_integer(max_steps, "max_steps") > 0,
              "max_steps must be positive")
    if max_dist is not None:
        check(max_dist, check_finite(max_dist, "max_distance_m") > 0,
              "max_distance_m must be positive")
    return EpisodeSpec(episode_id=episode_id, world=world,
                       goals=tuple(GoalSpec.from_dict(g) for g in goals), start=start,
                       constraints=check_strings(e.get("constraints", []), "constraints"),
                       seed=seed, max_steps=max_steps, max_distance_m=max_dist)


def load_episode_specs(path: str, cfg: RunConfig) -> List[EpisodeSpec]:
    """Read an episode spec file (see docs/formats.md) into runnable specs.

    Any malformed content raises SchemaViolation, and so do a world file that
    cannot be read and a ``worldgen`` request that cannot be met.
    """
    raw = read_json(path)
    episodes = raw.get("episodes") if isinstance(raw, dict) else None
    if not isinstance(episodes, list) or not episodes:
        raise SchemaViolation("episode spec must be an object with a non-empty 'episodes' list")
    base = os.path.dirname(os.path.abspath(path))
    worlds: dict = {}
    specs: dict = {}
    for i, e in enumerate(episodes):
        try:
            spec = _episode_from_dict(e, i, base, cfg, worlds)
        except (SchemaViolation, KeyError, TypeError, ValueError, OverflowError,
                GenerationFailed) as ex:
            raise SchemaViolation(f"bad episode record {i}: {ex}") from ex
        if spec.episode_id in specs:
            # a second episode would overwrite the first one's step log
            raise SchemaViolation(f"episode id {spec.episode_id!r} is not unique")
        specs[spec.episode_id] = spec
    return list(specs.values())
