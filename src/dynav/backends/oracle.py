"""Deterministic in-process decision backend.

Stands in for a remote vision-language endpoint during tests and benchmarks.
It operates purely on the wire request (never on simulator internals): goal
identity comes from the ``goal`` record, remembered object positions from
the ``memory`` records, and hazards from ray tags and constraint keywords.
It reads neither ``goal_text`` nor ``memory_text``.

Rays are read as the request's columns.  Whether a hit is a hazard, matches
the goal or is labelled is decided once per entry of the hits table; only
the rays whose entry matters are then visited, in ray order, so first-minimum
and tie rules are those of a scan over every ray.
"""
from __future__ import annotations

import hashlib
import math
import re
from itertools import combinations, compress, repeat, starmap
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import RunConfig
from ..errors import SchemaViolation
from ..geometry import angular_distance, normalize_angle
from .protocol import (FILTER, SCORE, STOP_CHECK, DecisionRequest, DecisionResponse,
                       MemoryOp, RequestContext, WireCandidate)

# two objects sighted within this distance of each other get a "next to" edge
ADJACENCY_M = 1.0

_STOPWORDS = {
    "a", "an", "the", "of", "to", "from", "and", "or", "is", "are", "in", "on",
    "at", "with", "near", "next", "by", "stay", "away", "avoid", "keep", "do",
    "not", "don't", "object", "find", "go", "reach",
}


def _hash_unit(session_id: str, step: int, cid: int) -> float:
    """Stable pseudo-random value in [0, 1) for reproducible tie-breaking."""
    # a JSON string may hold a lone surrogate; other strings encode as in UTF-8
    key = f"{session_id}:{step}:{cid}".encode("utf-8", "surrogatepass")
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


def _tokens(text: str) -> set:
    return {w for w in re.split(r"[^a-z0-9]+", text.lower()) if w and w not in _STOPWORDS}


def _rays_of(ctx: RequestContext, wanted: Sequence[bool]) -> List[int]:
    """The indices, in ray order, of the rays whose hits entry is wanted."""
    if not any(wanted):
        return []
    return list(compress(range(len(ctx.hit)), map(wanted.__getitem__, ctx.hit)))


class OracleBackend:
    """Deterministic scoring, filtering, and stop checks.

    Behavior per request kind:

    * filter: removes candidates near hazard evidence (rays tagged ``hazard``,
      inflated by the apparent object extent so the true disc is covered) and
      candidates whose own ray label shares a keyword with a constraint.
    * score: removes candidates by the filter rule, then rates each survivor
      on its own: if the goal is visible, by angular proximity to the nearest
      goal sighting; else, if memory recalls a located match, by bearing
      toward it blended with range; else by range (frontier exploration) with
      a small deterministic hash perturbation.  Also emits memory operations
      for every labeled sighting, and rates stop confidence with the
      stop_check rule, so a score and a stop_check reply on one context carry
      the same ``s_stop``.
    * stop_check: full confidence exactly when the goal is visible within the
      success distance, zero otherwise.
    """

    def __init__(self, hazard_clearance: float, success_threshold: float, r_scale: float):
        self.hazard_clearance = hazard_clearance
        self.success_threshold = success_threshold
        # fixed range normalization (sensor reach); normalizing by the set max
        # instead would stretch sub-centimeter differences between cramped
        # candidates past the dither amplitude and deadlock in corners
        self.r_scale = r_scale

    @classmethod
    def from_config(cls, cfg: RunConfig) -> "OracleBackend":
        """The oracle of a run: its hazard clearance, success distance and
        sensing range."""
        return cls(hazard_clearance=cfg.hazard_clearance_m,
                   success_threshold=cfg.success_threshold_m, r_scale=cfg.d_max)

    # -- plumbing -----------------------------------------------------------

    def decide(self, req: DecisionRequest) -> DecisionResponse:
        if req.kind == FILTER:
            return DecisionResponse(kind=FILTER,
                                    removals=self._removals(req.context, req.candidates))
        if req.kind == SCORE:
            return self._score(req)
        if req.kind == STOP_CHECK:
            return self._stop(req)
        raise SchemaViolation(f"unknown request kind {req.kind!r}")

    @staticmethod
    def _endpoint(pose: tuple, theta_deg: float, dist: float) -> Tuple[float, float]:
        # finite inputs can still sum past the largest float, and an
        # in-process ray may hold NaN: the angle and point must be finite
        ang = math.radians(pose[2] + theta_deg)
        if math.isfinite(ang):
            x, y = pose[0] + dist * math.cos(ang), pose[1] + dist * math.sin(ang)
            if math.isfinite(x) and math.isfinite(y):
                return x, y
        raise SchemaViolation(f"the endpoint of theta_deg {theta_deg} and distance_m "
                              f"{dist} from pose {pose} is not finite")

    # -- filter ---------------------------------------------------------------

    def _removals(self, ctx: RequestContext,
                  candidates: Sequence[WireCandidate]) -> Tuple[int, ...]:
        """The ids of the candidates the filter rule removes, in request order."""
        hazard_groups: Dict[str, List[Tuple[float, float]]] = {}
        gaps: Dict[str, float] = {}
        prev: Dict[str, Tuple[float, float]] = {}
        hazardous = [bool(label) and "hazard" in tags for label, _, tags in ctx.hits]
        for i in _rays_of(ctx, hazardous):
            label = ctx.hits[ctx.hit[i]][0]
            pt = self._endpoint(ctx.pose, ctx.theta_deg[i], ctx.distance_m[i])
            hazard_groups.setdefault(label, []).append(pt)
            if label in prev:
                gap = math.dist(prev[label], pt)
                gaps[label] = max(gaps.get(label, 0.0), gap)
            prev[label] = pt
        # the visible endpoints trace only the near arc; pad the standoff by
        # the apparent extent (plus sampling slack) so a candidate behind the
        # object is still caught
        hazards: List[Tuple[List[Tuple[float, float]], float]] = []
        for label, pts in hazard_groups.items():
            # the greatest distance between two endpoints: math.dist is
            # symmetric bit for bit (a - b == -(b - a) in IEEE arithmetic),
            # so each pair is measured once
            extent = max(starmap(math.dist, combinations(pts, 2)), default=0.0)
            pad = extent + 2.0 * gaps.get(label, 0.0) + 0.05
            hazards.append((pts, self.hazard_clearance + pad))

        constraint_words = set()
        for c in ctx.constraints:
            constraint_words |= _tokens(c)
        nearest = (self._nearest_rays(ctx.theta_deg, candidates)
                   if constraint_words and candidates else None)
        if nearest is not None:
            constrained = [bool(label and label != "wall" and _tokens(label) & constraint_words)
                           for label, _, _ in ctx.hits]

        removals: List[int] = []
        for k, cand in enumerate(candidates):
            end = self._endpoint(ctx.pose, cand.theta_deg, cand.r_m)
            hit = any(min(map(math.dist, repeat(end), pts)) <= reach for pts, reach in hazards)
            if not hit and nearest is not None:
                hit = constrained[ctx.hit[nearest[k]]]
            if hit:
                removals.append(cand.id)
        return tuple(removals)

    @staticmethod
    def _nearest_rays(theta_deg: Sequence[float],
                      candidates: Sequence[WireCandidate]) -> List[int]:
        """Per candidate, the index that ``min(range(len(theta_deg)), key=lambda
        i: abs(theta_deg[i] - cand.theta_deg))`` picks: the first least
        difference, where a NaN difference never wins unless it is the first
        ray's.

        Raises SchemaViolation when there are no rays, where that ``min``
        raises ValueError.
        """
        if not theta_deg:
            raise SchemaViolation("a constrained request with candidates needs a ray to match "
                                  "each candidate against")
        thetas = np.array(theta_deg)
        with np.errstate(over="ignore", invalid="ignore"):
            diff = np.abs(thetas - np.array([[c.theta_deg] for c in candidates]))
        first_nan = np.isnan(diff[:, 0])
        diff[np.isnan(diff)] = np.inf
        nearest = diff.argmin(axis=1)
        nearest[first_nan] = 0
        return nearest.tolist()

    # -- score ----------------------------------------------------------------

    @staticmethod
    def _goal_rays(ctx: RequestContext) -> List[int]:
        """The indices of the rays that hit a sighting of the goal."""
        return _rays_of(ctx, [label is not None and label != "wall"
                              and ctx.goal.fits(label, attrs)
                              for label, attrs, _ in ctx.hits])

    def _remembered_target(self, ctx: RequestContext) -> Optional[Tuple[float, float]]:
        """The nearest located memory record that fits the goal, its
        coordinates rounded to 0.1 m as the memory text shows them; the first
        such record on a tie."""
        best = None
        best_d = math.inf
        for name, attrs, location in ctx.memory:
            if location is None or not ctx.goal.fits(name, attrs):
                continue
            x, y = round(location[0], 1), round(location[1], 1)
            d = math.hypot(x - ctx.pose[0], y - ctx.pose[1])
            if d < best_d:
                best, best_d = (x, y), d
        return best

    def _score(self, req: DecisionRequest) -> DecisionResponse:
        ctx = req.context
        removals = self._removals(ctx, req.candidates)
        survivors = [c for c in req.candidates if c.id not in removals]
        scores: Dict[int, float] = {}
        goal_rays = self._goal_rays(ctx)
        if goal_rays:
            ref_theta = ctx.theta_deg[min(goal_rays, key=ctx.distance_m.__getitem__)]
            for c in survivors:
                delta = abs(math.radians(c.theta_deg - ref_theta))
                scores[c.id] = max(0.0, 1.0 - delta / math.pi)
        else:
            target = self._remembered_target(ctx)
            if target is not None:
                bearing = math.atan2(target[1] - ctx.pose[1], target[0] - ctx.pose[0])
                rel = normalize_angle(bearing - math.radians(ctx.pose[2]))
                d_now = math.hypot(target[0] - ctx.pose[0], target[1] - ctx.pose[1])
                for c in survivors:
                    delta = angular_distance(math.radians(c.theta_deg), rel)
                    direction = 1.0 - delta / math.pi
                    # cubic reach gate: a blocked bearing loses its pull, so
                    # the agent slides around walls toward the target instead
                    # of grinding against them, and cramped corners collapse
                    # to the dither for a reproducible escape
                    feas = min(1.0, c.r_m) ** 3
                    # open-space credit capped at the target distance, else a
                    # long dash away outbids turning when the target is close
                    # behind the agent
                    reach = min(c.r_m, d_now) / self.r_scale
                    scores[c.id] = min(1.0, 0.7 * direction * feas
                                       + 0.29 * min(1.0, reach)
                                       + 0.01 * _hash_unit(ctx.session_id, ctx.step, c.id))
            else:
                # compare reach at 1 m granularity; the dither then picks
                # among comparable rays, which varies the sweep direction
                # step to step instead of replaying one sightline forever
                for c in survivors:
                    coarse = min(self.r_scale, math.floor(c.r_m))
                    scores[c.id] = min(1.0, 0.99 * coarse / self.r_scale
                                       + 0.01 * _hash_unit(ctx.session_id, ctx.step, c.id))
        return DecisionResponse(kind=SCORE, removals=removals, scores=scores,
                                s_stop=self._s_stop(ctx, goal_rays),
                                memory_ops=self._memory_ops(ctx))

    # -- stop -----------------------------------------------------------------

    def _stop(self, req: DecisionRequest) -> DecisionResponse:
        ctx = req.context
        return DecisionResponse(kind=STOP_CHECK, s_stop=self._s_stop(ctx, self._goal_rays(ctx)))

    def _s_stop(self, ctx: RequestContext, goal_rays: Sequence[int]) -> float:
        """Full confidence exactly when a goal ray ends within the success
        distance."""
        near = any(ctx.distance_m[i] <= self.success_threshold for i in goal_rays)
        return 1.0 if near else 0.0

    # -- memory operations, sent on score replies -------------------------------

    def _memory_ops(self, ctx: RequestContext) -> Tuple[MemoryOp, ...]:
        dist = ctx.distance_m
        sightings: Dict[str, int] = {}  # label -> the ray of its nearest sighting
        for i in _rays_of(ctx, [label is not None and label != "wall"
                                for label, _, _ in ctx.hits]):
            label = ctx.hits[ctx.hit[i]][0]
            cur = sightings.get(label)
            if cur is None or dist[i] < dist[cur]:
                sightings[label] = i
        ops: List[MemoryOp] = []
        located: List[Tuple[str, Tuple[float, float]]] = []
        for label in sorted(sightings):
            i = sightings[label]
            pt = self._endpoint(ctx.pose, ctx.theta_deg[i], dist[i])
            ops.append(MemoryOp(op="add_node", name=label, attributes=ctx.hits[ctx.hit[i]][1],
                                location=pt))
            located.append((label, pt))
        for i, (name_a, pt_a) in enumerate(located):
            for name_b, pt_b in located[i + 1:]:
                if math.dist(pt_a, pt_b) <= ADJACENCY_M:
                    a, b = sorted((name_a, name_b))
                    ops.append(MemoryOp(op="add_edge", start=a, target=b, relation="next to"))
        return tuple(ops)
