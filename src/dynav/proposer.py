"""Dynamic polar action proposal.

A candidate action is a (range, bearing) pair selected from the navigable
boundary of the current observation: per traversable ray, the farthest
contiguous free extent.  Sampling keeps far points first while enforcing a
minimum angular gap.  This module is pure geometry: the policy sends the
sampled set to a decision backend, which may remove or nudge candidates, and
``apply_filter_response`` applies the reply under safety clamps.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import EmptyBoundary
from .geometry import angular_distance
from .sensing import Observation

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BoundaryPoint:
    r: float      # meters of contiguous traversable extent along the ray
    theta: float  # ray bearing relative to heading, radians


@dataclass(frozen=True)
class Candidate:
    id: int
    r: float
    theta: float

    def __post_init__(self):
        if self.id < 1:
            raise ValueError("candidate ids start at 1")
        if self.r <= 0 or not math.isfinite(self.r):
            raise ValueError("candidate range must be positive and finite")


@dataclass(frozen=True)
class CandidateSet:
    candidates: Tuple[Candidate, ...]
    alpha: float
    theta_delta: float

    def __post_init__(self):
        ids = [c.id for c in self.candidates]
        if len(ids) != len(set(ids)):
            raise ValueError("candidate ids must be unique")

    def ids(self) -> Tuple[int, ...]:
        return tuple(c.id for c in self.candidates)

    def by_id(self, cid: int) -> Candidate:
        for c in self.candidates:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def __len__(self) -> int:
        return len(self.candidates)


def boundary(obs: Observation, traversability: Sequence[bool]) -> List[BoundaryPoint]:
    """Navigable boundary: one point per traversable ray at its sensed depth.

    The first non-traversable surface terminates the contiguous extent, which
    is exactly what the ray depth measures; rays masked non-traversable are
    omitted entirely.  Raises EmptyBoundary when nothing remains.
    """
    if len(traversability) != obs.n_rays:
        raise ValueError("mask length must equal the ray count")
    points = [BoundaryPoint(ray.depth, ray.theta)
              for ray, ok in zip(obs.rays, traversability) if ok and ray.depth > 0.0]
    if not points:
        raise EmptyBoundary("no traversable ray in this observation")
    return points


def sample_initial(points: Sequence[BoundaryPoint], alpha: float, theta_delta: float,
                   r_min: float) -> CandidateSet:
    """Greedy far-first selection with a minimum angular gap.

    Points are scaled by the safety factor alpha, those falling under r_min
    are dropped, and the rest are kept in descending-range order provided they
    sit at least theta_delta away from every already-kept point.  Range ties
    prefer straight ahead (smaller |theta|), then smaller theta.  Ids are
    assigned 1..n in ascending bearing order.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if theta_delta < 0:
        raise ValueError("theta_delta must be >= 0")
    scaled = [(p.r * alpha, p.theta) for p in points if p.r * alpha >= r_min]
    scaled.sort(key=lambda rt: (-rt[0], abs(rt[1]), rt[1]))
    kept: List[Tuple[float, float]] = []
    for r, theta in scaled:
        if all(angular_distance(theta, k_theta) >= theta_delta for _, k_theta in kept):
            kept.append((r, theta))
    kept.sort(key=lambda rt: rt[1])
    cands = tuple(Candidate(i + 1, r, theta) for i, (r, theta) in enumerate(kept))
    return CandidateSet(cands, alpha, theta_delta)


def _boundary_limit(points: Sequence[BoundaryPoint], theta: float, gap: float) -> float:
    """Conservative traversable extent at an arbitrary bearing.

    Takes the minimum extent over boundary points within one ray spacing of
    the bearing; -inf when no boundary support exists there.
    """
    near = [p.r for p in points if angular_distance(p.theta, theta) <= gap]
    return min(near) if near else -math.inf


def apply_filter_response(initial: CandidateSet, points: Sequence[BoundaryPoint],
                          removals: Sequence[int], adjustments: Sequence[dict],
                          fov: float, ray_gap: float) -> CandidateSet:
    """Apply backend removals and adjustments under the safety clamps.

    An adjustment is dropped (keeping the original candidate) unless all of:
    it references a surviving id, moves the bearing by at most theta_delta/2,
    stays inside the field of view, keeps a positive range no larger than the
    candidate's original range, respects the traversable extent at the new
    bearing, and preserves the pairwise angular separation of the set.
    """
    removed = set(int(i) for i in removals)
    survivors = [c for c in initial.candidates if c.id not in removed]
    adj_by_id = {}
    for a in adjustments:
        adj_by_id[int(a["id"])] = a

    out: List[Candidate] = []
    for c in survivors:
        a = adj_by_id.get(c.id)
        if a is None:
            out.append(c)
            continue
        r_new = float(a.get("r", c.r))
        theta_new = float(a.get("theta", c.theta))
        ok = (
            math.isfinite(r_new) and 0.0 < r_new <= c.r + 1e-9
            and angular_distance(theta_new, c.theta) <= initial.theta_delta / 2.0 + 1e-9
            and abs(theta_new) <= fov / 2.0 + 1e-9
            and r_new <= initial.alpha * _boundary_limit(points, theta_new, ray_gap) + 1e-9
        )
        if not ok:
            log.warning("dropping invalid adjustment for candidate %d", c.id)
            out.append(c)
            continue
        out.append(Candidate(c.id, r_new, theta_new))

    # re-validate pairwise separation after adjustments, in id order; a
    # violating adjustment reverts to the original candidate
    final: List[Candidate] = []
    for i, c in enumerate(out):
        others = final + out[i + 1:]
        if any(angular_distance(c.theta, o.theta) < initial.theta_delta - 1e-9 for o in others):
            orig = initial.by_id(c.id)
            if c != orig:
                log.warning("adjustment for candidate %d broke angular separation; reverted", c.id)
                c = orig
        final.append(c)
    return CandidateSet(tuple(final), initial.alpha, initial.theta_delta)
