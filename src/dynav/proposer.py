"""Dynamic polar action proposal.

A candidate action is a (range, bearing) pair selected from the navigable
boundary of the current observation: per traversable ray, the farthest
contiguous free extent.  Sampling keeps far points first while enforcing a
minimum angular gap.  This module is pure geometry: the policy sends the
sampled set to a decision backend, whose reply may remove or nudge candidates,
and ``apply_filter_response`` applies the reply under safety clamps.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import gt
from typing import List, NamedTuple, Sequence, Tuple

from .geometry import TWO_PI, angular_distance
from .sensing import Observation

log = logging.getLogger(__name__)


class BoundaryPoint(NamedTuple):
    r: float      # meters of contiguous traversable extent along the ray
    theta: float  # ray bearing relative to heading, radians


class Adjustment(NamedTuple):  # a backend's nudge of one candidate
    id: int
    r: float      # new range, meters
    theta: float  # new bearing relative to heading, radians


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
    # the boundary sampled from, which bounds adjustments (none without one)
    points: Tuple[BoundaryPoint, ...] = field(default=(), compare=False, repr=False)

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
    omitted entirely, so an observation without a traversable ray has an
    empty boundary.
    """
    if len(traversability) != obs.n_rays:
        raise ValueError("mask length must equal the ray count")
    # the columns zipped with the mask in C-level passes; BoundaryPoint._make
    # of each kept row without a Python-level call per ray
    depths = list(compress(obs.depths, traversability))
    rows = zip(depths, compress(obs.thetas, traversability))
    return list(map(tuple.__new__, repeat(BoundaryPoint),
                    compress(rows, map(gt, depths, repeat(0.0)))))


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
    scaled = [(r * alpha, theta) for r, theta in points if r * alpha >= r_min]
    scaled.sort(key=lambda rt: (-rt[0], abs(rt[1]), rt[1]))
    pi = math.pi
    kept: List[Tuple[float, float]] = []
    for r, theta in scaled:
        for _, k_theta in kept:
            # angular_distance(theta, k_theta) inlined: the same float
            # operations in the same order, so the same bits; "not >=" keeps
            # its handling of NaN
            if not abs((theta - k_theta + pi) % TWO_PI - pi) >= theta_delta:
                break
        else:
            kept.append((r, theta))
    kept.sort(key=lambda rt: rt[1])
    cands = tuple(Candidate(i + 1, r, theta) for i, (r, theta) in enumerate(kept))
    return CandidateSet(cands, alpha, theta_delta, tuple(points))


def _boundary_limit(points: Sequence[BoundaryPoint], theta: float, gap: float) -> float:
    """Conservative traversable extent at an arbitrary bearing.

    Takes the minimum extent over boundary points within one ray spacing of
    the bearing; -inf when no boundary support exists there.
    """
    near = [p.r for p in points if angular_distance(p.theta, theta) <= gap]
    return min(near) if near else -math.inf


def apply_filter_response(initial: CandidateSet, removals: Sequence[int],
                          adjustments: Sequence[Adjustment], fov: float,
                          ray_gap: float) -> CandidateSet:
    """Apply backend removals and adjustments under the safety clamps.

    An adjustment is dropped (keeping the original candidate) unless all of:
    it references a surviving id, moves the bearing by at most theta_delta/2,
    stays inside the field of view, keeps a positive range no larger than the
    candidate's original range, respects the traversable extent of
    ``initial.points`` at the new bearing, and preserves the pairwise angular
    separation of the set.
    """
    removed = set(removals)
    survivors = [c for c in initial.candidates if c.id not in removed]
    adj_by_id = {a.id: a for a in adjustments}

    out: List[Candidate] = []
    for c in survivors:
        a = adj_by_id.get(c.id)
        if a is None:
            out.append(c)
            continue
        ok = (
            math.isfinite(a.r) and 0.0 < a.r <= c.r + 1e-9
            and angular_distance(a.theta, c.theta) <= initial.theta_delta / 2.0 + 1e-9
            and abs(a.theta) <= fov / 2.0 + 1e-9
            and a.r <= initial.alpha * _boundary_limit(initial.points, a.theta, ray_gap) + 1e-9
        )
        if not ok:
            log.warning("dropping invalid adjustment for candidate %d", c.id)
            out.append(c)
            continue
        out.append(Candidate(c.id, a.r, a.theta))

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
    return CandidateSet(tuple(final), initial.alpha, initial.theta_delta, initial.points)
