"""Dynamic polar action proposal.

A candidate action is a (range, bearing) pair selected from the navigable
boundary of the current observation: per ray of positive depth, the farthest
contiguous free extent.  The boundary is kept as the fan's columns (a
``Boundary``), with no record per ray.  Sampling keeps far points first while
enforcing a minimum angular gap: points are ordered in one numpy sort, and a
point is tested against the points already kept with one lookup in a table
of conflicting rays, built once for each fan and gap.  This module is pure
geometry: the policy sends the sampled set to a decision backend, whose reply
may remove or nudge candidates, and ``apply_filter_response`` applies the
reply under safety clamps.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .geometry import TWO_PI, angular_distance
from .sensing import Fan, Observation

log = logging.getLogger(__name__)


class Boundary(NamedTuple):
    """The navigable boundary of one fan, as columns.

    ``fan`` is the observation's own fan, shared by every step of that fan;
    ``index`` the rays on the boundary, in ascending order; ``depths[i]`` the
    extent in meters along ray ``index[i]``.  ``index`` and ``depths`` are
    read-only numpy arrays.
    """

    fan: Fan
    index: np.ndarray
    depths: np.ndarray


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


EMPTY_BOUNDARY = Boundary(Fan((), 0.0), _frozen(np.zeros(0, dtype=np.intp)),
                          _frozen(np.zeros(0)))


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
    points: Boundary = field(default=EMPTY_BOUNDARY, compare=False, repr=False)

    def __post_init__(self):
        ids = [c.id for c in self.candidates]
        if len(ids) != len(set(ids)):
            raise ValueError("candidate ids must be unique")

    def by_id(self, cid: int) -> Candidate:
        for c in self.candidates:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def __len__(self) -> int:
        return len(self.candidates)


def boundary(obs: Observation) -> Boundary:
    """Navigable boundary: one point per ray of positive depth, at that depth.

    In the simulator every sensed direction is free floor up to its depth,
    and the first surface terminates the contiguous extent, which is exactly
    what the ray depth measures.
    """
    depths = np.fromiter(obs.depths, float, obs.n_rays)
    index = np.flatnonzero(depths > 0.0)
    return Boundary(obs.fan, _frozen(index), _frozen(depths[index]))


class _ConflictTable:
    """Which rays of a fan lie too close to each other for ``theta_delta``.

    ``row(k)`` is an int whose byte p (little-endian) is 1 when ray p may not
    be kept next to a kept ray k and 0 otherwise: a conflict is
    ``not abs((theta_p - theta_k + pi) % TWO_PI - pi) >= theta_delta``, the
    float operations of ``angular_distance(theta_p, theta_k)`` in the same
    order (numpy's element-wise operations round as the scalar ones do), so
    a NaN distance is a conflict.  OR-ed rows turn into ``bytes`` that answer
    "does ray p conflict with a kept ray" with one lookup.  Rows are built
    when first asked for.
    """

    __slots__ = ("thetas", "theta_delta", "array", "rows")

    def __init__(self, fan: Fan, theta_delta: float):
        self.thetas = fan.thetas
        self.theta_delta = theta_delta
        self.array = np.array(fan.thetas, dtype=float)
        self.rows: List[Optional[int]] = [None] * len(fan.thetas)

    def row(self, k: int) -> int:
        row = self.rows[k]
        if row is None:
            with np.errstate(invalid="ignore"):
                far = np.abs((self.array - self.thetas[k] + math.pi) % TWO_PI - math.pi) \
                    >= self.theta_delta
            row = self.rows[k] = int.from_bytes((~far).tobytes(), "little")
        return row


# one table per fan and gap, built on first use and kept: a fan hashes as
# itself, the sensor builds each fan once, and a run samples at one gap
_conflict_table = functools.lru_cache(maxsize=None)(_ConflictTable)


def sample_initial(points: Boundary, alpha: float, theta_delta: float,
                   r_min: float) -> CandidateSet:
    """Greedy far-first selection with a minimum angular gap.

    Points are scaled by the safety factor alpha, those falling under r_min
    are dropped, and the rest are kept in descending-range order provided they
    sit at least theta_delta away from every already-kept point.  Range ties
    prefer straight ahead (smaller |theta|), then smaller theta, then the
    earlier ray.  Ids are assigned 1..n in ascending bearing order.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if not theta_delta >= 0:  # NaN too
        raise ValueError("theta_delta must be >= 0")
    thetas = points.fan.thetas
    table = _conflict_table(points.fan, theta_delta)
    scaled = points.depths * alpha
    usable = scaled >= r_min
    rs = scaled[usable]
    index = points.index[usable]
    th = table.array[index]
    # a stable sort by range, descending, then by abs(theta), then by theta;
    # equal keys (-0.0 and 0.0, a repeated bearing) keep ray order
    order = np.lexsort((th, np.abs(th), -rs))
    n = len(thetas)
    blocked, conflicts = 0, bytes(n)  # byte p: ray p conflicts with a kept ray
    kept: List[Tuple[int, float]] = []
    for k, r in zip(index[order].tolist(), rs[order].tolist()):
        if not conflicts[k]:
            kept.append((k, r))
            blocked |= table.row(k)
            conflicts = blocked.to_bytes(n, "little")
    kept_thetas = [thetas[k] for k, _ in kept]
    by_bearing = sorted(range(len(kept)), key=kept_thetas.__getitem__)
    cands = tuple(Candidate(i + 1, kept[j][1], kept_thetas[j])
                  for i, j in enumerate(by_bearing))
    return CandidateSet(cands, alpha, theta_delta, points)


def _boundary_limit(points: Boundary, theta: float) -> float:
    """Conservative traversable extent at an arbitrary bearing.

    Takes the minimum extent over boundary points within one ray gap of the
    bearing; -inf when no boundary support exists there.
    """
    thetas, gap = points.fan.thetas, points.fan.gap
    near = [r for r, k in zip(points.depths.tolist(), points.index.tolist())
            if angular_distance(thetas[k], theta) <= gap]
    return min(near) if near else -math.inf


def apply_filter_response(initial: CandidateSet, removals: Sequence[int],
                          adjustments: Sequence[Adjustment]) -> CandidateSet:
    """Apply backend removals and adjustments under the safety clamps.

    An adjustment is dropped (keeping the original candidate) unless all of:
    it references a surviving id, moves the bearing by at most theta_delta/2,
    stays inside the field of view of ``initial.points``' fan, keeps a
    positive range no larger than the candidate's original range, respects
    the traversable extent of ``initial.points`` at the new bearing, and
    preserves the pairwise angular separation of the set.
    """
    half_fov = initial.points.fan.fov / 2.0
    removed = set(removals)
    survivors = [c for c in initial.candidates if c.id not in removed]
    adj_by_id = {a.id: a for a in adjustments}

    out: List[Candidate] = []
    moved = False
    for c in survivors:
        a = adj_by_id.get(c.id)
        if a is None:
            out.append(c)
            continue
        ok = (
            math.isfinite(a.r) and 0.0 < a.r <= c.r + 1e-9
            and angular_distance(a.theta, c.theta) <= initial.theta_delta / 2.0 + 1e-9
            and abs(a.theta) <= half_fov + 1e-9
            and a.r <= initial.alpha * _boundary_limit(initial.points, a.theta) + 1e-9
        )
        if not ok:
            log.warning("dropping invalid adjustment for candidate %d", c.id)
            out.append(c)
            continue
        out.append(Candidate(c.id, a.r, a.theta))
        moved = True
    if not moved:  # the check below reverts only a moved candidate
        return CandidateSet(tuple(out), initial.alpha, initial.theta_delta, initial.points)

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
