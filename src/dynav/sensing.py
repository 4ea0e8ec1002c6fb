"""Depth-and-label raycast sensor over the occupancy world.

``sense`` casts ``n_rays`` rays uniformly across the field of view and returns
the fan as columns: per ray, the exact distance to the first blocking surface
(obstacle cell or object disc) capped at the sensing range, and the index of
what was hit in a table of the distinct hits.  Every stage is a numpy pass
over the whole fan: the ray set-up, the object discs, the wall distances
(``WorldMap.wall_distances``, a cast against the world's wall runs that walks
cell by cell only the rays grazing a grid corner) and the choice of depth
and hit.  The wire carries the same columns and table
(``dynav.backends.protocol``), so no layer builds a record per ray.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Tuple

import numpy as np

from .errors import PoseOutOfBounds
from .geometry import AgentBody, Pose, normalize_angle
from .world import WorldMap

DEFAULT_FOV = math.radians(131.0)

_TIE = 1e-12

# hit codes of the walk that are not object indices
_WALL = -1
_NOTHING = -2

# (label, attributes, tags): ``label`` is ``"wall"`` for an obstacle cell, the
# object's name for an object disc (no object may be named ``"wall"``) and
# None when nothing lies within range; ``attributes`` and ``tags`` are the hit
# object's, tags sorted, and empty otherwise
HitEntry = Tuple[Optional[str], Tuple[str, ...], Tuple[str, ...]]


@dataclass(frozen=True, eq=False)
class Fan:
    """The bearings of a fan of rays, which every observation of that fan
    shares: ``_fan`` builds each fan once.

    ``thetas`` are the ray bearings relative to the heading, in radians and
    wrapped by ``normalize_angle``; ``fov`` is the field of view they span.
    A fan equals and hashes as itself alone (equal bearings may differ in the
    sign of a zero), so it keys what is worked out once per fan.
    """

    thetas: Tuple[float, ...]
    fov: float

    @functools.cached_property
    def degrees(self) -> Tuple[float, ...]:
        """The bearings in degrees, as the wire carries them."""
        return tuple(map(math.degrees, self.thetas))

    @property
    def gap(self) -> float:
        """The angle between neighbouring rays."""
        return self.fov / max(1, len(self.thetas) - 1)


@dataclass(frozen=True)
class Observation:
    """The fan of one step, as columns.

    ``fan`` holds the ray bearings; ``depths[i]`` is ray i's depth in meters,
    capped at the sensing range, and ``hits[hit[i]]`` what it hit.  ``hits``
    holds each distinct entry once, in order of first appearance along the
    fan.
    """

    pose: Pose
    fan: Fan
    depths: Tuple[float, ...]
    hit: Tuple[int, ...]
    hits: Tuple[HitEntry, ...]
    step: int = 0

    @property
    def n_rays(self) -> int:
        return len(self.depths)


def _object_raycast(world: WorldMap, x0: float, y0: float, dirs: np.ndarray,
                    t_max: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per ray, the nearest positive ray-disc intersection among all objects.

    Returns the distances (inf on a miss) and the object indices (``_NOTHING``
    on a miss).  All objects and rays are cast in one (objects x rays)
    broadcast over the world's disc columns; each pair sees the same
    operations, in the same order, as a scalar ray-disc test would do, and the
    first least distance wins, as a per-object scan that replaces its best
    only on a strictly nearer hit would decide.
    """
    n = dirs.shape[1]
    if not world.objects:
        return np.full(n, math.inf), np.full(n, _NOTHING)
    centres, rr = world.disc_columns()
    oc = centres - np.array((x0, y0))[:, None, None]
    b, sq = oc * dirs[:, None], oc * oc
    b = b[0] + b[1]
    disc = b * b - (sq[0] + sq[1] - rr)
    # a disc at or below _TIE is a miss; clamping it keeps sqrt defined
    t = b - np.sqrt(np.maximum(disc, 0.0))
    # t <= 1e-9: behind the sensor, or the sensor sits inside the disc
    np.putmask(t, (disc <= _TIE) | (t <= 1e-9) | (t > t_max), math.inf)
    first = t.argmin(axis=0)
    best_t = t[first, np.arange(n)]
    return best_t, np.where(best_t < math.inf, first, _NOTHING)


@functools.lru_cache(maxsize=None, typed=True)
def _fan(n_rays: int, fov: float) -> Tuple[np.ndarray, Fan]:
    """The fan's ray angles relative to the heading, as a read-only array,
    and its ``Fan``, whose bearings are them wrapped by ``normalize_angle``."""
    half = fov / 2.0
    thetas = [-half + fov * i / (n_rays - 1) for i in range(n_rays)]
    angles = np.array(thetas)
    angles.setflags(write=False)
    return angles, Fan(tuple(map(normalize_angle, thetas)), fov)


def sense(world: WorldMap, pose: Pose, body: AgentBody, n_rays: int,
          fov: float = DEFAULT_FOV, step: int = 0) -> Observation:
    """Cast a fan of rays from the pose and report depth plus semantic hits.

    Ray angles are strictly increasing and span exactly [-fov/2, +fov/2].
    Depth is the distance to the first obstacle cell or object disc along the
    ray, capped at the body's sensing range; occlusion follows depth order.

    Walls come from the exact voxel traversal of Amanatides & Woo over the
    grid, whose rules ``WorldMap.wall_distances`` states.  It casts all rays
    at once against the world's wall runs and rebuilds each wall distance as
    the traversal's own sum, bit for bit; only a ray whose wall entry lies
    within 1e-7 cells of a grid corner, or every ray of a pose on a grid
    line, is walked cell by cell.  Each depth is the least of the object,
    wall and range distances, each hit code follows from the same
    comparisons, and the table of distinct hits is built from the codes.
    """
    if n_rays < 2:
        raise ValueError("at least two rays are required")
    x0, y0 = pose.x, pose.y
    if not world.in_bounds(x0, y0):
        raise PoseOutOfBounds(f"pose ({x0:.2f}, {y0:.2f}) is outside the world")
    d_max = body.max_sense
    thetas, fan = _fan(n_rays, fov)
    # math.cos/sin, not numpy's: they round differently in the last bit
    angles = (thetas + pose.heading).tolist()
    dirs = np.fromiter(chain(map(math.cos, angles), map(math.sin, angles)), float,
                       2 * n_rays).reshape(2, n_rays)
    t_obj, codes = _object_raycast(world, x0, y0, dirs, d_max)
    # a wall only matters up to the object the ray already hits
    t_wall = world.wall_distances(x0, y0, dirs, np.minimum(t_obj, d_max))
    # per ray: the object when it lies no farther than the wall, else the
    # wall within range, else nothing at the sensing range; a missed object
    # and a missed wall are both inf, and the miss's code is _NOTHING
    depths = np.minimum(np.minimum(t_obj, t_wall), d_max).tolist()
    np.putmask(codes, t_wall < t_obj, _WALL)
    codes = codes.tolist()
    # object names are unique and never "wall", so distinct codes are
    # distinct entries; dict order is the order of first appearance
    index = {code: i for i, code in enumerate(dict.fromkeys(codes))}
    hits = tuple(("wall", (), ()) if code == _WALL else (None, (), ()) if code == _NOTHING
                 else _object_entry(world.objects[code]) for code in index)
    return Observation(pose=pose, fan=fan, depths=tuple(depths),
                       hit=tuple(map(index.__getitem__, codes)), hits=hits, step=step)


def _object_entry(obj) -> HitEntry:
    return obj.name, obj.attributes, tuple(sorted(obj.tags))
