"""Depth-and-label raycast sensor over the occupancy world.

``sense`` casts ``n_rays`` rays uniformly across the field of view and returns
the fan as columns: per ray, the exact distance to the first blocking surface
(obstacle cell or object disc) capped at the sensing range, and the index of
what was hit in a table of the distinct hits.  The wire carries the same
columns and table (``dynav.backends.protocol``), so no layer builds a record
per ray.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import PoseOutOfBounds
from .geometry import AgentBody, Pose, normalize_angle
from .world import OBSTACLE, WorldMap

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


@dataclass(frozen=True)
class Observation:
    """The fan of one step, as columns.

    ``thetas`` are the ray bearings relative to the heading, in radians and
    wrapped by ``normalize_angle``; every observation of one fan shares the
    one tuple.  ``depths[i]`` is ray i's depth in meters, capped at the
    sensing range, and ``hits[hit[i]]`` what it hit.  ``hits`` holds each
    distinct entry once, in order of first appearance along the fan.
    """

    pose: Pose
    thetas: Tuple[float, ...]
    depths: Tuple[float, ...]
    hit: Tuple[int, ...]
    hits: Tuple[HitEntry, ...]
    fov: float
    step: int = 0

    @property
    def n_rays(self) -> int:
        return len(self.thetas)


def _object_raycast(world: WorldMap, x0: float, y0: float, dx: np.ndarray, dy: np.ndarray,
                    t_max: float) -> Tuple[List[float], List[int]]:
    """Per ray, the nearest positive ray-disc intersection among all objects.

    Returns the distances (inf on a miss) and the object indices (-1 on a
    miss).  Rays are processed together, one object at a time; each ray sees
    the same operations, in the same order, as a ray-by-ray loop would do.
    """
    best_t = np.full(len(dx), math.inf)
    best_i = np.full(len(dx), -1)
    for i, obj in enumerate(world.objects):
        ocx = obj.center[0] - x0
        ocy = obj.center[1] - y0
        b = ocx * dx + ocy * dy
        disc = b * b - (ocx * ocx + ocy * ocy - obj.radius * obj.radius)
        # a disc at or below _TIE is a miss; clamping it keeps sqrt defined
        t = b - np.sqrt(np.maximum(disc, 0.0))
        # t <= 1e-9: behind the sensor, or the sensor sits inside the disc
        hit = (disc > _TIE) & (t > 1e-9) & (t <= t_max) & (t < best_t)
        best_t[hit] = t[hit]
        best_i[hit] = i
    return best_t.tolist(), best_i.tolist()


@functools.lru_cache(maxsize=64, typed=True)
def _fan(n_rays: int, fov: float) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """The fan's ray angles relative to the heading, and the same wrapped by
    ``normalize_angle`` as an ``Observation`` reports them."""
    half = fov / 2.0
    thetas = tuple(-half + fov * i / (n_rays - 1) for i in range(n_rays))
    return thetas, tuple(normalize_angle(theta) for theta in thetas)


def sense(world: WorldMap, pose: Pose, body: AgentBody, n_rays: int,
          fov: float = DEFAULT_FOV, step: int = 0) -> Observation:
    """Cast a fan of rays from the pose and report depth plus semantic hits.

    The walk appends one depth and one hit code per ray; the table of
    distinct hits is built from the codes once the fan is done.

    Ray angles are strictly increasing and span exactly [-fov/2, +fov/2].
    Depth is the distance to the first obstacle cell or object disc along the
    ray, capped at the body's sensing range; occlusion follows depth order.

    Walls come from the exact voxel traversal of Amanatides & Woo over
    ``WorldMap.framed_cells``.  Every ray starts in the pose's cell, and the
    first crossing and crossing spacing of all rays are set up together in
    numpy, whose element-wise operations round as the scalar ones do; a ray
    with no x (y) movement never crosses along x (y).  Ties where a ray
    crosses a cell corner step both axes at once, so zero-length grazes are
    not reported as hits.
    """
    if n_rays < 2:
        raise ValueError("at least two rays are required")
    x0, y0 = pose.x, pose.y
    if not world.in_bounds(x0, y0):
        raise PoseOutOfBounds(f"pose ({x0:.2f}, {y0:.2f}) is outside the world")
    d_max = body.max_sense
    thetas, rel_thetas = _fan(n_rays, fov)
    # math.cos/sin, not numpy's: they round differently in the last bit
    dxs = [math.cos(pose.heading + theta) for theta in thetas]
    dys = [math.sin(pose.heading + theta) for theta in thetas]
    dx_arr, dy_arr = np.array(dxs), np.array(dys)
    t_objs, obj_is = _object_raycast(world, x0, y0, dx_arr, dy_arr, d_max)

    res = world.resolution
    ix = int(x0 / res)
    iy = int(y0 / res)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_next_xs = np.where(dx_arr != 0.0, ((ix + (dx_arr > 0)) * res - x0) / dx_arr,
                             math.inf).tolist()
        t_next_ys = np.where(dy_arr != 0.0, ((iy + (dy_arr > 0)) * res - y0) / dy_arr,
                             math.inf).tolist()
        dt_xs = (res / np.abs(dx_arr)).tolist()
        dt_ys = (res / np.abs(dy_arr)).tolist()
    cells = world.framed_cells()
    stride = world.width_cells + 2
    k0 = (iy + 1) * stride + ix + 1
    start = cells[k0]
    depths: List[float] = []
    codes: List[int] = []  # an object's index, _WALL or _NOTHING
    for dx, dy, t_next_x, dt_x, t_next_y, dt_y, t_obj, obj_i in zip(
            dxs, dys, t_next_xs, dt_xs, t_next_ys, dt_ys, t_objs, obj_is):
        if start:  # an obstacle, or the frame when rounding puts the start past the edge
            t_wall = 0.0 if start == OBSTACLE else math.inf
        else:
            # a wall only matters up to the object the ray already hits
            t_max = min(d_max, t_obj)
            # walk the flat index: one cell along x, along y, or both at a corner
            step_x = 1 if dx > 0 else -1
            step_y = stride if dy > 0 else -stride
            step_xy = step_x + step_y
            k = k0
            while True:
                if t_next_x < t_next_y - _TIE:
                    t_enter = t_next_x
                    t_next_x += dt_x
                    k += step_x
                elif t_next_y < t_next_x - _TIE:
                    t_enter = t_next_y
                    t_next_y += dt_y
                    k += step_y
                else:  # corner crossing: skip the zero-chord diagonal neighbors
                    t_enter = t_next_x
                    t_next_x += dt_x
                    t_next_y += dt_y
                    k += step_xy
                if t_enter > t_max:
                    t_wall = math.inf
                    break
                cell = cells[k]
                if cell:  # an obstacle, or the frame past the grid's edge
                    t_wall = t_enter if cell == OBSTACLE else math.inf
                    break
        if obj_i >= 0 and t_obj <= t_wall:
            depths.append(t_obj)
            codes.append(obj_i)
        elif t_wall <= d_max:
            depths.append(t_wall)
            codes.append(_WALL)
        else:
            depths.append(d_max)
            codes.append(_NOTHING)
    # object names are unique and never "wall", so distinct codes are
    # distinct entries; dict order is the order of first appearance
    index = {code: i for i, code in enumerate(dict.fromkeys(codes))}
    hits = tuple(("wall", (), ()) if code == _WALL else (None, (), ()) if code == _NOTHING
                 else _object_entry(world.objects[code]) for code in index)
    return Observation(pose=pose, thetas=rel_thetas, depths=tuple(depths),
                       hit=tuple(map(index.__getitem__, codes)), hits=hits, fov=fov, step=step)


def _object_entry(obj) -> HitEntry:
    return obj.name, obj.attributes, tuple(sorted(obj.tags))


def traversability_mask(obs: Observation, epsilon: float = 0.0,
                        rng: Optional[random.Random] = None) -> List[bool]:
    """Per-ray ground-truth traversability, optionally corrupted.

    In the simulator every sensed direction is traversable floor up to its
    reported depth, so the ground truth mask is all True.  With probability
    ``epsilon`` a ray is flipped to False to emulate segmentation misses.
    """
    mask = [True] * obs.n_rays
    if epsilon > 0.0:
        if rng is None:
            rng = random.Random(0)
        mask = [rng.random() >= epsilon for _ in range(obs.n_rays)]
    return mask
