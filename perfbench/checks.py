"""Output checks that share no code with dynav.

Every check takes plain data (numpy grids, tuples, dicts parsed from the
program's JSON output) and recomputes the expected value from first
principles: goal matching, Dijkstra on the radius-inflated grid, brute-force
clearance, trajectory length and the SPL formula.  Each function returns a list
of problem strings; an empty list means the output passed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

SHORTEST_TOL = 1e-9      # path sums may add the same edge weights in another order
CLEARANCE_TOL = 1e-9     # motion may end exactly in contact with a surface
LENGTH_TOL = 1e-9        # relative; measured drift is about 1e-13
SPL_TOL = 1e-12


@dataclass(frozen=True)
class Obj:
    name: str
    category: str
    x: float
    y: float
    radius: float
    attributes: Tuple[str, ...]


@dataclass(frozen=True)
class World:
    """A world as plain data: obstacle mask (rows are y), cell size, objects."""

    obstacle: np.ndarray
    resolution: float
    objects: Tuple[Obj, ...]

    @property
    def width_m(self) -> float:
        return self.obstacle.shape[1] * self.resolution

    @property
    def height_m(self) -> float:
        return self.obstacle.shape[0] * self.resolution


def goal_matches(goal: dict, obj: Obj) -> bool:
    """Name goals match a category; descriptions add attributes; instances
    match on attributes alone."""
    attrs = set(goal.get("attributes", ()))
    if goal["kind"] == "name":
        return obj.category == goal["category"]
    if goal["kind"] == "description":
        return obj.category == goal["category"] and attrs <= set(obj.attributes)
    return attrs <= set(obj.attributes)


def _cell_centres(world: World) -> Tuple[np.ndarray, np.ndarray]:
    h, w = world.obstacle.shape
    ys, xs = np.mgrid[0:h, 0:w]
    return (xs + 0.5) * world.resolution, (ys + 0.5) * world.resolution


def inflated_free(world: World, radius: float) -> np.ndarray:
    """Cells whose centre lies farther than ``radius`` from any blocked cell;
    a cell is blocked by an obstacle or by an object disc covering its centre."""
    cx, cy = _cell_centres(world)
    blocked = world.obstacle.copy()
    for o in world.objects:
        blocked |= np.hypot(cx - o.x, cy - o.y) <= o.radius
    dist = ndimage.distance_transform_edt(~blocked, sampling=world.resolution)
    return dist > radius


def dijkstra_shortest(world: World, start_xy: Tuple[float, float], goal: dict,
                      threshold: float, radius: float) -> float:
    """Shortest 8-connected path (no corner cutting) on the inflated grid from
    the start cell into any free cell near a matching object; inf if none."""
    res = world.resolution
    free = inflated_free(world, radius)
    h, w = free.shape
    cx, cy = _cell_centres(world)
    near = np.full(free.shape, np.inf)
    for o in world.objects:
        if goal_matches(goal, o):
            near = np.minimum(near, np.hypot(cx - o.x, cy - o.y) - o.radius)
    goal_mask = free & (near <= max(threshold, radius + res))
    if not goal_mask.any():
        return math.inf
    sx, sy = int(start_xy[0] / res), int(start_xy[1] / res)
    free[sy, sx] = True  # the agent occupies its own cell even if inflation covers it

    ids = np.arange(h * w).reshape(h, w)
    rows, cols, weights = [], [], []
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            ys = slice(max(0, -dy), h - max(0, dy))
            xs = slice(max(0, -dx), w - max(0, dx))
            ys2 = slice(max(0, dy), h - max(0, -dy))
            xs2 = slice(max(0, dx), w - max(0, -dx))
            ok = free[ys, xs] & free[ys2, xs2]
            if dx and dy:
                ok &= free[ys, xs2] & free[ys2, xs]
            rows.append(ids[ys, xs][ok])
            cols.append(ids[ys2, xs2][ok])
            weights.append(np.full(int(ok.sum()), math.sqrt(2.0) if dx and dy else 1.0))
    graph = csr_matrix((np.concatenate(weights),
                        (np.concatenate(rows), np.concatenate(cols))), shape=(h * w, h * w))
    dist = dijkstra(graph, indices=int(ids[sy, sx]))
    return float(dist[goal_mask.ravel()].min()) * res


def min_clearance(world: World, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest obstacle cell square, object
    disc or map border, by comparing against every one of them."""
    res = world.resolution
    iy, ix = np.nonzero(world.obstacle)
    x0, x1 = ix * res, (ix + 1) * res
    y0, y1 = iy * res, (iy + 1) * res
    out = np.minimum.reduce([xs, ys, world.width_m - xs, world.height_m - ys])
    for lo in range(0, len(xs), 64):
        px = xs[lo:lo + 64, None]
        py = ys[lo:lo + 64, None]
        dx = np.maximum(np.maximum(x0 - px, 0.0), px - x1)
        dy = np.maximum(np.maximum(y0 - py, 0.0), py - y1)
        if len(ix):
            out[lo:lo + 64] = np.minimum(out[lo:lo + 64], np.hypot(dx, dy).min(axis=1))
    for o in world.objects:
        out = np.minimum(out, np.hypot(xs - o.x, ys - o.y) - o.radius)
    return out


def check_episode(world: World, goals: Sequence[dict], result: dict,
                  step_poses: Sequence[Tuple[float, float]], threshold: float,
                  radius: float) -> List[str]:
    """Check one episode's result record against its world and step log.

    ``step_poses`` holds the pose of every logged step in order; goal ``i``
    owns the next ``result["goals"][i]["steps"]`` of them, so its first one is
    where the goal started and, for a goal that stopped, its last one is where
    the agent stopped.
    """
    eid = result["episode_id"]
    problems: List[str] = []
    grs = result["goals"]
    if len(grs) != len(goals):
        return [f"{eid}: {len(grs)} goal results for {len(goals)} goals"]
    if sum(g["steps"] for g in grs) != len(step_poses):
        return [f"{eid}: goal steps sum to {sum(g['steps'] for g in grs)}, "
                f"step log has {len(step_poses)} records"]
    at = 0
    for i, (goal, gr) in enumerate(zip(goals, grs)):
        if gr["steps"] == 0:
            problems.append(f"{eid} goal {i}: no steps taken")
            continue
        poses = step_poses[at: at + gr["steps"]]
        at += gr["steps"]
        if gr["success"]:
            fx, fy = poses[-1]
            d = min((math.hypot(fx - o.x, fy - o.y) - o.radius
                     for o in world.objects if goal_matches(goal, o)), default=math.inf)
            if d > threshold:
                problems.append(f"{eid} goal {i}: final pose is {d:.4f} m from the "
                                f"nearest matching object")
        expected = dijkstra_shortest(world, poses[0], goal, threshold, radius)
        got = math.inf if gr["shortest"] is None else gr["shortest"]
        if not (got == expected or abs(got - expected) <= SHORTEST_TOL):
            problems.append(f"{eid} goal {i}: shortest {got!r}, Dijkstra gives {expected!r}")

    traj = np.asarray(result["trajectory"], dtype=float).reshape(-1, 3)
    clear = min_clearance(world, traj[:, 0], traj[:, 1])
    worst = int(np.argmin(clear))
    if clear[worst] < radius - CLEARANCE_TOL:
        problems.append(f"{eid}: trajectory pose {worst} is {clear[worst]:.6f} m from "
                        f"the nearest surface, under the agent radius {radius}")
    length = float(np.hypot(np.diff(traj[:, 0]), np.diff(traj[:, 1])).sum())
    claimed = sum(g["path_length"] for g in grs)
    if abs(length - claimed) > LENGTH_TOL * max(1.0, length):
        problems.append(f"{eid}: goal path lengths sum to {claimed!r}, "
                        f"trajectory is {length!r} m long")
    return problems


def spl(results: Sequence[dict]) -> float:
    """Mean over reachable goals of S * l / max(p, l) (Anderson et al. 2018)."""
    terms = []
    for r in results:
        for g in r["goals"]:
            if g["unreachable"] or g["shortest"] is None:
                continue
            denom = max(g["path_length"], g["shortest"])
            terms.append(0.0 if not g["success"] else
                         (1.0 if denom <= 0.0 else g["shortest"] / denom))
    return sum(terms) / len(terms) if terms else math.nan


def check_spl(results: Sequence[dict], reported: float) -> List[str]:
    expected = spl(results)
    if not abs(expected - reported) <= SPL_TOL:
        return [f"reported SPL {reported!r}, the formula gives {expected!r}"]
    return []


def check_same(label: str, got: Sequence[dict], want: Sequence[dict]) -> List[str]:
    """Result records must be identical, episode by episode."""
    want_by_id: Dict[str, dict] = {r["episode_id"]: r for r in want}
    problems = []
    if len(got) != len(want):
        problems.append(f"{label}: {len(got)} episodes, expected {len(want)}")
    for r in got:
        if want_by_id.get(r["episode_id"]) != r:
            problems.append(f"{label}: episode {r['episode_id']} differs")
    return problems
