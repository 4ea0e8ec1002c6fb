"""Grid shortest paths for evaluation ground truth.

Paths run on the occupancy grid (objects stamped in) inflated by the agent
radius, 8-connected with sqrt(2)-weighted diagonals, and diagonal moves may
not cut corners past a blocked orthogonal neighbor.  The goal region is every
free cell within the success threshold of a matching object's boundary.
"""
from __future__ import annotations

import heapq
import math
from typing import List, Tuple

import numpy as np

from .errors import Unreachable
from .geometry import AgentBody, Pose
from .goals import GoalSpec
from .world import WorldMap

SQRT2 = math.sqrt(2.0)
# the A* bound's relative slack, far above the rounding of its few operations
_SLACK = 1e-9


def _goal_reach(world: WorldMap, threshold: float, body: AgentBody) -> float:
    """The distance from a matching object's boundary within which a cell
    centre is in the goal region.

    It never drops below agent radius plus one cell: anything tighter admits
    no pose the body could legally occupy.
    """
    return max(threshold, body.radius + world.resolution)


def goal_cells(world: WorldMap, goal: GoalSpec, threshold: float,
               body: AgentBody = AgentBody()) -> np.ndarray:
    """Boolean mask of inflated-free cells within the goal region.

    Each matching object is measured only on its ``disc_cells`` for the
    object radius plus the goal reach; every cell outside lies farther away.
    """
    matching = goal.matching_objects(world)
    free = world.free_with_clearance(body.radius)
    eff = _goal_reach(world, threshold, body)
    near = np.full(free.shape, np.inf)
    for o in matching:
        box, dist = world.disc_cells(*o.center, o.radius + eff)
        np.minimum(near[box], dist - o.radius, out=near[box])
    return free & (near <= eff)


def shortest_path(world: WorldMap, start: Pose, goal: GoalSpec, threshold: float,
                  body: AgentBody = AgentBody()) -> float:
    """Metric length of the shortest grid path from start into the goal region.

    A* (Hart, Nilsson & Raphael 1968) over a grid framed by one blocked cell,
    so a move needs no bounds test.  It returns the bits Dijkstra would:

    * Float addition is monotone, so the least distance ``D`` of a cell, the
      least sequentially rounded sum over the paths reaching it, obeys
      ``D(j) = min(D(i) + w)`` over its neighbours, and the goal's ``G*`` is
      the least ``D`` of a goal cell.  Heap entries are ``(g + h, g, cell)``;
      a stale entry (``g`` above the cell's best) is skipped, and a cell is
      pushed again whenever its ``g`` improves, so the search stays exact
      even where the bound is not consistent.
    * ``h`` is a lower bound, in cells, on the length of every path from the
      cell into the goal region: the distance from the cell centre to the
      nearest matching disc grown by the goal reach, less a relative slack
      of 1e-9 on each term (far above the rounding of ``hypot`` and the
      subtractions) and an absolute one of 1e-6 + 2e-16 * cells**2 (above
      the rounding of a sum of at most ``cells`` moves).
    * Until a goal cell pops, some cell on the path that realises ``G*``
      sits in the heap with its least ``g`` and a key of at most ``G*``, so
      no goal cell with a larger ``g`` pops first.  A goal cell's centre
      lies within the goal reach of a disc, so the slack makes its ``h``
      exactly 0 and its key its ``g``.  (An ``h`` there below -1e-6, the
      absolute slack of every other bound, would let a goal whose ``g``
      exceeds ``G*`` by a rounding error pop first; a pinned grid in
      ``tests/test_planning.py`` shows it.)
    """
    goals = goal_cells(world, goal, threshold, body)
    if not goals.any():
        raise Unreachable(f"goal region for {goal.text!r} is empty after inflation")
    h, w = goals.shape
    if not world.in_bounds(start.x, start.y):
        raise Unreachable("start pose lies outside the world")
    six, siy = world.cell_of(start.x, start.y)
    if six >= w or siy >= h:  # x / res may round up to the width just inside it
        raise Unreachable("start pose lies outside the world")
    res = world.resolution
    stride = w + 2
    free = np.pad(world.free_with_clearance(body.radius), 1).tobytes()
    is_goal = np.pad(goals, 1).tobytes()

    # the centres goal_cells measures, indexed by framed column and row
    xs = [0.0, *((np.arange(w) + 0.5) * res).tolist()]
    ys = [0.0, *((np.arange(h) + 0.5) * res).tolist()]
    eff = _goal_reach(world, threshold, body)
    discs = [(*o.center, (o.radius + eff) * (1.0 + _SLACK))
             for o in goal.matching_objects(world)]
    shrink, scale = 1.0 - _SLACK, (1.0 - _SLACK) / res
    tol = 1e-6 + 2e-16 * float(h * w) ** 2

    def bound(j: int) -> float:
        iy, ix = divmod(j, stride)
        x, y = xs[ix], ys[iy]
        low = math.inf
        for ox, oy, grown in discs:
            v = (math.hypot(x - ox, y - oy) * shrink - grown) * scale - tol
            if v < low:
                low = v
        return low if low > 0.0 else 0.0

    # a start cell the mask blocks is still trusted: the search expands it
    # without a test, and the only other use of its mask, as the corner of a
    # diagonal between two of its neighbours, cannot matter, since the start
    # reaches both neighbours in one straight move
    src = (siy + 1) * stride + six + 1
    straight = (-stride, -1, 1, stride)
    # a diagonal move may not cut a corner: both orthogonal cells must be free
    diagonal = tuple((dy * stride + dx, dy * stride, dx)
                     for dy in (-1, 1) for dx in (-1, 1))
    dist = [math.inf] * len(free)
    dist[src] = 0.0
    pq: List[Tuple[float, float, int]] = [(0.0, 0.0, src)]
    push, pop = heapq.heappush, heapq.heappop
    while pq:
        _, d, i = pop(pq)
        if d > dist[i]:
            continue
        if is_goal[i]:
            return d * res
        nd = d + 1.0
        for off in straight:
            j = i + off
            if free[j] and nd < dist[j]:
                dist[j] = nd
                push(pq, (nd + bound(j), nd, j))
        nd = d + SQRT2
        for off, oy, ox in diagonal:
            j = i + off
            if free[j] and free[i + oy] and free[i + ox] and nd < dist[j]:
                dist[j] = nd
                push(pq, (nd + bound(j), nd, j))
    raise Unreachable(f"no collision-free path reaches {goal.text!r}")
