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

from .errors import Unreachable, UnresolvableGoal
from .geometry import AgentBody, Pose
from .goals import GoalSpec
from .world import WorldMap

SQRT2 = math.sqrt(2.0)


def goal_cells(world: WorldMap, goal: GoalSpec, threshold: float,
               body: AgentBody = AgentBody()) -> np.ndarray:
    """Boolean mask of inflated-free cells within the goal region.

    The effective threshold never drops below agent radius plus one cell:
    anything tighter admits no pose the body could legally occupy.  Each
    matching object is measured only on the cells of its bounding box padded
    by that threshold plus one cell; every cell outside lies farther away.
    """
    matching = [o for o in world.objects if goal.matches(o)]
    if not matching:
        raise UnresolvableGoal(f"no object matches goal {goal.text!r}")
    free = world.free_with_clearance(body.radius)
    eff = max(threshold, body.radius + world.resolution)
    h, w = free.shape
    res = world.resolution
    near = np.full(free.shape, np.inf)
    for o in matching:
        (ox, oy), reach = o.center, o.radius + eff
        x0, x1 = max(int((ox - reach) / res) - 1, 0), min(int((ox + reach) / res) + 2, w)
        y0, y1 = max(int((oy - reach) / res) - 1, 0), min(int((oy + reach) / res) + 2, h)
        cx = (np.arange(x0, x1) + 0.5) * res
        cy = (np.arange(y0, y1) + 0.5) * res
        box = near[y0: y1, x0: x1]
        np.minimum(box, np.hypot(cx - ox, cy[:, None] - oy) - o.radius, out=box)
    return free & (near <= eff)


def shortest_path(world: WorldMap, start: Pose, goal: GoalSpec, threshold: float,
                  body: AgentBody = AgentBody()) -> float:
    """Metric length of the shortest grid path from start into the goal region.

    Dijkstra over flat lists of a grid framed by one blocked cell, so a move
    needs no bounds test.  Float addition is monotone, so the popped distance
    of a cell is the least sequentially rounded path sum whatever order the
    heap breaks ties in.
    """
    goals = goal_cells(world, goal, threshold, body)
    if not goals.any():
        raise Unreachable(f"goal region for {goal.text!r} is empty after inflation")
    h, w = goals.shape
    six, siy = world.cell_of(start.x, start.y)
    if not (0 <= six < w and 0 <= siy < h):
        raise Unreachable("start pose lies outside the world")
    stride = w + 2
    free = np.pad(world.free_with_clearance(body.radius), 1).ravel().tolist()
    is_goal = np.pad(goals, 1).ravel().tolist()
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
    pq: List[Tuple[float, int]] = [(0.0, src)]
    push, pop = heapq.heappush, heapq.heappop
    while pq:
        d, i = pop(pq)
        if d > dist[i]:
            continue
        if is_goal[i]:
            return d * world.resolution
        nd = d + 1.0
        for off in straight:
            j = i + off
            if free[j] and nd < dist[j]:
                dist[j] = nd
                push(pq, (nd, j))
        nd = d + SQRT2
        for off, oy, ox in diagonal:
            j = i + off
            if free[j] and free[i + oy] and free[i + ox] and nd < dist[j]:
                dist[j] = nd
                push(pq, (nd, j))
    raise Unreachable(f"no collision-free path reaches {goal.text!r}")
