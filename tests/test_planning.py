"""Grid shortest-path ground truth, checked against a sparse-graph solver."""
import math
import random

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from dynav.errors import Unreachable, UnresolvableGoal
from dynav.geometry import AgentBody, Pose
from dynav.goals import GoalSpec
from dynav.planning import SQRT2, goal_cells, shortest_path
from dynav.world import OBSTACLE, SemanticObject, WorldMap

from conftest import empty_world, make_pose, random_grid_world


def csgraph_shortest(world, start, goal, threshold, body):
    """Independent reference: same adjacency rules, solved by scipy's dijkstra."""
    free = np.array(world.free_with_clearance(body.radius))
    six, siy = world.cell_of(start.x, start.y)
    free[siy, six] = True
    h, w = free.shape

    def idx(x, y):
        return y * w + x

    rows, cols, data = [], [], []
    for y in range(h):
        for x in range(w):
            if not free[y, x]:
                continue
            for dx, dy, cost in ((1, 0, 1.0), (0, 1, 1.0), (1, 1, SQRT2), (1, -1, SQRT2)):
                nx, ny = x + dx, y + dy
                if not (0 <= nx < w and 0 <= ny < h and free[ny, nx]):
                    continue
                if dx and dy and not (free[y, nx] and free[ny, x]):
                    continue
                rows.append(idx(x, y))
                cols.append(idx(nx, ny))
                data.append(cost)
    m = csr_matrix((data, (rows, cols)), shape=(h * w, h * w))
    dist = dijkstra(m, directed=False, indices=idx(six, siy))
    goals = goal_cells(world, goal, threshold, body)
    best = min(dist[idx(x, y)] for (y, x) in np.argwhere(goals))
    return best * world.resolution


def place_object(world_grid, rng, resolution=0.1):
    """Drop a disc on a random cell with decent grid clearance; None if impossible."""
    bare = WorldMap(np.array(world_grid), resolution)
    candidates = np.argwhere(bare.free_with_clearance(0.35))
    if not len(candidates):
        return None
    iy, ix = candidates[rng.randrange(len(candidates))]
    x, y = bare.cell_center(int(ix), int(iy))
    return SemanticObject(name="target", category="box", center=(x, y), radius=0.2)


def test_straight_corridor_exact_length():
    obj = SemanticObject(name="t", category="box", center=(8.05, 4.05), radius=0.25)
    world = empty_world(10.0, 8.0, objects=[obj])
    d = shortest_path(world, make_pose(2.05, 4.05), GoalSpec.name_goal("box"), 0.3)
    # straight shot down the row: the goal band starts 5.5 m ahead
    assert d == pytest.approx(5.5, abs=1e-9)


def test_start_inside_goal_region_is_zero():
    obj = SemanticObject(name="t", category="box", center=(5.0, 4.0), radius=0.3)
    world = empty_world(10.0, 8.0, objects=[obj])
    d = shortest_path(world, make_pose(5.0, 4.55), GoalSpec.name_goal("box"), 0.3)
    assert d == 0.0


def test_goal_cells_threshold_floor(plant_world, body):
    # a 1 cm threshold is unreachable for a 17 cm body; the floor keeps a band
    mask = goal_cells(plant_world, GoalSpec.name_goal("plant"), 0.01, body)
    assert mask.any()
    free = plant_world.free_with_clearance(body.radius)
    assert not (mask & ~free).any()
    ys, xs = np.nonzero(mask)
    eff = body.radius + plant_world.resolution
    for iy, ix in zip(ys, xs):
        cx, cy = plant_world.cell_center(int(ix), int(iy))
        assert math.hypot(cx - 8.0, cy - 4.0) - 0.3 <= eff + 1e-9


def test_unresolvable_and_unreachable():
    obj = SemanticObject(name="t", category="box", center=(8.0, 4.0), radius=0.3)
    world = empty_world(10.0, 8.0, objects=[obj])
    with pytest.raises(UnresolvableGoal):
        shortest_path(world, make_pose(2.0, 4.0), GoalSpec.name_goal("sofa"), 0.3)

    grid = np.array(world.grid)
    grid[:, 60] = OBSTACLE  # solid wall sealing the object away
    sealed = WorldMap(grid, world.resolution, [obj])
    with pytest.raises(Unreachable):
        shortest_path(sealed, make_pose(2.0, 4.0), GoalSpec.name_goal("box"), 0.3)


def test_start_cell_is_trusted():
    # the start hugs a wall closer than the inflation radius; path still exists
    obj = SemanticObject(name="t", category="box", center=(8.0, 4.0), radius=0.3)
    world = empty_world(10.0, 8.0, objects=[obj])
    d = shortest_path(world, make_pose(0.25, 4.05), GoalSpec.name_goal("box"), 0.3)
    assert math.isfinite(d) and d > 6.0


@pytest.mark.parametrize("seed", range(10))
def test_matches_sparse_graph_reference(seed, body):
    rng = random.Random(seed)
    base = random_grid_world(rng, n=40, fill=0.15)
    obj = place_object(base.grid, rng)
    assert obj is not None
    world = WorldMap(np.array(base.grid), base.resolution, [obj])
    free = world.free_with_clearance(body.radius)
    cells = np.argwhere(free)
    iy, ix = cells[rng.randrange(len(cells))]
    start = Pose(*world.cell_center(int(ix), int(iy)), 0.0)
    goal = GoalSpec.name_goal("box")
    if not goal_cells(world, goal, 0.3, body).any():
        with pytest.raises(Unreachable):
            shortest_path(world, start, goal, 0.3, body)
        return
    try:
        got = shortest_path(world, start, goal, 0.3, body)
    except Unreachable:
        assert math.isinf(csgraph_shortest(world, start, goal, 0.3, body))
        return
    assert got == pytest.approx(csgraph_shortest(world, start, goal, 0.3, body), abs=1e-9)
