"""Raycast sensor tests against a dense-sampling reference implementation."""
import math
import random

import numpy as np
import pytest

from dynav.errors import PoseOutOfBounds
from dynav.geometry import AgentBody, Pose
from dynav.sensing import DEFAULT_FOV, sense
from dynav.world import OBSTACLE, SemanticObject

from conftest import empty_world, make_pose, rays_of

STEP = 5e-4  # reference march step; bounds the depth error of the oracle


def brute_depth(world, x0, y0, ang, d_max, step=STEP):
    """Reference depth: march the ray densely and report the first blocked point."""
    t = np.arange(step, d_max + step, step)
    xs = x0 + t * np.cos(ang)
    ys = y0 + t * np.sin(ang)
    outside = (xs < 0) | (ys < 0) | (xs >= world.width_m) | (ys >= world.height_m)
    ix = np.clip((xs / world.resolution).astype(int), 0, world.width_cells - 1)
    iy = np.clip((ys / world.resolution).astype(int), 0, world.height_cells - 1)
    blocked = (world.grid[iy, ix] == OBSTACLE) & ~outside
    for obj in world.objects:
        blocked |= np.hypot(xs - obj.center[0], ys - obj.center[1]) <= obj.radius
    hits = np.nonzero(blocked)[0]
    return float(t[hits[0]]) if len(hits) else math.inf


def test_depth_matches_dense_sampling(cluttered_world, body):
    rng = random.Random(3)
    free = cluttered_world.free_with_clearance(body.radius)
    poses = []
    while len(poses) < 12:
        x = rng.uniform(0.5, cluttered_world.width_m - 0.5)
        y = rng.uniform(0.5, cluttered_world.height_m - 0.5)
        ix, iy = cluttered_world.cell_of(x, y)
        if free[iy, ix]:
            poses.append(make_pose(x, y, rng.uniform(0.0, 360.0)))
    for pose in poses:
        obs = sense(cluttered_world, pose, body, n_rays=11)
        for ray in rays_of(obs):
            ref = brute_depth(cluttered_world, pose.x, pose.y,
                              pose.heading + ray.theta, body.max_sense)
            expected = min(ref, body.max_sense)
            assert ray.depth == pytest.approx(expected, abs=2 * STEP)


def test_frozen_depths(box_world, plant_world, body):
    # facing +x from the center of the 10x8 box: wall face at x = 9.9
    obs = sense(box_world, make_pose(5.0, 4.0, 0.0), body, n_rays=61)
    center = rays_of(obs)[30]
    assert center.theta == pytest.approx(0.0, abs=1e-12)
    assert center.depth == pytest.approx(4.9, abs=1e-9)
    assert center[2:] == ("wall", (), ())

    # plant disc center (8, 4) radius 0.3 dead ahead: 3.0 - 0.3
    obs = sense(plant_world, make_pose(5.0, 4.0, 0.0), body, n_rays=61)
    center = rays_of(obs)[30]
    assert center.depth == pytest.approx(2.7, abs=1e-9)
    assert center[2:] == ("plant_1", ("green",), ())

    # facing +y: wall face at y = 7.9
    obs = sense(box_world, make_pose(5.0, 4.0, 90.0), body, n_rays=61)
    assert rays_of(obs)[30].depth == pytest.approx(3.9, abs=1e-9)


def test_out_of_range_reports_no_hit(body):
    world = empty_world(30.0, 8.0, walled=False)
    obs = sense(world, make_pose(2.0, 4.0, 0.0), body, n_rays=5)
    center = rays_of(obs)[2]
    assert center.depth == body.max_sense
    assert center[2:] == (None, (), ())


def test_ray_fan_geometry(box_world, body):
    obs = sense(box_world, make_pose(5.0, 4.0, 137.0), body, n_rays=21)
    thetas = [r.theta for r in rays_of(obs)]
    assert thetas[0] == pytest.approx(-DEFAULT_FOV / 2)
    assert thetas[-1] == pytest.approx(DEFAULT_FOV / 2)
    assert all(b > a for a, b in zip(thetas, thetas[1:]))
    assert obs.fan.fov == DEFAULT_FOV
    assert obs.n_rays == 21


def test_occlusion_orders_by_depth(body):
    near = SemanticObject(name="near", category="chair", center=(3.0, 4.0), radius=0.3,
                          tags={"hazard", "fragile"})
    far = SemanticObject(name="far", category="chair", center=(6.0, 4.0), radius=0.3)
    world = empty_world(10.0, 8.0, objects=[near, far])
    obs = sense(world, make_pose(1.0, 4.0, 0.0), body, n_rays=3)
    center = rays_of(obs)[1]
    assert center[2:] == ("near", (), ("fragile", "hazard"))  # tags sorted
    assert center.depth == pytest.approx(1.7, abs=1e-9)


def test_wall_occludes_object(body):
    hidden = SemanticObject(name="hidden", category="chair", center=(8.0, 4.0), radius=0.3)
    world = empty_world(10.0, 8.0, objects=[hidden])
    grid = np.array(world.grid)
    grid[:, 50] = OBSTACLE  # wall plane at x = 5.0
    from dynav.world import WorldMap

    world = WorldMap(grid, world.resolution, [hidden])
    obs = sense(world, make_pose(2.0, 4.0, 0.0), body, n_rays=3)
    center = rays_of(obs)[1]
    assert center.label == "wall"
    assert center.depth == pytest.approx(3.0, abs=1e-9)


def test_sense_validates_inputs(box_world, body):
    with pytest.raises(ValueError):
        sense(box_world, make_pose(5.0, 4.0), body, n_rays=1)
    with pytest.raises(PoseOutOfBounds):
        sense(box_world, make_pose(-1.0, 4.0), body, n_rays=5)
