"""Swept-disc motion, reactive avoidance, and the success predicate."""
import math
import random

import numpy as np
import pytest

from dynav.errors import NoEscape, PoseOutOfBounds, UnresolvableGoal
from dynav.geometry import AgentBody, PolarAction, Pose
from dynav.goals import GoalSpec
from dynav.motion import execute, reactive_avoid, success
from dynav.world import OBSTACLE, SemanticObject, WorldMap

from conftest import empty_world, instance_goal, make_pose, run_python

REF_STEP = 5e-4


def brute_max_travel(world, x0, y0, ang, r, radius, step=REF_STEP):
    """Reference sweep: densely sample the segment, stop at the first contact."""
    n = int(r / step)
    t_ok = 0.0
    for i in range(1, n + 1):
        t = min(i * step, r)
        if world.clearance(x0 + t * math.cos(ang), y0 + t * math.sin(ang)) <= radius:
            return t_ok
        t_ok = t
    return r


def test_open_space_motion_is_exact(box_world, body):
    res = execute(box_world, make_pose(3.0, 4.0, 0.0), body, PolarAction(r=2.0, theta=math.radians(30.0)))
    assert not res.truncated
    assert res.traveled == pytest.approx(2.0, abs=1e-12)
    assert res.new_pose.x == pytest.approx(3.0 + 2.0 * math.cos(math.radians(30.0)))
    assert res.new_pose.y == pytest.approx(4.0 + 2.0 * math.sin(math.radians(30.0)))
    assert res.new_pose.heading == pytest.approx(math.radians(30.0))


def test_truncation_frozen_value(box_world, body):
    # wall face at x = 9.9, body radius 0.17: contact at x = 9.73
    res = execute(box_world, make_pose(7.0, 4.0, 0.0), body, PolarAction(r=5.0, theta=0.0))
    assert res.truncated
    assert res.traveled == pytest.approx(2.73, abs=2e-4)
    assert res.new_pose.y == pytest.approx(4.0)


def test_travel_matches_dense_sweep(cluttered_world, body):
    rng = random.Random(13)
    free = cluttered_world.free_with_clearance(body.radius + 0.05)
    checked = 0
    while checked < 25:
        x = rng.uniform(0.5, cluttered_world.width_m - 0.5)
        y = rng.uniform(0.5, cluttered_world.height_m - 0.5)
        ix, iy = cluttered_world.cell_of(x, y)
        if not free[iy, ix]:
            continue
        heading = rng.uniform(0.0, 2 * math.pi)
        r = rng.uniform(0.2, 4.0)
        res = execute(cluttered_world, Pose(x, y, heading), body, PolarAction(r=r, theta=0.0))
        ref = brute_max_travel(cluttered_world, x, y, heading, r, body.radius)
        # never advance past a contact the dense sweep can see
        assert res.traveled <= ref + REF_STEP
        # final disc is collision free
        assert cluttered_world.clearance(res.new_pose.x, res.new_pose.y) >= body.radius - 1e-9
        if res.truncated:
            # stopped because of contact, not early
            assert cluttered_world.clearance(res.new_pose.x, res.new_pose.y) - body.radius <= 1.1e-4
        else:
            assert res.traveled == pytest.approx(r, abs=1e-9)
        checked += 1


def test_swept_path_never_collides(cluttered_world, body):
    pose = make_pose(2.0, 5.0, 10.0)
    res = execute(cluttered_world, pose, body, PolarAction(r=6.0, theta=0.0))
    for i in range(200):
        t = res.traveled * i / 199.0
        x = pose.x + t * math.cos(res.new_pose.heading)
        y = pose.y + t * math.sin(res.new_pose.heading)
        assert cluttered_world.clearance(x, y) >= body.radius - 1e-9


def test_rotation_only(box_world, body):
    res = execute(box_world, make_pose(5.0, 4.0, 0.0), body, PolarAction(r=0.0, theta=math.radians(-90.0)))
    assert res.traveled == 0.0
    assert not res.truncated
    assert (res.new_pose.x, res.new_pose.y) == (5.0, 4.0)
    assert res.new_pose.heading == pytest.approx(math.radians(-90.0))


def test_execute_rejects_bad_calls(box_world, body):
    with pytest.raises(ValueError):
        execute(box_world, make_pose(5.0, 4.0), body, PolarAction.stop_action())
    with pytest.raises(PoseOutOfBounds):
        execute(box_world, make_pose(-1.0, 4.0), body, PolarAction(r=1.0, theta=0.0))


# -- reactive avoidance ---------------------------------------------------------


def test_avoid_keeps_clear_pose(box_world, body):
    pose = make_pose(5.0, 4.0, 30.0)
    assert reactive_avoid(box_world, pose, body, clearance=0.5) == pose


def test_avoid_refuses_a_pose_outside_the_world(box_world, body):
    with pytest.raises(PoseOutOfBounds):
        reactive_avoid(box_world, make_pose(-0.05, 4.0, 0.0), body, clearance=0.4)


def test_avoid_pushes_away_from_wall(box_world, body):
    pose = make_pose(0.2, 4.0, 0.0)  # 0.1 m from the wall face at x = 0.1
    out = reactive_avoid(box_world, pose, body, clearance=0.4)
    assert out.heading == pose.heading
    assert out.y == pytest.approx(4.0)
    assert out.x > pose.x
    assert box_world.clearance(out.x, out.y) >= 0.4 - 1e-9


def test_avoid_returns_best_when_cap_hit(body):
    # 0.5 m wide corridor: clearance can never reach 0.5, but the body fits
    grid = np.ones((20, 40), dtype=np.uint8)
    grid[8:13, :] = 0
    world = WorldMap(grid, 0.1)
    pose = make_pose(2.0, 1.05, 0.0)
    out = reactive_avoid(world, pose, body, clearance=0.5)
    c = world.clearance(out.x, out.y)
    assert c >= body.radius
    assert c < 0.5


def test_avoid_raises_when_boxed_in(body):
    # 0.1 m slot: max clearance 0.05 < body radius everywhere
    grid = np.ones((9, 30), dtype=np.uint8)
    grid[4, :] = 0
    world = WorldMap(grid, 0.1)
    with pytest.raises(NoEscape):
        reactive_avoid(world, make_pose(1.5, 0.45, 0.0), body, clearance=0.3)


def test_avoid_from_inside_a_disc_ends_at_tiny_clearances(tmp_path):
    """The samples lie ``clearance / 10`` apart over ``2 * clearance``: their
    count stays bounded as the clearance falls to 0, where the ray has no
    length and there are none.  A pose inside a disc then has no free pose
    to go to.  Run in a child with a time limit and a memory cap, so that an
    unbounded sample list fails the test instead of hanging the suite."""
    out = run_python(
        "import resource\n"
        "from dynav.errors import NoEscape\n"
        "from dynav.geometry import AgentBody, Pose\n"
        "from dynav.motion import reactive_avoid\n"
        "from dynav.world import SemanticObject, WorldMap\n"
        "import numpy as np\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "disc = SemanticObject('box', 'box', (2.0, 2.0), 0.5)\n"
        "world = WorldMap(np.zeros((40, 40), dtype=np.uint8), 0.1, [disc])\n"
        "for clearance in (0.0, 1e-13):\n"
        "    try:\n"
        "        reactive_avoid(world, Pose(2.1, 2.0, 0.0), AgentBody(), clearance)\n"
        "    except NoEscape:\n"
        "        print('NoEscape')\n", tmp_path, timeout=5.0)
    assert out.split() == ["NoEscape", "NoEscape"]


# -- success predicate ----------------------------------------------------------


def test_success_threshold_is_inclusive(plant_world):
    goal = GoalSpec.name_goal("plant")
    # plant boundary at x = 7.7; (7.0, 4.0) sits exactly 0.7 from the surface
    assert success(plant_world, make_pose(7.0, 4.0), goal, threshold=0.7)
    assert not success(plant_world, make_pose(7.0, 4.0), goal, threshold=0.69)
    assert success(plant_world, make_pose(7.6, 4.0), goal, threshold=0.3)


def test_success_requires_matching_category(plant_world):
    # the instance goal matches on attributes, the unresolvable one on nothing
    assert success(plant_world, make_pose(7.6, 4.0), instance_goal(["green"]), 0.3)
    with pytest.raises(UnresolvableGoal):
        success(plant_world, make_pose(7.6, 4.0), GoalSpec.name_goal("sofa"), 0.3)


def test_success_picks_nearest_matching(body):
    a = SemanticObject(name="chair_a", category="chair", center=(2.0, 4.0), radius=0.3)
    b = SemanticObject(name="chair_b", category="chair", center=(8.0, 4.0), radius=0.3)
    world = empty_world(10.0, 8.0, objects=[a, b])
    assert success(world, make_pose(2.5, 4.0), GoalSpec.name_goal("chair"), 0.3)
    assert not success(world, make_pose(5.0, 4.0), GoalSpec.name_goal("chair"), 0.3)
