"""The simulator kernels against plain scalar reference versions, bit for bit.

``sense``, ``WorldMap.clearance_with_nearest``, ``WorldMap.clearance``,
``reactive_avoid`` and ``execute`` use numpy over rays, merged runs of edge
cells and Lipschitz skipping of avoidance samples.  ``sense`` casts all rays
at once against the wall runs and rebuilds each wall distance as the grid
walk's own sum; only a ray that enters a wall within 1e-7 cells of a grid
corner, or every ray of a pose on a grid line, is walked cell by cell over a
flat framed grid.  The references below are the straightforward versions: a
DDA over ``grid[iy, ix]`` for every ray, one ray-disc test per ray and
object, a kd-tree search over every obstacle cell, a full query for every
marching point and a scan of every avoidance sample.  Each test requires
equal bits, not closeness, and the poses and headings aim rays through grid
corners.  Of equally near obstacle cells the one first in row-major order
wins: the lowest ``iy``, then the lowest ``ix``.
"""
import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from dynav import policy
from dynav.backends import OracleBackend
from dynav.config import RunConfig
from dynav.episodes import EpisodeSpec, run_episode
from dynav.errors import NoEscape
from dynav.geometry import AgentBody, PolarAction, Pose, normalize_angle
from dynav.goals import GoalSpec
from dynav.motion import execute, reactive_avoid
from dynav.sensing import DEFAULT_FOV, Observation, sense
from dynav.world import OBSTACLE, SemanticObject, WorldMap
from dynav.worldgen import WorldGenSpec, generate_world, random_free_pose

from conftest import Row, empty_world, rays_of, run_python, with_rays

_TIE = 1e-12


# -- references ----------------------------------------------------------------


def ref_grid_raycast(world, x0, y0, dx, dy, t_max):
    res = world.resolution
    grid = world.grid
    w, h = world.width_cells, world.height_cells
    ix = int(x0 / res)
    iy = int(y0 / res)
    if ix < 0 or iy < 0 or ix >= w or iy >= h:
        return math.inf
    step_x = 1 if dx > 0 else -1
    step_y = 1 if dy > 0 else -1
    if dx != 0.0:
        t_next_x = ((ix + (1 if dx > 0 else 0)) * res - x0) / dx
        dt_x = res / abs(dx)
    else:
        t_next_x = dt_x = math.inf
    if dy != 0.0:
        t_next_y = ((iy + (1 if dy > 0 else 0)) * res - y0) / dy
        dt_y = res / abs(dy)
    else:
        t_next_y = dt_y = math.inf
    if grid[iy, ix] == OBSTACLE:
        return 0.0
    while True:
        if t_next_x < t_next_y - _TIE:
            t_enter = t_next_x
            t_next_x += dt_x
            ix += step_x
        elif t_next_y < t_next_x - _TIE:
            t_enter = t_next_y
            t_next_y += dt_y
            iy += step_y
        else:
            t_enter = t_next_x
            t_next_x += dt_x
            t_next_y += dt_y
            ix += step_x
            iy += step_y
        if t_enter > t_max:
            return math.inf
        if ix < 0 or iy < 0 or ix >= w or iy >= h:
            return math.inf
        if grid[iy, ix] == OBSTACLE:
            return t_enter


def ref_object_raycast(world, x0, y0, dx, dy, t_max):
    best_t, best_i = math.inf, None
    for i, obj in enumerate(world.objects):
        ocx = obj.center[0] - x0
        ocy = obj.center[1] - y0
        b = ocx * dx + ocy * dy
        disc = b * b - (ocx * ocx + ocy * ocy - obj.radius * obj.radius)
        if disc <= _TIE:
            continue
        t = b - math.sqrt(disc)
        if t <= 1e-9:
            continue
        if t <= t_max and t < best_t:
            best_t, best_i = t, i
    return best_t, best_i


def ref_sense(world, pose, body, n_rays, fov=DEFAULT_FOV, step=0):
    d_max = body.max_sense
    rays = []
    half = fov / 2.0
    for i in range(n_rays):
        theta = -half + fov * i / (n_rays - 1)
        ang = pose.heading + theta
        dx, dy = math.cos(ang), math.sin(ang)
        t_wall = ref_grid_raycast(world, pose.x, pose.y, dx, dy, d_max)
        t_obj, obj_i = ref_object_raycast(world, pose.x, pose.y, dx, dy, d_max)
        if obj_i is not None and t_obj <= t_wall:
            o = world.objects[obj_i]
            rays.append(Row(normalize_angle(theta), t_obj, o.name, o.attributes,
                            tuple(sorted(o.tags))))
        elif t_wall <= d_max:
            rays.append(Row(normalize_angle(theta), t_wall, "wall"))
        else:
            rays.append(Row(normalize_angle(theta), d_max, None))
    return with_rays(Observation, rays, pose=pose, fov=fov, step=step)


class RefClearance:
    """Every obstacle cell in a kd-tree; each query re-checks a ball of cells
    in row-major order and keeps the first strictly nearer one."""

    def __init__(self, world):
        self.world = world
        iys, ixs = np.nonzero(world.grid == OBSTACLE)
        self.cells = np.stack([ixs, iys], axis=1)
        self.tree = cKDTree((self.cells + 0.5) * world.resolution) if len(ixs) else None

    def __call__(self, x, y):
        w = self.world
        best = min(x, y, w.width_m - x, w.height_m - y)
        if best == x:
            nearest = (0.0, y)
        elif best == y:
            nearest = (x, 0.0)
        elif best == w.width_m - x:
            nearest = (w.width_m, y)
        else:
            nearest = (x, w.height_m)
        res = w.resolution
        if self.tree is not None:
            d_center, _ = self.tree.query([x, y])
            # the cells are listed row-major, so sorted indices are sorted (iy, ix)
            for j in sorted(self.tree.query_ball_point([x, y], d_center + res * 0.7072)):
                ix, iy = self.cells[j]
                dx = max(ix * res - x, 0.0, x - (ix + 1) * res)
                dy = max(iy * res - y, 0.0, y - (iy + 1) * res)
                d = math.hypot(dx, dy)
                if d < best:
                    best = d
                    nearest = (min(max(x, ix * res), (ix + 1) * res),
                               min(max(y, iy * res), (iy + 1) * res))
        if w.objects:
            centers = np.array([o.center for o in w.objects], dtype=float)
            radii = np.array([o.radius for o in w.objects], dtype=float)
            dd = np.hypot(centers[:, 0] - x, centers[:, 1] - y) - radii
            k = int(np.argmin(dd))
            if dd[k] < best:
                best = float(dd[k])
                cx, cy = centers[k]
                norm = math.hypot(x - cx, y - cy)
                if norm > 1e-12:
                    nearest = (cx + (x - cx) / norm * radii[k], cy + (y - cy) / norm * radii[k])
                else:
                    nearest = (cx + radii[k], cy)
        return best, nearest


def ref_reactive_avoid(world, pose, body, clearance):
    """Every sample along the ray, measured in order."""
    c0, nearest = world.clearance_with_nearest(pose.x, pose.y)
    if c0 >= clearance:
        return pose
    dx, dy = pose.x - nearest[0], pose.y - nearest[1]
    norm = math.hypot(dx, dy)
    if norm < 1e-12:
        dx, dy = 1.0, 0.0
    else:
        dx /= norm
        dy /= norm
    step = min(0.01, clearance / 10.0)
    best_pose = pose if c0 >= body.radius else None
    best_c = c0 if c0 >= body.radius else -math.inf
    t = step
    while t <= 2.0 * clearance + 1e-9:
        p = Pose(pose.x + dx * t, pose.y + dy * t, pose.heading)
        if world.in_bounds(p.x, p.y):
            c = world.clearance(p.x, p.y)
            if c >= clearance:
                return p
            if c > best_c and c >= body.radius:
                best_c, best_pose = c, p
        t += step
    if best_pose is None:
        raise NoEscape("boxed in")
    return best_pose


# -- inputs ------------------------------------------------------------------------


def bits(*values):
    return tuple(float(v).hex() for v in values)


def ray_bits(obs):
    return [(bits(r.theta, r.depth), r[2:]) for r in rays_of(obs)]


@pytest.fixture(scope="module")
def worlds():
    """Generated worlds like the benchmark's, plus a room with a thick wall
    block, a one-cell-wide slot and a disc, so that interior cells exist."""
    out = [generate_world(WorldGenSpec.from_dict(dict(
        rooms=2, categories=["chair", "table"], objects_per_category=2)), s) for s in (0, 3)]
    out.append(generate_world(WorldGenSpec.from_dict(dict(
        rooms=3, categories=["chair", "table", "plant"], objects_per_category=2,
        hazards=["sign"])), 5))
    grid = empty_world(6.0, 5.0).grid.copy()
    grid[20:32, 25:32] = OBSTACLE        # a solid block with interior cells
    grid[20:32, 29] = 0                  # cut by a one-cell slot
    grid[10, 10] = OBSTACLE              # a lone pillar
    out.append(WorldMap(grid, 0.1, [SemanticObject("plant_1", "plant", (1.5, 3.5), 0.3)]))
    return out


def free_cell_centers(world, rng, n):
    iys, ixs = np.nonzero(world.grid != OBSTACLE)
    picks = [rng.randrange(len(ixs)) for _ in range(n)]
    return [world.cell_center(int(ixs[k]), int(iys[k])) for k in picks]


def corner_headings(world, x, y, rng, n):
    """Headings from (x, y) to obstacle cell corners: rays that graze corners."""
    iys, ixs = np.nonzero(world.grid == OBSTACLE)
    out = []
    for _ in range(n):
        k = rng.randrange(len(ixs))
        cx, cy = int(ixs[k]) * world.resolution, int(iys[k]) * world.resolution
        out.append(math.atan2(cy - y, cx - x))
    return out


def sense_poses(world, rng):
    res = world.resolution
    poses = []
    for x, y in free_cell_centers(world, rng, 40):
        poses.append(Pose(x, y, rng.uniform(-math.pi, math.pi)))
        # the central ray of an odd fan points at the heading: aim it at corners
        poses += [Pose(x, y, h) for h in corner_headings(world, x, y, rng, 2)]
        ix, iy = world.cell_of(x, y)
        poses.append(Pose(ix * res, y, rng.choice([0.0, math.pi / 2, math.pi / 4])))  # cell edge
        poses.append(Pose(ix * res, iy * res, math.pi / 4))  # cell corner, diagonal
    return [p for p in poses if world.in_bounds(p.x, p.y)]


# -- tests -------------------------------------------------------------------------


def test_sense_matches_scalar_reference(worlds):
    body = AgentBody()
    rng = random.Random(7)
    checked = 0
    for world in worlds:
        for pose in sense_poses(world, rng):
            got = sense(world, pose, body, 181)
            assert ray_bits(got) == ray_bits(ref_sense(world, pose, body, 181)), pose
            checked += 1
    assert checked >= 600


def test_sense_matches_reference_with_short_range_and_inside_a_wall(worlds):
    rng = random.Random(8)
    body = AgentBody(max_sense=1.5)
    world = worlds[-1]
    poses = [Pose(2.75, 2.55, rng.uniform(-math.pi, math.pi)) for _ in range(5)]  # in the block
    poses += [Pose(x, y, rng.uniform(-math.pi, math.pi))
              for x, y in free_cell_centers(world, rng, 40)]
    for pose in poses:
        assert ray_bits(sense(world, pose, body, 91)) == ray_bits(ref_sense(world, pose, body, 91))


@pytest.fixture(scope="module")
def recorded_trajectories():
    """Worlds and poses of recorded gate-4 objectnav episodes, and the poses
    that ``reactive_avoid`` nudged them to on the way."""
    spec = WorldGenSpec.from_dict(dict(rooms=2, categories=["chair", "table"],
                                       objects_per_category=2))
    cfg = RunConfig(max_distance_m=10000.0)
    nudged = []

    def recording_avoid(*args):
        pose = reactive_avoid(*args)
        if pose != args[1]:
            nudged.append(pose)
        return pose

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(policy, "reactive_avoid", recording_avoid)
        for seed in (2, 7, 21, 22):
            world = generate_world(spec, seed)
            start = random_free_pose(world, random.Random(seed + 1000), AgentBody())
            episode = EpisodeSpec(episode_id=f"w{seed}", world=world,
                                  goals=(GoalSpec.name_goal("chair"),), start=start, seed=seed)
            backend = OracleBackend.from_config(cfg)
            del nudged[:]
            trajectory = run_episode(episode, backend, cfg).trajectory
            out.append((world, trajectory, list(nudged)))
    return out


def test_sense_matches_scalar_reference_on_recorded_poses(recorded_trajectories):
    """Off-grid poses where episodes really went, nudged ones included."""
    body = AgentBody()
    checked = nudged = 0
    for world, trajectory, nudged_poses in recorded_trajectories:
        assert set(nudged_poses) <= set(trajectory)
        for pose in trajectory:
            assert ray_bits(sense(world, pose, body, 181)) == ray_bits(
                ref_sense(world, pose, body, 181)), pose
            checked += 1
        nudged += len(nudged_poses)
    assert checked >= 100 and nudged >= 20


def test_sense_walks_few_rays_cell_by_cell(recorded_trajectories):
    """On the poses where episodes really went, the cast settles all but at
    most 1 % of the rays and the cell-by-cell walk takes the rest: a cast
    that left every ray to the walk would still give equal bits.  Every
    walked ray counts, and a pose on a grid line walks its whole fan."""
    walked = []
    walk = WorldMap._walk

    def counting_walk(self, k0, dx, *rest):
        walked.append(len(dx))
        return walk(self, k0, dx, *rest)

    body = AgentBody()
    rays = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(WorldMap, "_walk", counting_walk)
        for world, trajectory, _ in recorded_trajectories:
            for pose in trajectory:
                rays += sense(world, pose, body, 181).n_rays
        assert rays >= 100 * 181 and sum(walked) <= 0.01 * rays, (sum(walked), rays)
        world, trajectory, _ = recorded_trajectories[0]
        ix, _ = world.cell_of(trajectory[0].x, trajectory[0].y)
        del walked[:]
        sense(world, Pose(ix * world.resolution, trajectory[0].y, 0.3), body, 181)
        assert sum(walked) == 181


@pytest.mark.parametrize("objects", [True, False], ids=["objects", "no-objects"])
def test_sense_casts_an_exactly_axis_parallel_ray(worlds, objects):
    """Poses off every grid line, headed at ``-theta`` of one ray of the fan
    (a ray whose ``-theta`` the pose keeps as it is when it wraps the
    heading), so that the ray's angle is exactly 0.0 and its direction
    (1.0, 0.0): the slab test divides by a zero y component and the ray
    never crosses a y line.  The cast, not the walk, takes that ray, no
    numpy warning is raised, and every ray has the reference's bits."""
    world = worlds[-1] if objects else worlds[-1].with_objects(())
    body, n_rays = AgentBody(), 31
    half = DEFAULT_FOV / 2.0
    walked = []
    walk = WorldMap._walk

    def recording_walk(self, k0, dx, dy, *rest):
        walked.extend(dy.tolist())
        return walk(self, k0, dx, dy, *rest)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(WorldMap, "_walk", recording_walk)
        # towards the solid block, and towards the room's right-hand wall
        for (x, y), i in itertools.product([(1.05, 2.55), (3.35, 0.75)], [0, 9, 23, 30]):
            theta = -half + DEFAULT_FOV * i / (n_rays - 1)
            pose = Pose(x, y, -theta)
            assert pose.heading + theta == 0.0
            got = sense(world, pose, body, n_rays)
            assert ray_bits(got) == ray_bits(ref_sense(world, pose, body, n_rays)), pose
            assert got.hits[got.hit[i]][0] == "wall"
    assert 0.0 not in walked


def test_fans_of_different_size_and_width_do_not_share_angles(recorded_trajectories):
    world, trajectory, _ = recorded_trajectories[0]
    pose = trajectory[len(trajectory) // 2]
    body = AgentBody()
    fans = [(181, DEFAULT_FOV), (91, DEFAULT_FOV), (181, 1.0), (7, 3.0), (2, DEFAULT_FOV)]
    for n_rays, fov in fans + fans[::-1]:
        got = sense(world, pose, body, n_rays, fov)
        assert len(rays_of(got)) == n_rays and got.fan.fov == fov
        assert ray_bits(got) == ray_bits(ref_sense(world, pose, body, n_rays, fov))
        assert bits(rays_of(got)[0].theta, rays_of(got)[-1].theta) == bits(
            normalize_angle(-fov / 2.0), normalize_angle(fov / 2.0))


def clearance_points(world, rng):
    res = world.resolution
    pts = []
    for x, y in free_cell_centers(world, rng, 150):
        ix, iy = world.cell_of(x, y)
        pts += [(x, y), (ix * res, y), (x, iy * res), (ix * res, iy * res),
                (x + rng.uniform(-0.5, 0.5) * res, y + rng.uniform(-0.5, 0.5) * res)]
    iys, ixs = np.nonzero(world.grid == OBSTACLE)
    for _ in range(100):  # inside obstacle cells, at centres and anywhere
        k = rng.randrange(len(ixs))
        x, y = world.cell_center(int(ixs[k]), int(iys[k]))
        pts += [(x, y), (x + rng.uniform(-0.5, 0.5) * res, y + rng.uniform(-0.5, 0.5) * res)]
    for _ in range(100):
        pts.append((rng.uniform(0.0, world.width_m), rng.uniform(0.0, world.height_m)))
    pts += [(0.0, 1.0), (world.width_m, 1.0), (1.0, world.height_m), (-0.5, 1.0)]  # border
    return pts


def test_clearance_matches_kd_tree_reference(worlds):
    rng = random.Random(11)
    for world in worlds:
        ref = RefClearance(world)
        for x, y in clearance_points(world, rng):
            d, (nx, ny) = world.clearance_with_nearest(x, y)
            rd, (rx, ry) = ref(x, y)
            assert bits(d, nx, ny) == bits(rd, rx, ry), (x, y)


def test_clearance_ties_between_cells_keep_the_reference_winner(worlds):
    """A cell centre in the one-cell slot lies exactly as far from the wall
    cell on its left as from the one on its right (for this column, in
    floating point too); the two nearest points differ, and the left cell,
    with the lower ``ix``, wins.  ``clearance`` gives the same distance."""
    world = worlds[-1]
    ref = RefClearance(world)
    for iy in range(20, 32):
        x, y = world.cell_center(29, iy)
        d, (nx, ny) = world.clearance_with_nearest(x, y)
        rd, (rx, ry) = ref(x, y)
        assert bits(d, nx, ny) == bits(rd, rx, ry)
        left, right = (world._cell_rect_distance(x, y, ix, iy) for ix in (28, 30))
        assert left == right == d
        assert bits(nx, ny) == bits(29 * world.resolution, y)  # the left cell's right edge
        assert bits(world.clearance(x, y)) == bits(d)


def nudge_cases(world, rng, n):
    """Cell-centre poses closer to a surface than the avoidance clearance."""
    poses = []
    for x, y in free_cell_centers(world, rng, 20 * n):
        if world.clearance(x, y) < 0.32:
            poses.append(Pose(x, y, rng.uniform(-math.pi, math.pi)))
        if len(poses) == n:
            break
    return poses


def outcome(fn, world, pose, body, clearance):
    try:
        p = fn(world, pose, body, clearance)
    except NoEscape:
        return "NoEscape"
    return bits(p.x, p.y, p.heading)


def test_reactive_avoid_matches_full_scan(worlds):
    body = AgentBody()
    rng = random.Random(5)
    kinds = {"restored": 0, "best": 0, "NoEscape": 0}
    for world in worlds:
        for pose in nudge_cases(world, rng, 60):
            for clearance in (0.32, 0.6):
                got = outcome(reactive_avoid, world, pose, body, clearance)
                assert got == outcome(ref_reactive_avoid, world, pose, body, clearance), pose
                if got == "NoEscape":
                    kinds["NoEscape"] += 1
                else:
                    p = Pose(*(float.fromhex(v) for v in got))
                    kinds["restored" if world.clearance(p.x, p.y) >= clearance else "best"] += 1
    # a 0.6 m clearance cannot be restored in most rooms' corners and slots
    assert kinds["restored"] > 0 and kinds["best"] > 0


def test_reactive_avoid_matches_full_scan_at_small_clearances(worlds):
    """Poses moved toward their nearest surface to within a fraction of a
    small clearance, onto it, or into a disc.  2e-8 m is the smallest
    clearance whose ray ends where the reference's does: there half a step
    equals the reference's 1e-9 m slack."""
    body = AgentBody()
    rng = random.Random(6)
    kinds = {"restored": 0, "NoEscape": 0}
    for world in worlds:
        for pose in nudge_cases(world, rng, 20):
            c, (nx, ny) = world.clearance_with_nearest(pose.x, pose.y)
            for clearance in (2e-8, 1e-6, 0.05):
                for f in (0.0, 0.3, 0.9):
                    s = f * clearance / c
                    p = Pose(nx + (pose.x - nx) * s, ny + (pose.y - ny) * s, pose.heading)
                    got = outcome(reactive_avoid, world, p, body, clearance)
                    assert got == outcome(ref_reactive_avoid, world, p, body, clearance), p
                    kinds["NoEscape" if got == "NoEscape" else "restored"] += 1
        for o in world.objects:
            p = Pose(o.center[0] + o.radius / 2, o.center[1], 0.0)
            for clearance in (2e-8, 1e-6, 0.05):
                got = outcome(reactive_avoid, world, p, body, clearance)
                assert got == outcome(ref_reactive_avoid, world, p, body, clearance), p
    # a clearance below the body's radius restores or leaves nothing to pick
    assert all(kinds.values()), kinds


class Counting:
    """A world that logs each point it measures, with ``"full"`` for a scan
    of the whole world and ``"along"`` for one through the surfaces along a
    segment.  It passes on only what ``reactive_avoid`` reads, so a query
    added later raises AttributeError here instead of going uncounted."""

    def __init__(self, world):
        self.world = world
        self.calls = []
        self.width_m, self.height_m = world.width_m, world.height_m
        self.in_bounds = world.in_bounds
        self.surfaces_along = world.surfaces_along

    def clearance_with_nearest(self, x, y):
        self.calls.append(("full", x, y))
        return self.world.clearance_with_nearest(x, y)

    def clearance(self, x, y):
        self.calls.append(("full", x, y))
        return self.world.clearance(x, y)

    def clearance_along(self, x, y, surfaces):
        self.calls.append(("along", x, y))
        return self.world.clearance_along(x, y, surfaces)


def test_reactive_avoid_measures_fewer_samples_than_a_full_scan(box_world):
    """Next to a single wall the clearance grows along the ray, and the
    Lipschitz bound skips the samples that cannot restore it yet.  Every
    measured sample counts."""
    world = Counting(box_world)
    pose = Pose(0.25, 4.0, 0.0)  # 0.15 m from the wall face at x = 0.1
    out = reactive_avoid(world, pose, AgentBody(), 0.32)
    assert out == ref_reactive_avoid(box_world, pose, AgentBody(), 0.32)
    # the pose, then the ray; a full scan measures 18
    assert [kind for kind, *_ in world.calls] == ["full", "along"]


def test_reactive_avoid_boxed_in_cases_match_full_scan():
    """A corridor too narrow to restore the clearance, a slot too narrow for
    the body, and a dead end 0.5 m wide, where the ray runs along the side
    walls and the clearance goes flat: the best sample, then NoEscape, as
    the full scan gives.  One full scan per call, of the pose; every sample
    is read through the surfaces along the ray."""
    body = AgentBody()
    grid = empty_world(4.0, 3.0).grid.copy()
    grid[10:13, 5:35] = OBSTACLE
    grid[16:19, 5:35] = OBSTACLE      # corridor rows 13-15: 0.3 m wide
    grid[5:8, 5:35] = OBSTACLE        # slot row 8-9 with row 10 above: 0.2 m wide
    dead_end = empty_world(4.0, 3.0).grid.copy()
    dead_end[10:13, 5:35] = OBSTACLE
    dead_end[18:21, 5:35] = OBSTACLE  # rows 13-17: 0.5 m wide
    dead_end[13:18, 4] = OBSTACLE     # closed at x = 0.5
    cases = [(WorldMap(grid, 0.1), Pose(float(x), y, 0.3))
             for y in (1.45, 1.5, 0.85, 0.9, 0.95) for x in np.arange(0.55, 3.45, 0.1)]
    cases += [(WorldMap(dead_end, 0.1), Pose(x, y, 0.0))
              for x in (0.55, 0.6, 0.65) for y in (1.5, 1.55, 1.6)]
    seen = set()
    for plain, pose in cases:
        world = Counting(plain)
        got = outcome(reactive_avoid, world, pose, body, 0.32)
        assert got == outcome(ref_reactive_avoid, plain, pose, body, 0.32), pose
        kinds = [kind for kind, *_ in world.calls]
        assert kinds[0] == "full" and "full" not in kinds[1:], pose
        seen.add("NoEscape" if got == "NoEscape" else "moved" if got != bits(
            pose.x, pose.y, pose.heading) else "stayed")
    assert "NoEscape" in seen and ("moved" in seen or "stayed" in seen)


def test_reactive_avoid_matches_full_scan_on_recorded_poses(recorded_trajectories):
    """Every pose where recorded gate-4 episodes went, corridors and dead
    ends included, at the run's own avoidance clearance."""
    body, clearance = AgentBody(), RunConfig().avoid_clearance
    kinds = {"stayed": 0, "restored": 0, "best": 0}
    for world, trajectory, _ in recorded_trajectories:
        for pose in trajectory:
            got = outcome(reactive_avoid, world, pose, body, clearance)
            assert got == outcome(ref_reactive_avoid, world, pose, body, clearance), pose
            if got != "NoEscape":
                p = Pose(*(float.fromhex(v) for v in got))
                kinds["stayed" if p == pose else "restored"
                      if world.clearance(p.x, p.y) >= clearance else "best"] += 1
    assert all(kinds.values()), kinds


def test_reactive_avoid_finds_the_last_of_slowly_rising_samples():
    """A disc in a corridor 0.5 m wide sets the nudge direction 1e-5 rad
    off the corridor's axis, away from the nearer wall.  Past the disc the
    clearance is that wall's distance, which rises by 1e-7 m per sample and
    never reaches 0.32 m, so the last sample has the most.  Each sample
    beats the best so far by only that much, so a scan that skips or
    misreads any late sample keeps an earlier one."""
    grid = empty_world(4.0, 3.0).grid.copy()
    grid[10:13, 5:35] = OBSTACLE
    grid[18:21, 5:35] = OBSTACLE  # rows 13-17: 0.5 m wide
    world = WorldMap(grid, 0.1, [SemanticObject("d", "t", (1.85, 1.5 - 1e-5 * 0.15), 0.05)])
    pose, body = Pose(2.0, 1.5, 0.0), AgentBody()
    got = outcome(reactive_avoid, world, pose, body, 0.32)
    assert got == outcome(ref_reactive_avoid, world, pose, body, 0.32)
    assert float.fromhex(got[0]) > 2.6  # the ray's last sample


def test_reactive_avoid_reads_the_surfaces_up_to_the_rays_end():
    """A pose inside a disc in a walled room 0.8 m wide, with two more
    discs.  The nudge ray heads for the bottom wall, and its last sample,
    1.27 m out, is nearer to that wall than to anything else.  A list of
    surfaces built for a ray one step shorter ranks the wall by its gap to
    a box that ends 0.01 m before that sample, stops at a disc, overstates
    the sample's clearance and picks another pose."""
    grid = np.zeros((36, 8), dtype=np.uint8)
    grid[0, :] = grid[-1, :] = grid[:, 0] = grid[:, -1] = OBSTACLE
    world = WorldMap(grid, 0.1, [
        SemanticObject("o0", "t", (0.3667410298326231, 1.94963332445152), 0.22088133070657134),
        SemanticObject("o1", "t", (0.5753967311224072, 1.2398761260790445), 0.4228487380415597),
        SemanticObject("o2", "t", (0.11482439869145829, 1.0578734125921663), 0.1707338636252018)])
    pose, body = Pose(0.6184592067692315, 1.5885115040457198, 0.0), AgentBody()
    got = outcome(reactive_avoid, world, pose, body, 0.6350506349885302)
    assert got == outcome(ref_reactive_avoid, world, pose, body, 0.6350506349885302)


def test_avoid_samples_the_ray_only_up_to_the_worlds_edge(box_world, tmp_path):
    """A clearance far past the world's size samples the ray up to the
    world's edge alone, and picks what a scan of the whole capped ray picks.
    At 1e9 m a ray sampled past the edge would hold 2e11 samples, so the run
    is made in a child with a time limit and a memory cap: a loop that went
    on past the edge fails the test instead of hanging the suite."""
    out = run_python(
        "import resource\n"
        "import numpy as np\n"
        "from dynav.geometry import AgentBody, Pose\n"
        "from dynav.motion import reactive_avoid\n"
        "from dynav.world import OBSTACLE, WorldMap\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "grid = np.zeros((80, 100), dtype=np.uint8)\n"
        "grid[0, :] = grid[-1, :] = grid[:, 0] = grid[:, -1] = OBSTACLE\n"
        "p = reactive_avoid(WorldMap(grid, 0.1), Pose(0.25, 4.0, 0.0), AgentBody(), 1e9)\n"
        "print(p.x.hex(), p.y.hex(), p.heading.hex())\n", tmp_path, timeout=10.0)
    pose = Pose(0.25, 4.0, 0.0)
    # no clearance in the box reaches 50 m and 2 x 50 m spans the box, so
    # the reference picks for 50 m what it would for 1e9 m, in less time
    want = ref_reactive_avoid(box_world, pose, AgentBody(), 50.0)
    assert tuple(out.split()) == bits(want.x, want.y, want.heading)
    assert reactive_avoid(box_world, pose, AgentBody(), 1e4) == want


# -- wall runs -----------------------------------------------------------------------


@st.composite
def walled_worlds(draw):
    """Rooms cut by walls along rows and columns, so that slots and corridors
    with cells tied in distance are common, plus a few lone cells and discs."""
    res = draw(st.one_of(st.sampled_from((0.05, 0.1, 0.25)), st.floats(0.05, 0.25)))
    w, h = draw(st.integers(6, 40)), draw(st.integers(6, 40))
    grid = np.zeros((h, w), dtype=np.uint8)
    if draw(st.booleans()):
        grid[0, :] = grid[-1, :] = grid[:, 0] = grid[:, -1] = OBSTACLE
    for _ in range(draw(st.integers(0, 6))):
        a, b = sorted(draw(st.integers(0, max(w, h))) for _ in range(2))
        k, thick = draw(st.integers(0, max(w, h) - 1)), draw(st.integers(1, 2))
        if draw(st.booleans()):
            grid[a: b + 1, k: k + thick] = OBSTACLE
        else:
            grid[k: k + thick, a: b + 1] = OBSTACLE
    for _ in range(draw(st.integers(0, 4))):
        grid[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = OBSTACLE
    if not (grid == 0).any():
        grid[h // 2, w // 2] = 0
    objects = [SemanticObject(f"thing_{i}", "thing",
                              (draw(st.floats(0.0, w * res)), draw(st.floats(0.0, h * res))),
                              draw(st.floats(0.05, 0.6)))
               for i in range(draw(st.integers(0, 3)))]
    return WorldMap(grid, res, objects)


def slot_ties(world, rng, n):
    """Points halfway between two obstacle cells facing each other across a
    row or a column of free cells, with the direction to the first cell: the
    two cells are equally near in exact arithmetic, and rounding decides."""
    res = world.resolution
    iys, ixs = np.nonzero(world.grid == 0)
    out = []
    for _ in range(n):
        k = rng.randrange(len(ixs))
        ix, iy = int(ixs[k]), int(iys[k])
        row, col = world.grid[iy], world.grid[:, ix]
        left = [j for j in range(ix) if row[j] == OBSTACLE]
        right = [j for j in range(ix + 1, world.width_cells) if row[j] == OBSTACLE]
        if left and right:
            x = ((left[-1] + 1) * res + right[0] * res) / 2
            out.append(((x, (iy + rng.random()) * res), (-1.0, 0.0)))
        below = [j for j in range(iy) if col[j] == OBSTACLE]
        above = [j for j in range(iy + 1, world.height_cells) if col[j] == OBSTACLE]
        if below and above:
            y = ((below[-1] + 1) * res + above[0] * res) / 2
            out.append((((ix + rng.random()) * res, y), (0.0, 1.0)))
    return out


def probes(world, rng):
    """Special points, each with a direction: cell edges and corners, free cell
    centres, obstacle interiors, the map border, disc boundaries and centres,
    and slot ties."""
    res, wm, hm = world.resolution, world.width_m, world.height_m
    pts = []
    for x, y in free_cell_centers(world, rng, 6):
        ix, iy = world.cell_of(x, y)
        pts += [(x, y), (ix * res, y), (x, iy * res), (ix * res, iy * res)]
    iys, ixs = np.nonzero(world.grid == OBSTACLE)
    for _ in range(3 if len(ixs) else 0):
        k = rng.randrange(len(ixs))
        pts.append(((int(ixs[k]) + rng.random()) * res, (int(iys[k]) + rng.random()) * res))
    pts += [(0.0, rng.uniform(0.0, hm)), (wm, rng.uniform(0.0, hm)),
            (rng.uniform(0.0, wm), 0.0), (rng.uniform(0.0, wm), hm), (1e-12, 1e-12)]
    for o in world.objects:
        a = rng.uniform(-math.pi, math.pi)
        pts += [o.center, (o.center[0] + o.radius * math.cos(a),
                           o.center[1] + o.radius * math.sin(a))]
    out = []
    for p in pts:
        a = rng.uniform(-math.pi, math.pi)
        out.append((p, (math.cos(a), math.sin(a))))
    return out + slot_ties(world, rng, 6)


def edge_cells(world):
    """Obstacle cells with a free 8-neighbour, found cell by cell."""
    h, w = world.grid.shape
    return [(ix, iy) for iy in range(h) for ix in range(w)
            if world.grid[iy, ix] == OBSTACLE
            and any(world.grid[jy, jx] != OBSTACLE
                    for jy in range(max(iy - 1, 0), min(iy + 2, h))
                    for jx in range(max(ix - 1, 0), min(ix + 2, w)))]


@settings(max_examples=100, deadline=None)
@given(world=walled_worlds())
def test_wall_runs_cover_the_edge_cells_once(world):
    """Each run is a row or a column of cells and carries its squares' float
    bounds; together the runs hold every edge cell, once, and nothing else."""
    res = world.resolution
    covered = []
    for ax, bx, ay, by, (ix0, ix1, iy0, iy1) in world._wall_runs():
        assert ix0 == ix1 or iy0 == iy1
        assert bits(ax, bx, ay, by) == bits(ix0 * res, (ix1 + 1) * res,
                                            iy0 * res, (iy1 + 1) * res)
        covered += [(ix, iy) for iy in range(iy0, iy1 + 1) for ix in range(ix0, ix1 + 1)]
    assert sorted(covered) == sorted(edge_cells(world))


def grid_poses(world, rng, n):
    """Poses at free cell centres, on a cell's grid lines and at its corner,
    headed at a multiple of pi/4 or at an obstacle cell's corner: rays that
    run through grid corners and enter walls at them."""
    res = world.resolution
    iys, ixs = np.nonzero(world.grid != OBSTACLE)
    oys, oxs = np.nonzero(world.grid == OBSTACLE)
    poses = []
    for _ in range(n):
        k = rng.randrange(len(ixs))
        ix, iy = int(ixs[k]), int(iys[k])
        x, y = rng.choice([((ix + 0.5) * res, (iy + 0.5) * res), (ix * res, (iy + 0.5) * res),
                           ((ix + 0.5) * res, iy * res), (ix * res, iy * res)])
        if len(oxs) and rng.random() < 0.5:
            j = rng.randrange(len(oxs))
            cx, cy = (int(oxs[j]) + rng.randrange(2)) * res, (int(oys[j]) + rng.randrange(2)) * res
            heading = math.atan2(cy - y, cx - x)
        else:
            heading = rng.randrange(8) * math.pi / 4
        poses.append(Pose(x, y, heading))
    return poses


@settings(max_examples=120, deadline=None)
@given(world=walled_worlds(), seed=st.integers(0, 2 ** 32 - 1))
def test_sense_matches_reference_through_grid_corners(world, seed):
    """Lone cells leave gaps that only a diagonal passes, and some
    resolutions have no exact float: wherever a ray enters a wall at or near
    a grid corner, the run's own or one between its cells, ``sense`` gives
    the reference's bits.  The central ray of an odd fan runs along the
    heading."""
    rng = random.Random(seed)
    body = AgentBody()
    for pose in grid_poses(world, rng, 8):
        assert ray_bits(sense(world, pose, body, 31)) == ray_bits(
            ref_sense(world, pose, body, 31)), pose


@settings(max_examples=150, deadline=None)
@given(world=walled_worlds(), seed=st.integers(0, 2 ** 32 - 1),
       reach=st.one_of(st.just(0.1), st.floats(0.01, 0.6)))
def test_clearance_matches_reference_near_special_points(world, seed, reach):
    """Each probe point s, and the point ``reach`` from s along its direction:
    ``clearance_with_nearest`` gives the reference's distance and nearest
    point, and ``clearance`` the same distance."""
    rng = random.Random(seed)
    ref = RefClearance(world)
    for (sx, sy), (ux, uy) in probes(world, rng):
        for x, y in ((sx, sy), (sx + reach * ux, sy + reach * uy)):
            d, (nx, ny) = world.clearance_with_nearest(x, y)
            rd, (rx, ry) = ref(x, y)
            assert bits(d, nx, ny) == bits(rd, rx, ry), (x, y)
            assert bits(world.clearance(x, y)) == bits(d), (x, y)


def disc_border_ties(world, rng):
    """Points of a disc's tie with the left map border that rounding alone
    decides, each with the direction away from the disc along x: the scan's
    ``np.hypot`` puts the disc nearer than the border, but ``math.hypot`` of
    the same gaps, less the radius, does not.  Moving away from the disc,
    the point is the corner of its segment's box nearest to the disc, so a
    bound on the disc without its margin would pass the border distance."""
    out = []
    for cx, cy, r in ((*o.center, o.radius) for o in world.objects):
        ys = cy + np.array([rng.uniform(-1.5, 1.5) for _ in range(4000)])
        xs = (cx * cx + (ys - cy) ** 2 - r * r) / (2.0 * (r + cx))
        keep = (xs > 0.0) & (xs < cx) & (ys >= 0.0) & (ys < world.height_m)
        for x, y in zip(xs[keep].tolist(), ys[keep].tolist()):
            if float(np.hypot(cx - x, cy - y)) - r < x <= math.hypot(cx - x, cy - y) - r:
                out.append(((x, y), (-1.0, 0.0)))
    return out


@settings(max_examples=150, deadline=None)
@given(world=walled_worlds(), seed=st.integers(0, 2 ** 32 - 1),
       length=st.one_of(st.just(0.0), st.just(0.32), st.floats(0.0, 3.0)))
def test_clearance_along_a_segment_matches_the_full_scan(world, seed, length):
    """Segments that start at each probe point (grid corners, the border,
    obstacle interiors, disc boundaries, slot ties and disc-border ties) or
    end there, each way along its direction.  At the segment's ends and at
    points between, computed as the motion computes them, the clearance
    through the surfaces along the segment has the full scan's bits."""
    rng = random.Random(seed)
    for (px, py), (ux, uy) in probes(world, rng) + disc_border_ties(world, rng):
        for sx, sy in ((ux, uy), (-ux, -uy)):
            for x0, y0 in ((px, py), (px - length * sx, py - length * sy)):
                near = world.surfaces_along(x0, y0, sx, sy, length)
                for t in (0.0, length, length * rng.random(), length * rng.random()):
                    x, y = x0 + t * sx, y0 + t * sy
                    assert bits(world.clearance_along(x, y, near)) == bits(
                        world.clearance(x, y)), (x0, y0, sx, sy, t)


def test_clearance_ties_across_runs_keep_the_reference_winner():
    """Slots between walls one cell thick that cross a long room, as columns
    (vertical runs) and, in the transposed room, as rows (horizontal runs).
    A point halfway across a slot is, in exact arithmetic, as near to one
    wall as to the other, and rounding decides; where it leaves an exact tie,
    the wall first in row-major order wins, as in the reference."""
    rng = random.Random(3)
    checked = ties = 0
    for res in (0.05, 0.07, 0.1, 0.13, 0.17, 0.25):
        grid = np.zeros((40, 400), dtype=np.uint8)
        walls = [0]
        while walls[-1] + 17 < 400:  # slots of 3 to 16 free cells
            walls.append(walls[-1] + rng.randint(4, 17))
        grid[:, walls] = OBSTACLE
        for flip in (False, True):
            world = WorldMap(grid.T.copy() if flip else grid, res)
            spans = [span for *_, span in world._wall_runs()]
            along = [(iy0 == iy1 if flip else ix0 == ix1) and max(ix1 - ix0, iy1 - iy0) == 39
                     for ix0, ix1, iy0, iy1 in spans]
            assert len(spans) == len(walls) and all(along)
            ref = RefClearance(world)
            for a, b in zip(walls, walls[1:]):
                s = ((a + 1) * res + b * res) / 2
                for k in (19, 20):
                    for t in (k * res, (k + 0.5) * res, (k + rng.random()) * res):
                        x, y = (t, s) if flip else (s, t)
                        d, (nx, ny) = world.clearance_with_nearest(x, y)
                        rd, (rx, ry) = ref(x, y)
                        assert bits(d, nx, ny) == bits(rd, rx, ry), (res, flip, x, y)
                        assert bits(world.clearance(x, y)) == bits(d)
                        near = [world._cell_rect_distance(x, y, *((k, j) if flip else (j, k)))
                                for j in (a, b)]
                        ties += near[0] == near[1] == d
                        checked += 1
    assert checked > 2000 and ties > 100


def test_clearance_ties_between_a_row_run_and_a_column_run_keep_the_reference_winner():
    """A column wall and a row wall above it: on their bisector the two walls
    are equally near in exact arithmetic.  The column wall's cell, with the
    lower ``iy``, comes first in row-major order and wins an exact tie, the
    row wall's cell being no nearer even when it is measured first."""
    rng = random.Random(4)
    checked = ties = 0
    for res in (0.05, 0.07, 0.1, 0.13, 0.17, 0.25):
        grid = np.zeros((100, 100), dtype=np.uint8)
        grid[30:56, 40] = OBSTACLE
        grid[70, 45:] = OBSTACLE
        world = WorldMap(grid, res)
        ref = RefClearance(world)
        for iy in range(45, 55):
            for y in (iy * res, (iy + 0.5) * res, (iy + rng.random()) * res):
                x = 41 * res + (70 * res - y)
                d, (nx, ny) = world.clearance_with_nearest(x, y)
                rd, (rx, ry) = ref(x, y)
                assert bits(d, nx, ny) == bits(rd, rx, ry), (res, x, y)
                assert bits(world.clearance(x, y)) == bits(d)
                jx, jy = world.cell_of(x, y)
                column, row = (world._cell_rect_distance(x, y, *cell) for cell in ((40, jy), (jx, 70)))
                ties += column == row == d
                checked += 1
    assert checked == 180 and ties > 20


def march_by_full_queries(world, pose, body, action):
    """``execute`` as first written: every marching point a full query."""
    heading = normalize_angle(pose.heading + action.theta)
    ux, uy = math.cos(heading), math.sin(heading)
    t = 0.0
    while t < action.r - 1e-9:
        c = world.clearance(pose.x + t * ux, pose.y + t * uy) - body.radius
        if c <= 1e-4:
            break
        t += min(c, action.r - t)
    return Pose(pose.x + t * ux, pose.y + t * uy, heading)


def test_execute_reads_the_surfaces_up_to_the_segments_end():
    """A pose in a slot 0.35 m wide, 0.175 m from both side walls, moving
    5.5 cm along it toward a block that spans most of the slot: the march
    creeps in steps of a few millimetres, and the block is nearest only at
    its last two points, within 2 mm of the segment's end.  A list of
    surfaces built for a segment 1 cm shorter misses the block there, and
    the march ends elsewhere."""
    grid = np.zeros((28, 9), dtype=np.uint8)
    grid[0, :] = grid[-1, :] = grid[:, 0] = grid[:, -1] = OBSTACLE
    grid[11:13, 2:7] = OBSTACLE
    world = WorldMap(grid, 0.05)
    pose = Pose(0.225, 0.325, 1.236857310387923)
    action = PolarAction(0.05534621707453201, 0.29063285879899636)
    got = execute(world, pose, AgentBody(), action).new_pose
    want = march_by_full_queries(world, pose, AgentBody(), action)
    assert bits(got.x, got.y, got.heading) == bits(want.x, want.y, want.heading)


def test_execute_matches_a_march_of_full_queries(worlds):
    """Marches that graze walls, slots and discs."""
    body = AgentBody()
    rng = random.Random(13)
    for world in worlds:
        free = world.free_with_clearance(body.radius)
        iys, ixs = np.nonzero(free)
        for _ in range(150):
            k = rng.randrange(len(ixs))
            x, y = world.cell_center(int(ixs[k]), int(iys[k]))
            pose = Pose(x, y, rng.uniform(-math.pi, math.pi))
            action = PolarAction(rng.uniform(0.05, 4.0), rng.uniform(-math.pi, math.pi))
            got = execute(world, pose, body, action).new_pose
            want = march_by_full_queries(world, pose, body, action)
            assert bits(got.x, got.y, got.heading) == bits(want.x, want.y, want.heading)
