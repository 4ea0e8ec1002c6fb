"""The simulator kernels against plain scalar reference versions, bit for bit.

``sense``, ``WorldMap.clearance_with_nearest``, ``WorldMap.local_clearance``,
``reactive_avoid`` and ``execute`` use a flat framed grid, numpy over rays, a
search over edge cells, local clearance views and Lipschitz skipping of
avoidance samples.  The references below are the straightforward versions: a
DDA over ``grid[iy, ix]``, one ray-disc test per ray and object, a kd-tree
search over every obstacle cell, a full query for every point and a scan of
every avoidance sample.  Each test requires equal bits, not closeness.  Of
equally near obstacle cells the one first in row-major order wins: the lowest
``iy``, then the lowest ``ix``.
"""
import math
import random

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

from conftest import Row, empty_world, rays_of, with_rays

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
            backend = OracleBackend(hazard_clearance=cfg.hazard_clearance_m,
                                    success_threshold=cfg.success_threshold_m,
                                    r_scale=cfg.d_max)
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


def test_fans_of_different_size_and_width_do_not_share_angles(recorded_trajectories):
    world, trajectory, _ = recorded_trajectories[0]
    pose = trajectory[len(trajectory) // 2]
    body = AgentBody()
    fans = [(181, DEFAULT_FOV), (91, DEFAULT_FOV), (181, 1.0), (7, 3.0), (2, DEFAULT_FOV)]
    for n_rays, fov in fans + fans[::-1]:
        got = sense(world, pose, body, n_rays, fov)
        assert len(rays_of(got)) == n_rays and got.fov == fov
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


def test_a_repeated_clearance_query_is_answered_from_memory(worlds):
    """The last full query is kept: a repeat at the same point measures
    nothing and gives the same answer.  Points are the exact bits of plain
    floats, so -0.0 is not 0.0, and other numbers are measured each time; a
    scan caller (``local_clearance``) still gets its exact view."""
    world = worlds[0]

    def fresh():  # the same world with nothing in memory
        return WorldMap(world.grid, world.resolution, world.objects)

    searched = []
    search = world._nearest_cell
    world._nearest_cell = lambda *args: searched.append(args[:2]) or search(*args)
    try:
        x, y = 3.3, 2.7
        first = world.clearance_with_nearest(x, y)
        assert len(searched) == 1
        assert world.clearance_with_nearest(x, y) is first and len(searched) == 1
        assert world.clearance(x, y) == first[0] and len(searched) == 1
        assert world.clearance_with_nearest(x, 2.7000000000000006) is not first
        assert len(searched) == 2
        y = world.height_m / 2
        for point in [(0.0, y), (-0.0, y), (-0.0, y), (0.0, y), (1, 2), (1.0, 2.0), (1, 2),
                      (np.float64(1.0), 2.0)]:
            assert repr(world.clearance_with_nearest(*point)) == repr(
                fresh().clearance_with_nearest(*point)), point
        for point in [(2.5, 2.5), (2.5, 2.5), (2.55, 2.48)]:
            world.clearance_with_nearest(*point)
            c, view = world.local_clearance(*point, 0.1)
            c_ref, view_ref = fresh().local_clearance(*point, 0.1)
            assert bits(c) == bits(c_ref)
            for dx, dy in [(0.0, 0.0), (0.07, 0.0), (-0.05, 0.06), (0.0, -0.1)]:
                q = (point[0] + dx, point[1] + dy)
                assert bits(view(*q)) == bits(view_ref(*q)) == bits(fresh().clearance(*q)), q
    finally:
        del world._nearest_cell


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


def test_reactive_avoid_boxed_in_cases_match_full_scan():
    """A corridor too narrow to restore the clearance, and a slot too narrow
    for the body: the best sample, then NoEscape, as the full scan gives."""
    body = AgentBody()
    grid = empty_world(4.0, 3.0).grid.copy()
    grid[10:13, 5:35] = OBSTACLE
    grid[16:19, 5:35] = OBSTACLE      # corridor rows 13-15: 0.3 m wide
    grid[5:8, 5:35] = OBSTACLE        # slot row 8-9 with row 10 above: 0.2 m wide
    world = WorldMap(grid, 0.1)
    seen = set()
    for x in np.arange(0.55, 3.45, 0.1):
        for y in (1.45, 1.5, 0.85, 0.9, 0.95):
            pose = Pose(float(x), y, 0.3)
            got = outcome(reactive_avoid, world, pose, body, 0.32)
            assert got == outcome(ref_reactive_avoid, world, pose, body, 0.32), pose
            seen.add("NoEscape" if got == "NoEscape" else "moved" if got != bits(
                pose.x, pose.y, pose.heading) else "stayed")
    assert "NoEscape" in seen and ("moved" in seen or "stayed" in seen)


def test_reactive_avoid_measures_fewer_samples_than_a_full_scan(box_world):
    """Next to a single wall the clearance grows along the ray, and the
    Lipschitz bound skips the samples that cannot restore it yet.  Every
    measured sample counts, whether a full query or a local view answers it."""
    calls = []
    measure = box_world.clearance_with_nearest

    class Counting:
        def __getattr__(self, name):
            return getattr(box_world, name)

        def clearance_with_nearest(self, x, y):
            calls.append((x, y))
            return measure(x, y)

        def clearance(self, x, y):
            return self.clearance_with_nearest(x, y)[0]

        def local_clearance(self, x, y, reach):
            calls.append((x, y))
            c, view = box_world.local_clearance(x, y, reach)

            def counted(qx, qy):
                calls.append((qx, qy))
                return view(qx, qy)

            return c, counted

    pose = Pose(0.25, 4.0, 0.0)  # 0.15 m from the wall face at x = 0.1
    out = reactive_avoid(Counting(), pose, AgentBody(), 0.32)
    assert out == ref_reactive_avoid(box_world, pose, AgentBody(), 0.32)
    assert len(calls) <= 4  # a full scan measures 18


# -- local clearance views ---------------------------------------------------------


@st.composite
def view_worlds(draw):
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


def view_probes(world, rng):
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


@settings(max_examples=150, deadline=None)
@given(world=view_worlds(), seed=st.integers(0, 2 ** 32 - 1),
       reach=st.one_of(st.just(0.1), st.floats(0.01, 0.6)))
def test_local_view_matches_full_query(world, seed, reach):
    """Each probe point s is queried from a view centred on it and from one
    centred ``reach`` away along its direction, so that s lies on the edge of
    the view; other points lie anywhere within ``reach`` of the centre."""
    rng = random.Random(seed)
    for (sx, sy), (ux, uy) in view_probes(world, rng):
        for px, py in ((sx, sy), (sx + reach * ux, sy + reach * uy)):
            c, view = world.local_clearance(px, py, reach)
            assert bits(c) == bits(world.clearance(px, py))
            qs = [(sx, sy), (px - reach * ux, py - reach * uy)]
            for _ in range(3):
                a, d = rng.uniform(-math.pi, math.pi), reach * rng.random()
                qs.append((px + d * math.cos(a), py + d * math.sin(a)))
            for qx, qy in qs:
                assert bits(view(qx, qy)) == bits(world.clearance(qx, qy)), (px, py, qx, qy)


def test_local_view_keeps_both_cells_of_a_slot_tie():
    """Across a slot, the point s halfway between the two walls is, in exact
    arithmetic, as near to one as to the other, and a view centred ``reach``
    from s toward one wall sees the other at exactly c + 2*reach.  Rounding
    decides which wall is nearer to s, and to s as computed back from the
    centre, which may lie a rounding error beyond ``reach``; the view must keep
    the far wall, and the margin on c + 2*reach is what keeps it.  Walls run
    the height of a tall room, so that the slot's walls are the nearest."""
    rng = random.Random(3)
    checked = 0
    for res in (0.05, 0.07, 0.1, 0.13, 0.17, 0.25):
        grid = np.zeros((40, 400), dtype=np.uint8)
        walls = [0]
        while walls[-1] + 17 < 400:  # slots of 3 to 16 free cells
            walls.append(walls[-1] + rng.randint(4, 17))
        grid[:, walls] = OBSTACLE
        world = WorldMap(grid, res)
        for a, b in zip(walls, walls[1:]):
            sx = ((a + 1) * res + b * res) / 2
            half = (b - a - 1) * res / 2
            for reach in (0.1, 0.5 * half, 0.9 * half):
                if reach >= half:
                    continue
                for iy in (19, 20):
                    sy = (iy + rng.random()) * res
                    for ux in (-1.0, 1.0):
                        px = sx + reach * ux
                        c, view = world.local_clearance(px, sy, reach)
                        for qx in (sx, px - reach * ux):
                            assert bits(view(qx, sy)) == bits(world.clearance(qx, sy)), (res, qx)
                            checked += 1
    assert checked > 3000


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


def test_execute_matches_a_march_of_full_queries(worlds):
    """Marches that graze walls, slots and discs, so that many points are
    answered from local views."""
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
