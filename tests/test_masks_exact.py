"""The free-space mask, the component labelling and the object occupancy
against scipy.ndimage and a whole-grid ``hypot``.

``WorldMap.free_with_clearance`` dilates the occupancy by every cell offset
within the radius, with each distance in the float operations of
``distance_transform_edt(..., sampling=res)``; ``worldgen._main_component``
labels runs of free cells; ``occupancy_with_objects`` tests each disc on its
``disc_cells`` only.  scipy is imported here, never on the package's set-up path.
"""
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from dynav.world import OBSTACLE, SemanticObject, WorldMap
from dynav.worldgen import WorldGenSpec, _main_component, generate_world

from conftest import random_grid_world


@pytest.fixture(scope="module")
def worlds():
    out = [generate_world(WorldGenSpec(), seed) for seed in (0, 4)]
    out += [generate_world(WorldGenSpec(width_m=8.0, height_m=6.0, rooms=2, resolution=res,
                                        hazards=("sign",)), 3)
            for res in (0.05, 0.07, 0.13, 0.25)]
    return out


def edt_distance(dy: int, dx: int, res: float) -> float:
    """The distance of a cell offset as distance_transform_edt computes it."""
    a, b = dy * res, dx * res
    return math.sqrt(a * a + b * b)


def nearest_float_distance(occ, dist, ft, res):
    """Per cell, the least float distance over the occupied cells as near as
    scipy's feature in exact arithmetic.

    scipy's feature transform picks one cell of each exact tie (offsets (2, 9)
    and (6, 7) are both sqrt(85) cells away), and the floats of tied offsets
    can differ in the last bit.  The mask blocks a cell when any occupied cell
    lies within the radius, so it follows the least of them.
    """
    h, w = occ.shape
    iy, ix = np.nonzero(~occ)
    n = (ft[0][iy, ix] - iy) ** 2 + (ft[1][iy, ix] - ix) ** 2
    least = dist.copy()
    for sq in np.unique(n).tolist():
        cy, cx = iy[n == sq], ix[n == sq]
        for dy in range(math.isqrt(sq) + 1):
            dx = math.isqrt(sq - dy * dy)
            if dx * dx + dy * dy != sq:
                continue
            for ty, tx in ((cy + dy, cx + dx), (cy + dy, cx - dx),
                           (cy - dy, cx + dx), (cy - dy, cx - dx)):
                inside = (ty >= 0) & (ty < h) & (tx >= 0) & (tx < w)
                hit = np.zeros_like(inside)
                hit[inside] = occ[ty[inside], tx[inside]]
                least[cy[hit], cx[hit]] = np.minimum(least[cy[hit], cx[hit]],
                                                     edt_distance(dy, dx, res))
    return least


def test_free_mask_matches_edt_at_every_distance(worlds):
    ties = 0
    for world in worlds:
        occ = world.occupancy_with_objects()
        dist, ft = ndimage.distance_transform_edt(~occ, sampling=world.resolution,
                                                  return_indices=True)
        least = nearest_float_distance(occ, dist, ft, world.resolution)
        radii = set()
        for v in np.unique(dist).tolist():
            radii.update((v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)))
        for r in sorted(radii):
            world._free_cache.clear()
            mask = world.free_with_clearance(r)
            assert np.array_equal(mask, least > r), (world.resolution, r)
            # scipy agrees wherever its feature is not a float-farther tie
            tied = (least <= r) & (dist > r)
            assert np.array_equal(mask[~tied], (dist > r)[~tied]), (world.resolution, r)
            ties += int(tied.sum())
    assert ties < 10  # a last-bit difference between exactly tied offsets


def test_free_mask_takes_the_nearer_float_of_an_exact_tie():
    """Offsets (9, 2) and (6, 7) are both sqrt(85) cells away; at 0.1 m their
    floats differ in the last bit, and a radius between them blocks the cell
    only through the (9, 2) one."""
    r = edt_distance(9, 2, 0.1)
    assert r < edt_distance(6, 7, 0.1)
    for offsets, free in (([(9, 2), (-6, -7)], False), ([(-6, -7)], True)):
        grid = np.zeros((30, 30), dtype=np.uint8)
        for dy, dx in offsets:
            grid[12 + dy, 12 + dx] = OBSTACLE
        assert WorldMap(grid, 0.1).free_with_clearance(r)[12, 12] == free


def test_free_mask_matches_edt_at_the_radii_runs_use():
    body, margin = 0.17, 0.05  # planning and worldgen use the body; random_free_pose adds 0.05
    for seed in range(12):
        world = generate_world(WorldGenSpec(rooms=3, categories=("chair", "table", "plant"),
                                            objects_per_category=2, hazards=("sign",)), seed)
        dist = ndimage.distance_transform_edt(~world.occupancy_with_objects(),
                                              sampling=world.resolution)
        for r in (body, body + margin):
            assert np.array_equal(world.free_with_clearance(r), dist > r), (seed, r)


def edge_shape_worlds(rng: random.Random):
    """Grids of one row, one column, one cell and 5 x 7 cells: each with an
    occupied and a free cell where it has two, and each with every cell
    occupied once an object covers its one free cell."""
    for h, w in ((1, rng.randrange(2, 40)), (rng.randrange(2, 40), 1), (1, 1), (5, 7)):
        res = rng.choice([0.05, 0.1, 0.3])
        cells = rng.sample(range(h * w), min(h * w, 2))
        if h * w > 1:
            grid = np.array([OBSTACLE * (rng.random() < 0.4) for _ in range(h * w)],
                            dtype=np.uint8).reshape(h, w)
            grid.flat[cells] = (0, OBSTACLE)
            yield WorldMap(grid, res)
        grid = np.full((h, w), OBSTACLE, dtype=np.uint8)
        grid.flat[cells[0]] = 0
        iy, ix = divmod(cells[0], w)
        box = SemanticObject("box_1", "box", ((ix + 0.5) * res, (iy + 0.5) * res), res / 2)
        world = WorldMap(grid, res, [box])
        assert world.occupancy_with_objects().all()
        yield world


def test_free_mask_on_random_grids_and_far_radii():
    rng = random.Random(5)
    squares = (random_grid_world(rng, n=rng.randrange(6, 40), fill=rng.uniform(0.05, 0.5),
                                 resolution=rng.choice([0.05, 0.1, 0.3])) for _ in range(20))
    for world in itertools.chain(squares, edge_shape_worlds(random.Random(6))):
        dist = ndimage.distance_transform_edt(~world.occupancy_with_objects(),
                                              sampling=world.resolution)
        for r in (-1.0, 0.0, rng.uniform(0, 1.5), 1e6, math.inf):
            world._free_cache.clear()
            assert np.array_equal(world.free_with_clearance(r), dist > r), r


def test_free_mask_cache_keeps_near_radii_apart():
    """A radius 4e-10 below one already asked for gets its own mask, which
    here blocks fewer cells."""
    world = generate_world(WorldGenSpec(), 0)
    fresh = WorldMap(world.grid, world.resolution, world.objects)
    r = 0.2 - 4e-10
    world.free_with_clearance(0.2)
    assert np.array_equal(world.free_with_clearance(r), fresh.free_with_clearance(r))
    assert not np.array_equal(fresh.free_with_clearance(r), fresh.free_with_clearance(0.2))


def test_free_mask_without_occupied_cells_is_all_free():
    """The one intended difference from scipy: with no occupied cell, the
    transform measures from a cell outside the grid, while nothing blocks."""
    world = WorldMap(np.zeros((5, 6), dtype=np.uint8), 0.1)
    assert world.free_with_clearance(0.2).all()
    dist = ndimage.distance_transform_edt(np.ones((5, 6), dtype=bool), sampling=0.1)
    assert not (dist > 0.2).all()


def ref_main_component(free):
    labels, n = ndimage.label(free)
    sizes = ndimage.sum(free, labels, index=range(1, n + 1))
    if n == 0:
        return np.zeros_like(free, dtype=bool), sizes
    return labels == int(np.argmax(sizes)) + 1, sizes


def check_labelling(free):
    main, sizes = _main_component(free)
    ref_main, ref_sizes = ref_main_component(free)
    assert np.array_equal(main, ref_main)
    assert np.array_equal(sizes, ref_sizes)  # same sizes in the same order
    return sizes


def test_main_component_matches_ndimage_label():
    rng = np.random.default_rng(3)
    tied = 0
    for _ in range(1500):
        h, w = rng.integers(1, 25, size=2)
        free = rng.random((h, w)) < rng.uniform(0.05, 0.95)
        sizes = check_labelling(free)
        tied += len(sizes) > 1 and np.sort(sizes)[-2] == sizes.max()
    assert tied > 100  # ties for the largest component are exercised


@pytest.mark.parametrize("name, free", [
    ("empty", np.zeros((4, 5), dtype=bool)),
    ("full", np.ones((4, 5), dtype=bool)),
    ("row", np.array([[1, 0, 1, 1, 0, 1]], dtype=bool)),
    ("column", np.array([[1], [0], [1], [1]], dtype=bool)),
    ("checkerboard", np.indices((6, 7)).sum(axis=0) % 2 == 0),
    ("u-joined-late", np.array([[1, 0, 1], [1, 0, 1], [1, 1, 1]], dtype=bool)),
    ("diagonal-only", np.eye(5, dtype=bool)),
    ("comb", np.array([[1, 0, 1, 0, 1], [1, 0, 1, 0, 1], [1, 1, 1, 1, 1], [0, 1, 0, 1, 0]],
                      dtype=bool)),
])
def test_main_component_edge_cases(name, free):
    check_labelling(free)


def test_main_component_on_generated_worlds(worlds):
    for world in worlds:
        check_labelling(world.free_with_clearance(0.17))
        check_labelling(world.free_with_clearance(0.22))


def test_occupancy_matches_whole_grid_hypot():
    rng = random.Random(9)
    for _ in range(30):
        base = random_grid_world(rng, n=rng.randrange(8, 50), fill=0.1,
                                 resolution=rng.choice([0.05, 0.1, 0.25]))
        side = base.width_m
        objects = [SemanticObject(name=f"o{k}", category="c",
                                  center=(rng.uniform(0, side), rng.uniform(0, side)),
                                  radius=rng.choice([rng.uniform(0.01, 0.5), 3 * side]))
                   for k in range(rng.randrange(1, 6))]
        objects.append(SemanticObject(name="corner", category="c", center=(side, side),
                                      radius=2 * base.resolution))
        world = WorldMap(np.array(base.grid), base.resolution, objects)
        ys, xs = np.mgrid[0: world.height_cells, 0: world.width_cells]
        cx = (xs + 0.5) * world.resolution
        cy = (ys + 0.5) * world.resolution
        ref = world.grid == OBSTACLE
        for o in objects:
            ref = ref | (np.hypot(cx - o.center[0], cy - o.center[1]) <= o.radius)
        assert np.array_equal(world.occupancy_with_objects(), ref)


@st.composite
def discs_on_grids(draw):
    """A free grid, and a disc centre anywhere in or at the edge of its world
    with a reach from below one cell to past the whole world."""
    h, w = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    world = WorldMap(np.zeros((h, w), dtype=np.uint8),
                     draw(st.sampled_from((0.05, 0.1, 0.13, 0.25))))
    ox = draw(st.sampled_from((0.0, world.width_m)) | st.floats(0.0, world.width_m))
    oy = draw(st.sampled_from((0.0, world.height_m)) | st.floats(0.0, world.height_m))
    reach = draw(st.floats(0.0, 3 * max(world.width_m, world.height_m))
                 | st.sampled_from((0.0, 1e300, math.inf)))
    return world, ox, oy, reach


@settings(max_examples=300, deadline=None)
@given(discs_on_grids())
def test_disc_cells_match_a_per_cell_loop(case):
    """The box holds every cell centre within the reach, and its distances
    are those of a ``hypot`` taken cell by cell over the whole grid."""
    world, ox, oy, reach = case
    box, dist = world.disc_cells(ox, oy, reach)
    res = world.resolution
    brute = np.array([[np.hypot((ix + 0.5) * res - ox, (iy + 0.5) * res - oy)
                       for ix in range(world.width_cells)]
                      for iy in range(world.height_cells)])
    assert np.array_equal(dist, brute[box])
    outside = np.ones(brute.shape, dtype=bool)
    outside[box] = False
    assert not np.any(brute[outside] <= reach)
