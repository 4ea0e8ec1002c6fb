"""World map tests: serialization round-trips and exact clearance geometry."""
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynav.errors import SchemaViolation
from dynav.world import FREE, OBSTACLE, WORLD_FORMAT, SemanticObject, WorldMap

from conftest import (MISSING, dotted, empty_world, json_values, random_grid_world, replaced,
                      replacements)


def brute_clearance(world: WorldMap, x: float, y: float) -> float:
    """Reference clearance: min over every obstacle cell rect, disc, and wall."""
    best = min(x, y, world.width_m - x, world.height_m - y)
    res = world.resolution
    for iy in range(world.height_cells):
        for ix in range(world.width_cells):
            if world.grid[iy, ix] != OBSTACLE:
                continue
            dx = max(ix * res - x, 0.0, x - (ix + 1) * res)
            dy = max(iy * res - y, 0.0, y - (iy + 1) * res)
            best = min(best, math.hypot(dx, dy))
    for obj in world.objects:
        best = min(best, obj.boundary_distance(x, y))
    return best


# -- SemanticObject -----------------------------------------------------------


def test_object_dict_round_trip():
    obj = SemanticObject(
        name="chair_3",
        category="chair",
        center=(1.25, 4.5),
        radius=0.3,
        attributes=("red", "wooden"),
        tags=frozenset({"hazard"}),
    )
    again = SemanticObject.from_dict(obj.to_dict())
    assert again == obj


def test_object_validation():
    with pytest.raises(ValueError):
        SemanticObject(name="", category="chair", center=(0, 0), radius=0.3)
    with pytest.raises(ValueError):
        SemanticObject(name="c", category="chair", center=(0, 0), radius=0.0)
    with pytest.raises(ValueError):  # a ray could not tell it from a wall cell
        SemanticObject(name="wall", category="chair", center=(0, 0), radius=0.3)
    with pytest.raises(ValueError, match="non-empty"):
        SemanticObject(name="c", category="chair", center=(0, 0), radius=0.3,
                       attributes=("red", ""))
    # names and attributes are records on the wire, never parsed from text
    for name in ("a. b", "tv.", "tv.stand", "tv (old)", "look at"):
        assert SemanticObject(name=name, category="tv", center=(0, 0), radius=0.3)
    for attribute in ("red, tall", "x)", " red"):
        assert SemanticObject(name="c", category="chair", center=(0, 0), radius=0.3,
                              attributes=("red", attribute))
    with pytest.raises(SchemaViolation):
        SemanticObject.from_dict({"name": "c", "category": "chair"})


@pytest.mark.parametrize("center, radius", [
    ((math.nan, 1.0), 0.3), ((1.0, math.inf), 0.3), ((1.0, 1.0), math.inf),
    ((1.0, 1.0), math.nan), ((1.0,), 0.3)])
def test_object_refuses_non_finite_geometry(center, radius):
    with pytest.raises(ValueError):
        SemanticObject(name="c", category="chair", center=center, radius=radius)


GOOD_OBJECT = {"name": "c", "category": "chair", "center": [1.0, 1.0], "radius": 0.3,
               "attributes": ["red"], "tags": []}


@pytest.mark.parametrize("field, value", [
    ("name", 5), ("category", None), ("center", "12"), ("center", [1.0]),
    ("center", [1.0, "2"]), ("center", [1.0, math.nan]), ("radius", math.inf),
    ("radius", "0.3"), pytest.param("radius", 10 ** 400, id="radius-huge-int"),
    ("attributes", "red"), ("tags", "hazard"), ("name", "wall"), ("name", ""),
    ("attributes", [""]), ("attributes", ["red", ""]), ("attributes", [None])])
def test_object_from_dict_refuses_bad_fields(field, value):
    with pytest.raises(SchemaViolation):
        SemanticObject.from_dict(dict(GOOD_OBJECT, **{field: value}))


# -- construction invariants --------------------------------------------------


def test_grid_is_locked(box_world):
    with pytest.raises(ValueError):
        box_world.grid[5, 5] = OBSTACLE


@pytest.mark.parametrize("make", [
    lambda: np.zeros((10, 10), dtype=np.uint8),
    lambda: np.zeros((12, 10), dtype=np.uint8)[1:11],   # a view of a writable array
    lambda: np.zeros((10, 10), dtype=np.uint8).T,       # not in row-major order
    lambda: np.zeros((10, 10), dtype=bool),             # converted
], ids=["array", "view", "transposed", "bool"])
def test_the_callers_grid_stays_writable_and_apart(make):
    grid = make()
    world = WorldMap(grid, 0.1)
    assert grid.flags.writeable and not world.grid.flags.writeable
    grid[5, 5] = OBSTACLE
    assert world.grid[5, 5] == FREE
    # a frozen grid that no other array shares passes uncopied
    assert WorldMap(world.grid, 0.1).grid is world.grid


def test_constructor_rejects_bad_inputs():
    grid = np.zeros((4, 4), dtype=np.uint8)
    for resolution in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            WorldMap(grid, resolution)
    with pytest.raises(ValueError):
        WorldMap(np.ones((4, 4), dtype=np.uint8), resolution=0.1)
    with pytest.raises(ValueError):
        WorldMap(np.zeros(4, dtype=np.uint8), resolution=0.1)
    dup = SemanticObject(name="a", category="chair", center=(0.2, 0.2), radius=0.1)
    with pytest.raises(ValueError):
        WorldMap(grid, 0.1, [dup, dup])
    far = SemanticObject(name="b", category="chair", center=(99.0, 0.2), radius=0.1)
    with pytest.raises(ValueError):
        WorldMap(grid, 0.1, [far])


def test_empty_world_has_wall_ring():
    world = empty_world(3.0, 2.0, resolution=0.1)
    assert world.width_cells == 30 and world.height_cells == 20
    assert np.all(world.grid[0, :] == OBSTACLE)
    assert np.all(world.grid[-1, :] == OBSTACLE)
    assert np.all(world.grid[:, 0] == OBSTACLE)
    assert np.all(world.grid[:, -1] == OBSTACLE)
    assert np.all(world.grid[1:-1, 1:-1] == FREE)


# -- clearance ----------------------------------------------------------------


def test_clearance_matches_brute_force(cluttered_world):
    rng = random.Random(7)
    for _ in range(40):
        x = rng.uniform(0.0, cluttered_world.width_m)
        y = rng.uniform(0.0, cluttered_world.height_m)
        assert cluttered_world.clearance(x, y) == pytest.approx(
            brute_clearance(cluttered_world, x, y), abs=1e-9
        )


def test_clearance_frozen_values(plant_world):
    # plant disc at (8, 4) with radius 0.3; walls at x=0/10, y=0/8
    assert plant_world.clearance(5.0, 4.0) == pytest.approx(2.7, abs=1e-9)
    assert plant_world.clearance(8.0, 4.0) == pytest.approx(-0.3, abs=1e-9)
    assert plant_world.clearance(0.5, 4.0) == pytest.approx(0.4, abs=1e-9)


def test_clearance_nearest_point_is_consistent(cluttered_world):
    rng = random.Random(11)
    for _ in range(40):
        x = rng.uniform(0.3, cluttered_world.width_m - 0.3)
        y = rng.uniform(0.3, cluttered_world.height_m - 0.3)
        d, (nx, ny) = cluttered_world.clearance_with_nearest(x, y)
        if d > 0:
            assert math.hypot(nx - x, ny - y) == pytest.approx(d, abs=1e-9)


def test_free_with_clearance_matches_brute_force():
    world = empty_world(
        3.0, 3.0, resolution=0.1,
        objects=[SemanticObject(name="p", category="plant", center=(1.5, 1.5), radius=0.25)],
    )
    radius = 0.17
    mask = world.free_with_clearance(radius)
    occ = world.occupancy_with_objects()
    blocked_centers = [
        world.cell_center(ix, iy)
        for iy in range(world.height_cells)
        for ix in range(world.width_cells)
        if occ[iy, ix]
    ]
    for iy in range(world.height_cells):
        for ix in range(world.width_cells):
            cx, cy = world.cell_center(ix, iy)
            d = min(math.hypot(cx - bx, cy - by) for bx, by in blocked_centers)
            assert mask[iy, ix] == (d > radius), (ix, iy)


def test_occupancy_includes_object_discs(plant_world):
    occ = plant_world.occupancy_with_objects()
    ix, iy = plant_world.cell_of(8.0, 4.0)
    assert occ[iy, ix]
    # cell center inside the disc counts, a center just outside does not
    assert occ[plant_world.cell_of(8.25, 4.0)[1], plant_world.cell_of(8.25, 4.0)[0]]
    assert not occ[plant_world.cell_of(8.45, 4.0)[1], plant_world.cell_of(8.45, 4.0)[0]]
    with pytest.raises(ValueError):
        occ[0, 0] = True


# -- serialization ------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_save_load_round_trip(tmp_path_factory, seed):
    world = random_grid_world(random.Random(seed), n=24, fill=0.3)
    world = WorldMap(
        np.array(world.grid), world.resolution,
        [SemanticObject(name="t", category="table", center=(1.2, 1.2), radius=0.2,
                        attributes=("white",), tags=frozenset({"fragile"}))],
    )
    path = tmp_path_factory.mktemp("worlds") / f"w{seed}.json"
    world.save(path)
    again = WorldMap.load(path)
    assert np.array_equal(again.grid, world.grid)
    assert again.resolution == world.resolution
    assert again.objects == world.objects


def test_rle_encoding_shape(box_world):
    d = box_world.to_dict()
    assert d["format"] == WORLD_FORMAT
    # a solid wall row collapses to a single run
    assert d["grid"][0] == [[box_world.width_cells, OBSTACLE]]
    # an interior row is wall, free span, wall
    assert d["grid"][1] == [[1, OBSTACLE], [box_world.width_cells - 2, FREE], [1, OBSTACLE]]
    for runs in d["grid"]:
        assert sum(count for count, _ in runs) == box_world.width_cells


def test_load_rejects_bad_payloads(tmp_path, box_world):
    good = box_world.to_dict()

    bad_format = dict(good, format="dynav-world/9")
    with pytest.raises(SchemaViolation):
        WorldMap.from_dict(bad_format)

    short = dict(good, grid=good["grid"][:-1])
    with pytest.raises(SchemaViolation):
        WorldMap.from_dict(short)

    bad_run = dict(good, grid=[[[box_world.width_cells, 7]]] + good["grid"][1:])
    with pytest.raises(SchemaViolation):
        WorldMap.from_dict(bad_run)

    ragged = dict(good, grid=[[[3, OBSTACLE]]] + good["grid"][1:])
    with pytest.raises(SchemaViolation):
        WorldMap.from_dict(ragged)

    with pytest.raises(SchemaViolation):
        WorldMap.from_dict({"format": WORLD_FORMAT})

    for payload in ([], "world", None, 5):
        with pytest.raises(SchemaViolation):
            WorldMap.from_dict(payload)

    for field, value in [("resolution", math.nan), ("resolution", "0.1"), ("width", 4.0),
                         ("grid", {}), ("objects", {})]:
        with pytest.raises(SchemaViolation):
            WorldMap.from_dict(dict(good, **{field: value}))

    # the rows are checked before the grid is allocated: a width no memory
    # could hold fails on the first row, not in numpy
    with pytest.raises(SchemaViolation):
        WorldMap.from_dict(dict(good, width=10 ** 15))

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(SchemaViolation):
        WorldMap.load(broken)


def test_save_is_plain_json(tmp_path, plant_world):
    path = tmp_path / "w.json"
    plant_world.save(path)
    payload = json.loads(path.read_text())
    assert payload["format"] == WORLD_FORMAT
    assert payload["objects"][0]["name"] == "plant_1"


# -- fuzzing: world payloads raise SchemaViolation and nothing else -------------

SMALL_WORLD = {
    "format": WORLD_FORMAT, "resolution": 0.5, "width": 3, "height": 2,
    "grid": [[[3, FREE]], [[1, OBSTACLE], [2, FREE]]],
    "objects": [{"name": "chair_1", "category": "chair", "center": [1.0, 0.5],
                 "radius": 0.2, "attributes": ["red"], "tags": ["hazard"]}],
}
WORLD_PATHS = [
    ("format",), ("resolution",), ("width",), ("height",), ("grid",), ("grid", 0),
    ("grid", 1, 0), ("grid", 1, 0, 0), ("grid", 1, 0, 1), ("objects",), ("objects", 0),
    ("objects", 0, "name"), ("objects", 0, "category"), ("objects", 0, "center"),
    ("objects", 0, "center", 1), ("objects", 0, "radius"), ("objects", 0, "attributes"),
    ("objects", 0, "tags"),
]


def loads_or_violates(payload):
    try:
        world = WorldMap.from_dict(payload)
    except SchemaViolation:
        return
    assert math.isfinite(world.resolution) and world.resolution > 0
    for o in world.objects:
        assert all(map(math.isfinite, (*o.center, o.radius)))
        assert all(isinstance(a, str) for a in (*o.attributes, *o.tags))


def test_small_world_loads():
    assert WorldMap.from_dict(SMALL_WORLD).to_dict() == SMALL_WORLD


@settings(max_examples=200, deadline=None)
@given(payload=json_values)
def test_world_from_dict_raises_only_schema_violation(payload):
    loads_or_violates(payload)


@pytest.mark.parametrize("path", WORLD_PATHS, ids=dotted)
@settings(max_examples=30, deadline=None)
@given(value=replacements)
def test_world_field_raises_only_schema_violation(path, value):
    if isinstance(path[-1], int) and value is MISSING:
        return
    loads_or_violates(replaced(SMALL_WORLD, path, value))
