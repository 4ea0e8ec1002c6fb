"""Procedural world generation: determinism, connectivity, and placement rules."""
import random

import numpy as np
import pytest
from scipy import ndimage

from dynav.config import RunConfig
from dynav.errors import GenerationFailed, SchemaViolation
from dynav.geometry import AgentBody
from dynav.worldgen import WorldGenSpec, generate_world, random_free_pose

from conftest import BAD_WORLDGEN

SPEC = WorldGenSpec()
# the body radius and success distance that placement and the checks serve
AGENT_RADIUS = RunConfig().agent_radius
GOAL_THRESHOLD = RunConfig().success_threshold_m


def test_same_seed_same_world():
    a = generate_world(SPEC, seed=42)
    b = generate_world(SPEC, seed=42)
    assert np.array_equal(a.grid, b.grid)
    assert a.objects == b.objects


def test_different_seeds_differ():
    a = generate_world(SPEC, seed=1)
    b = generate_world(SPEC, seed=2)
    assert not (np.array_equal(a.grid, b.grid) and a.objects == b.objects)


@pytest.mark.parametrize("seed", [0, 7, 123, 999])
def test_object_inventory(seed):
    spec = WorldGenSpec(categories=("chair", "table"), objects_per_category=2,
                        hazards=("sign",))
    world = generate_world(spec, seed)
    by_cat = {}
    for o in world.objects:
        by_cat.setdefault(o.category, []).append(o)
    assert len(by_cat["chair"]) == 2
    assert len(by_cat["table"]) == 2
    assert len(by_cat["sign"]) == 1
    assert all("hazard" in o.tags for o in by_cat["sign"])
    assert all("hazard" not in o.tags for o in by_cat["chair"] + by_cat["table"])
    names = [o.name for o in world.objects]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("seed", range(8))
def test_walkable_space_is_connected(seed):
    world = generate_world(SPEC, seed)
    free = world.free_with_clearance(AGENT_RADIUS)
    labels, n = ndimage.label(free)
    if n > 1:
        sizes = sorted(ndimage.sum(free, labels, index=range(1, n + 1)))
        assert sizes[-2] <= 25  # only negligible slivers besides the main component
    assert free.sum() >= 10


@pytest.mark.parametrize("seed", range(8))
def test_goal_bands_are_reachable(seed):
    world = generate_world(SPEC, seed)
    free = world.free_with_clearance(AGENT_RADIUS)
    labels, n = ndimage.label(free)
    sizes = ndimage.sum(free, labels, index=range(1, n + 1))
    main = labels == int(np.argmax(sizes)) + 1
    ys, xs = np.nonzero(main)
    cx = (xs + 0.5) * world.resolution
    cy = (ys + 0.5) * world.resolution
    for o in world.objects:
        d = np.hypot(cx - o.center[0], cy - o.center[1]) - o.radius
        assert np.any(d <= GOAL_THRESHOLD), o.name


@pytest.mark.parametrize("seed", range(8))
def test_object_standoff(seed):
    world = generate_world(SPEC, seed)
    probe_grid = np.array(world.grid)
    from dynav.world import WorldMap

    bare = WorldMap(probe_grid, world.resolution)
    for o in world.objects:
        standoff = o.radius + 2 * AGENT_RADIUS + GOAL_THRESHOLD
        assert bare.clearance(*o.center) >= standoff - 1e-9
    for a in world.objects:
        for b in world.objects:
            if a.name >= b.name:
                continue
            gap = np.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])
            assert gap >= a.radius + b.radius + 4 * AGENT_RADIUS - 1e-9


def test_generation_failure_is_reported():
    # a demand that cannot fit: dozens of large objects in a tiny world
    spec = WorldGenSpec(width_m=4.0, height_m=4.0, rooms=1, categories=("chair",),
                        objects_per_category=40)
    with pytest.raises(GenerationFailed):
        generate_world(spec, seed=0)


def test_spec_from_dict():
    spec = WorldGenSpec.from_dict({
        "width_m": 10.0, "height_m": 8.0, "rooms": 2,
        "categories": ["chair"], "objects_per_category": 2, "hazards": ["sign"],
        "seed": 3,  # tolerated and ignored: episode files keep seed next to the spec
    })
    assert spec.categories == ("chair",)
    assert spec.objects_per_category == 2
    assert spec.hazards == ("sign",)
    with pytest.raises(SchemaViolation):
        WorldGenSpec.from_dict({"rooms": 2, "towers": 9})


@pytest.mark.parametrize("d", BAD_WORLDGEN.values(), ids=BAD_WORLDGEN.keys())
def test_spec_from_dict_refuses_bad_values(d):
    with pytest.raises(SchemaViolation):
        WorldGenSpec.from_dict(d)


@pytest.mark.parametrize("d, name", [({"categories": ["a. b"]}, "a. b_1"),
                                     ({"hazards": ["tv."]}, "tv._1")], ids=repr)
def test_spec_takes_any_category_text(d, name):
    # names travel as records on the wire, so no category text is refused
    world = generate_world(WorldGenSpec.from_dict(d), 0)
    assert name in {o.name for o in world.objects}


def test_spec_from_dict_takes_integers_for_numbers():
    spec = WorldGenSpec.from_dict({"width_m": 10, "height_m": 8})
    assert spec.width_m == 10.0 and spec.height_m == 8.0


def test_spec_validation():
    with pytest.raises(ValueError):
        WorldGenSpec(width_m=1.0)
    with pytest.raises(ValueError):
        WorldGenSpec(rooms=0)


def test_random_free_pose_is_clear_and_deterministic():
    world = generate_world(SPEC, seed=11)
    body = AgentBody()
    a = random_free_pose(world, random.Random(4), body)
    b = random_free_pose(world, random.Random(4), body)
    assert a == b
    assert world.clearance(a.x, a.y) >= body.radius + 0.05


@pytest.mark.parametrize("d", [
    {"objects_per_category": 2_000_000},  # 4 000 000 objects, 19 200 cells
    {"categories": ["chair"], "objects_per_category": 19_200, "hazards": ["sign"]},
    {"rooms": 19_201},
    {"width_m": 1e308, "resolution": 1e-300},  # too many cells to count
])
def test_spec_refuses_more_objects_or_rooms_than_cells(d):
    with pytest.raises(SchemaViolation):
        WorldGenSpec.from_dict(d)


def test_spec_bound_on_grid_cells():
    side = 2 ** 12 * 0.1  # 4096 x 4096 cells: exactly the limit
    assert WorldGenSpec(width_m=side, height_m=side).width_m == side
    with pytest.raises(ValueError, match="exceeds the limit of 16777216"):
        WorldGenSpec(width_m=side, height_m=side + 0.1)


def test_spec_bound_admits_one_object_per_cell():
    spec = WorldGenSpec(width_m=4.0, height_m=3.0, resolution=0.5, categories=("chair",),
                        objects_per_category=47, hazards=("sign",))  # 8 x 6 cells
    assert spec.objects_per_category + len(spec.hazards) == 48
    with pytest.raises(ValueError, match="48 cells"):
        WorldGenSpec(width_m=4.0, height_m=3.0, resolution=0.5, rooms=49)


@pytest.mark.parametrize("seed", range(3))
def test_large_world_places_every_object(seed):
    # a 64 m x 48 m world of 30 rooms: the scale of a multi-floor scene
    spec = WorldGenSpec.from_dict({"width_m": 64, "height_m": 48, "rooms": 30,
                                   "categories": ["chair", "table"], "objects_per_category": 8})
    world = generate_world(spec, seed)
    assert [o.category for o in world.objects].count("chair") == 8
    assert len(world.objects) == 16
    pose = random_free_pose(world, random.Random(seed), AgentBody())
    assert world.clearance(pose.x, pose.y) >= AgentBody().radius + 0.05
