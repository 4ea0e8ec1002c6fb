"""World set-up: generated worlds frozen by hash, the run detection against
its first, plain form, and the grid indexes that a generated world takes over
from the probe that placed its objects.

The hashes were recorded before the set-up kernels (``flat_runs``,
``_wall_runs``, ``_main_component``, ``free_with_clearance`` and the goal-band
check) were rewritten for speed, so they hold the rewrite to the worlds, start
poses and wall runs of the plain versions, bit for bit.
"""
import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynav import world as world_module
from dynav.geometry import AgentBody
from dynav.sensing import sense
from dynav.world import FREE, OBSTACLE, WorldMap, _row_runs
from dynav.worldgen import WorldGenSpec, generate_world, random_free_pose

# the world sets of the benchmark's objectnav and multigoal workloads
OBJECTNAV = dict(categories=["chair", "table"], rooms=2, objects_per_category=2)
MULTIGOAL = dict(rooms=3, categories=["chair", "table", "plant"], objects_per_category=2,
                 hazards=["sign"])


def ref_row_runs(mask):
    """Row, first and last column of each run of True in the mask's rows:
    one diff of the mask padded along its rows."""
    steps = np.diff(np.pad(mask, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    rows, first = np.nonzero(steps == 1)
    return rows, first, np.nonzero(steps == -1)[1] - 1


def ref_wall_runs(world):
    """``WorldMap._wall_runs`` written plainly: nine shifted ORs for the free
    8-neighbours, the rows' runs of two or more edge cells, then the single
    cells left over as runs along their columns."""
    free = np.pad(world.grid == FREE, 1)
    near_free = np.zeros_like(world.grid, dtype=bool)
    h, w = world.grid.shape
    for oy in range(3):
        for ox in range(3):
            near_free |= free[oy: oy + h, ox: ox + w]
    edge = (world.grid == OBSTACLE) & near_free
    iys, x0s, x1s = ref_row_runs(edge)
    single = x0s == x1s
    alone = np.zeros_like(edge)
    alone[iys[single], x0s[single]] = True
    ixs, y0s, y1s = ref_row_runs(alone.T)
    kept = ~single
    ix0 = np.concatenate([x0s[kept], ixs])
    ix1 = np.concatenate([x1s[kept], ixs])
    iy0 = np.concatenate([iys[kept], y0s])
    iy1 = np.concatenate([iys[kept], y1s])
    res = world.resolution
    return list(zip((ix0 * res).tolist(), ((ix1 + 1) * res).tolist(),
                    (iy0 * res).tolist(), ((iy1 + 1) * res).tolist(),
                    zip(ix0.tolist(), ix1.tolist(), iy0.tolist(), iy1.tolist())))


def world_set_digest(spec: dict, seeds) -> str:
    """sha256 over each world's grid, objects, ``random_free_pose`` start and
    wall runs, in seed order; floats enter through ``repr``, so bit for bit."""
    h = hashlib.sha256()
    for seed in seeds:
        world = generate_world(WorldGenSpec.from_dict(spec), seed)
        start = random_free_pose(world, random.Random(seed + 1000), AgentBody())
        h.update(repr((world.grid.shape, world.resolution)).encode())
        h.update(world.grid.tobytes())
        objects = [[o.name, o.category, o.center, o.radius, o.attributes, sorted(o.tags)]
                   for o in world.objects]
        h.update(json.dumps([objects, [start.x, start.y, start.heading],
                             world._wall_runs()]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("spec, seeds, digest", [
    (OBJECTNAV, range(50), "3def364a59863e7eb39939032fdca0e57c6a8f512a9316f5cb5feeedd4d2d17a"),
    (MULTIGOAL, range(30), "c97949dd8be2c51afd314197cd0befc216829873999867b4c87863727a36f830"),
], ids=["objectnav", "multigoal"])
def test_generated_worlds_are_frozen(spec, seeds, digest):
    assert world_set_digest(spec, seeds) == digest


@st.composite
def masks(draw):
    """Masks of 1 to 12 rows and columns, so single cells and one-cell-wide
    rows and columns, with a border left as drawn, all True or all False."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cells = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    mask = np.array(cells, dtype=bool).reshape(h, w)
    border = draw(st.sampled_from((None, True, False)))
    if border is not None:
        mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = border
    return mask


@settings(max_examples=300, deadline=None)
@given(mask=masks())
def test_row_runs_match_the_padded_diff(mask):
    for m in (mask, mask.T):
        got, want = _row_runs(m), ref_row_runs(m)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]


@settings(max_examples=300, deadline=None)
@given(mask=masks(), res=st.sampled_from((0.05, 0.1, 0.13, 0.25)))
def test_wall_runs_match_the_plain_version_entry_by_entry(mask, res):
    """Order included: the cast breaks ties between runs by their order."""
    grid = mask.astype(np.uint8) * OBSTACLE
    if grid.all():
        grid[0, 0] = FREE
    world = WorldMap(grid, res)
    assert world._wall_runs() == ref_wall_runs(world)


def test_a_generated_world_takes_over_its_probes_grid_indexes(monkeypatch):
    probes = []
    with_objects = WorldMap.with_objects

    def recording(self, objects):
        probes.append(self)
        return with_objects(self, objects)

    monkeypatch.setattr(WorldMap, "with_objects", recording)
    world = generate_world(WorldGenSpec.from_dict(OBJECTNAV), 0)
    probe = probes[-1]
    assert world.grid is probe.grid
    assert world._runs is probe._runs is not None
    assert world._framed is probe._framed is not None

    built = []
    monkeypatch.setattr(world_module, "_row_runs", lambda mask: built.append(mask) or
                        ref_row_runs(mask))
    body = AgentBody()
    pose = random_free_pose(world, random.Random(1000), body)
    sense(world, pose, body, 181)
    assert built == []
    # a world of the same grid built afresh pays for its runs at its first sense
    sense(WorldMap(world.grid, world.resolution, world.objects), pose, body, 181)
    assert len(built) == 2
