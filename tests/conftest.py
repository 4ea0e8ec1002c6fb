"""Shared fixtures and helpers: small deterministic worlds, goals and graph
equality, ray fans written as rows, and JSON fuzzing."""
from __future__ import annotations

import copy
import math
import random
from typing import List, NamedTuple, Optional, Tuple

import numpy as np
import pytest
from hypothesis import strategies as st

from dynav.backends.protocol import RequestContext
from dynav.config import RunConfig
from dynav.geometry import AgentBody, Pose
from dynav.goals import INSTANCE, GoalSpec
from dynav.memory import MemoryGraph
from dynav.sensing import Observation
from dynav.world import OBSTACLE, SemanticObject, WorldMap


def empty_world(width_m: float, height_m: float, resolution: float = 0.1,
                objects=(), walled: bool = True) -> WorldMap:
    """Open floor, optionally with a one-cell wall ring."""
    grid = np.zeros((int(round(height_m / resolution)), int(round(width_m / resolution))),
                    dtype=np.uint8)
    if walled:
        grid[0, :] = grid[-1, :] = OBSTACLE
        grid[:, 0] = grid[:, -1] = OBSTACLE
    return WorldMap(grid, resolution, tuple(objects))


@pytest.fixture
def body():
    return AgentBody()


@pytest.fixture
def box_world():
    """10 x 8 m empty walled room."""
    return empty_world(10.0, 8.0)


@pytest.fixture
def plant_world():
    """Walled room with a single 0.3 m plant 3 m east of the room center."""
    obj = SemanticObject(name="plant_1", category="plant", center=(8.0, 4.0),
                         radius=0.3, attributes=("green",))
    return empty_world(10.0, 8.0, objects=[obj])


@pytest.fixture
def cluttered_world():
    """Room with a wall stub and two labeled objects for sensing tests."""
    world = empty_world(12.0, 10.0)
    grid = world.grid.copy()
    grid[40:60, 60] = OBSTACLE  # vertical stub at x = 6.0..6.1, y = 4..6
    objects = [
        SemanticObject(name="chair_1", category="chair", center=(9.0, 5.0),
                       radius=0.3, attributes=("red", "wooden")),
        SemanticObject(name="table_1", category="table", center=(9.0, 5.6),
                       radius=0.25, attributes=("white",)),
    ]
    return WorldMap(grid, world.resolution, objects)


@pytest.fixture
def run_cfg():
    return RunConfig()


def random_grid_world(rng: random.Random, n: int = 64, fill: float = 0.25,
                      resolution: float = 0.1) -> WorldMap:
    """Random blocky occupancy grid with a walled border, no objects."""
    grid = np.zeros((n, n), dtype=np.uint8)
    grid[0, :] = grid[-1, :] = OBSTACLE
    grid[:, 0] = grid[:, -1] = OBSTACLE
    n_blocks = int(fill * n * n / 9)
    for _ in range(n_blocks):
        iy = rng.randrange(1, n - 3)
        ix = rng.randrange(1, n - 3)
        grid[iy:iy + rng.randint(1, 3), ix:ix + rng.randint(1, 3)] = OBSTACLE
    return WorldMap(grid, resolution)


def make_pose(x: float, y: float, heading_deg: float = 0.0) -> Pose:
    return Pose(x, y, math.radians(heading_deg))


def instance_goal(signature) -> GoalSpec:
    return GoalSpec(kind=INSTANCE, attributes=tuple(signature))


def same_content(a: MemoryGraph, b: MemoryGraph) -> bool:
    """Equal nodes and edges; the version is not compared (merge laws)."""
    return a.nodes == b.nodes and set(a.edges) == set(b.edges)


# -- ray fans as rows ------------------------------------------------------------

class Row(NamedTuple):
    """One ray of a fan as a test writes or reads it: the bearing (radians in
    an ``Observation``, degrees in a ``RequestContext``), the depth in meters
    and what it hit."""
    theta: float
    depth: float
    label: Optional[str]
    attributes: Tuple[str, ...] = ()
    tags: Tuple[str, ...] = ()


def with_rays(record, rows, **fields):
    """An ``Observation`` or a ``RequestContext`` (``record``) whose fan is
    ``rows``: the bearing and depth columns, and the hit column indexing the
    table of distinct ``(label, attributes, tags)`` in order of first
    appearance, as ``sense`` and the wire build them."""
    rows = [Row(*r) for r in rows]
    table: dict = {}
    hit = tuple(table.setdefault(r[2:], len(table)) for r in rows)
    thetas, depths = tuple(r.theta for r in rows), tuple(r.depth for r in rows)
    if record is Observation:
        return Observation(thetas=thetas, depths=depths, hit=hit, hits=tuple(table), **fields)
    assert record is RequestContext
    return RequestContext(theta_deg=thetas, distance_m=depths, hit=hit, hits=tuple(table),
                          **fields)


def rays_of(x) -> List[Row]:
    """The rows of an observation's or a request context's fan."""
    thetas, depths = ((x.thetas, x.depths) if isinstance(x, Observation)
                      else (x.theta_deg, x.distance_m))
    return [Row(t, d, *x.hits[h]) for t, d, h in zip(thetas, depths, x.hit)]


# -- fuzzing: arbitrary JSON, and valid payloads with one field replaced -------

# json reads NaN, Infinity and integers of any size; Hypothesis draws them rarely
edge_numbers = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, 10 ** 400, -(10 ** 400)])
scalars = (st.none() | st.booleans() | st.integers() | st.floats() | edge_numbers
           | st.text(max_size=6))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10)
# a value for one field of a valid message; MISSING removes the field
MISSING = object()
replacements = json_values | st.lists(scalars, max_size=3) | st.just(MISSING)


def replaced(valid: dict, path: tuple, value) -> dict:
    d = copy.deepcopy(valid)
    node = d
    for key in path[:-1]:
        node = node[key]
    if value is MISSING:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return d


def dotted(path) -> str:
    return ".".join(map(str, path))


# worldgen values that WorldGenSpec.from_dict, and so the spec loader, refuses
BAD_WORLDGEN = {
    "categories-string": {"categories": "chair"},
    "hazards-string": {"hazards": "sign"},
    "category-counts-string": {"categories": ["chair"], "category_counts": "2"},
    "category-counts-floats": {"categories": ["chair"], "category_counts": [2.0]},
    "category-counts-misaligned": {"categories": ["chair"], "category_counts": [1, 2]},
    "categories-numbers": {"categories": [1, 2]},
    "radius-one-number": {"object_radius_m": [0.3]},
    "radius-string": {"object_radius_m": "0.3"},
    "radius-nan": {"object_radius_m": [0.2, math.nan]},
    "width-nan": {"width_m": math.nan},
    "height-infinite": {"height_m": math.inf},
    "width-huge-int": {"width_m": 10 ** 400},
    "grid-too-large": {"width_m": 1e7, "height_m": 1e7, "resolution": 0.1},  # 10**16 cells
    "resolution-string": {"resolution": "0.1"},
    "rooms-float": {"rooms": 2.5},
    "rooms-bool": {"rooms": True},
    "attempts-null": {"max_attempts": None},
    "a-list": ["rooms", 2],
}
