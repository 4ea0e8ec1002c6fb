"""Shared fixtures and helpers: small deterministic worlds, goals and graph
equality, ray fans and boundaries written as rows, packed wire columns, JSON
fuzzing, and child interpreters."""
from __future__ import annotations

import base64
import copy
import math
import random
import re
import struct
import subprocess
import sys
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

import numpy as np
import pytest
from hypothesis import strategies as st

from dynav.backends.protocol import RequestContext
from dynav.config import RunConfig
from dynav.geometry import AgentBody, Pose, angular_distance
from dynav.goals import INSTANCE, GoalSpec
from dynav.memory import MemoryGraph
from dynav.proposer import Boundary
from dynav.sensing import DEFAULT_FOV, Fan, Observation
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
    appearance, as ``sense`` and the wire build them.  An observation's fan
    spans ``fov``, which ``fields`` must give."""
    rows = [Row(*r) for r in rows]
    table: dict = {}
    hit = tuple(table.setdefault(r[2:], len(table)) for r in rows)
    thetas, depths = tuple(r.theta for r in rows), tuple(r.depth for r in rows)
    if record is Observation:
        return Observation(fan=Fan(thetas, fields.pop("fov")), depths=depths, hit=hit,
                           hits=tuple(table), **fields)
    assert record is RequestContext
    return RequestContext(theta_deg=thetas, distance_m=depths, hit=hit, hits=tuple(table),
                          **fields)


def rays_of(x) -> List[Row]:
    """The rows of an observation's or a request context's fan."""
    thetas, depths = ((x.fan.thetas, x.depths) if isinstance(x, Observation)
                      else (x.theta_deg, x.distance_m))
    return [Row(t, d, *x.hits[h]) for t, d, h in zip(thetas, depths, x.hit)]


def packed(values) -> str:
    """A ray column as the wire carries it, built with base64 and struct
    alone: padded base64 of its float64 values, little-endian."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def unpacked(text: str) -> List[float]:
    """The values of a packed ray column, read with base64 and struct alone."""
    raw = base64.b64decode(text, validate=True)
    return list(struct.unpack(f"<{len(raw) // 8}d", raw))


class Point(NamedTuple):
    """One point of a boundary as a test writes or reads it: the extent in
    meters and the bearing in radians."""
    r: float
    theta: float


def boundary_of(points, fov: float = DEFAULT_FOV) -> Boundary:
    """The ``Boundary`` of a fan over ``fov`` whose ray i has bearing
    ``points[i][1]`` and extent ``points[i][0]``, every ray on the boundary,
    in the order given."""
    points = [Point(*p) for p in points]
    index, depths = np.arange(len(points)), np.array([p.r for p in points], dtype=float)
    index.flags.writeable = depths.flags.writeable = False
    return Boundary(Fan(tuple(p.theta for p in points), fov), index, depths)


def points_of(b: Boundary) -> List[Point]:
    """The points of a boundary, in its order."""
    return [Point(r, b.fan.thetas[k]) for r, k in zip(b.depths.tolist(), b.index.tolist())]


def reference_sample(points, alpha, theta_delta, r_min):
    """Independent reimplementation of the greedy far-first rule: the kept
    ``(r, theta)`` pairs, by bearing."""
    pool = [(p.r * alpha, p.theta) for p in points if p.r * alpha >= r_min]
    kept = []
    while pool:
        best = min(pool, key=lambda rt: (-rt[0], abs(rt[1]), rt[1]))
        pool.remove(best)
        if min((angular_distance(best[1], k[1]) for k in kept), default=math.inf) >= theta_delta:
            kept.append(best)
    return sorted(kept, key=lambda rt: rt[1])


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


def words_in_a_row(category: str, name: str) -> bool:
    """The category test of the goal-fit rule, written out: the words of
    ``category`` are words of ``name``, one after another, ignoring case.
    Words are the runs of letters and digits."""
    wanted = re.findall(r"[^\W_]+", category.lower())
    words = re.findall(r"[^\W_]+", name.lower())
    n = len(wanted)
    return any(words[i:i + n] == wanted for i in range(len(words) - n + 1))


def has_words(text: str) -> bool:
    """Whether ``text`` holds a word, a letter or digit: the category of a
    name or description goal must."""
    return re.search(r"[^\W_]", text) is not None


def run_python(code: str, cwd: Optional[Path] = None, timeout: Optional[float] = None) -> str:
    """What ``python -c code`` prints, run on this checkout's ``src`` and
    nothing else of the environment; ``-B`` keeps the child from writing
    bytecode into the tree under test.  A child still running after
    ``timeout`` seconds is killed and raises ``subprocess.TimeoutExpired``."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-B", "-c", code], cwd=cwd, env={"PYTHONPATH": str(src), "PATH": ""},
        capture_output=True, text=True, check=True, timeout=timeout).stdout.strip()


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
    "radius-negative": {"object_radius_m": [-0.3, -0.2]},
    "radius-zero": {"object_radius_m": [0, 0]},
    "radius-zero-lower": {"object_radius_m": [0, 0.3]},
    "radius-reversed": {"object_radius_m": [0.5, 0.1]},
    "agent-radius-negative": {"agent_radius_m": -1},
    "goal-threshold-negative": {"goal_threshold_m": -0.1},
    "corridor-negative": {"corridor_width_m": -1.4},
    "corridor-zero": {"corridor_width_m": 0},
    "room-min-negative": {"room_min_m": -5},
    "room-min-zero": {"room_min_m": 0, "room_max_m": 3},
    "rooms-reversed": {"room_min_m": 7, "room_max_m": 3},
    "corridor-overflow": {"corridor_width_m": 1e308},  # 1e309 cells: int(inf)
    "rooms-overflow": {"room_min_m": 1e308, "room_max_m": 1e308},
    "room-max-overflow": {"room_max_m": 1e308},
    "width-nan": {"width_m": math.nan},
    "height-infinite": {"height_m": math.inf},
    "width-huge-int": {"width_m": 10 ** 400},
    "grid-too-large": {"width_m": 1e7, "height_m": 1e7, "resolution": 0.1},  # 10**16 cells
    "resolution-string": {"resolution": "0.1"},
    "rooms-float": {"rooms": 2.5},
    "rooms-bool": {"rooms": True},
    "rooms-zero": {"rooms": 0},
    "categories-empty": {"categories": []},
    "objects-zero": {"objects_per_category": 0},
    "objects-negative": {"objects_per_category": -2},
    "attempts-null": {"max_attempts": None},
    "a-list": ["rooms", 2],
}
