"""Procedural room-and-corridor world generation, deterministic per seed."""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (GenerationFailed, SchemaViolation, check, check_finite, check_integer,
                     check_strings, check_type)
from .geometry import AgentBody, Pose
from .world import FREE, OBSTACLE, SemanticObject, WorldMap, flat_runs

# attribute palette keyed by nothing in particular; category-independent
_PALETTE = (
    "white", "black", "red", "blue", "green", "gray", "brown",
    "wooden", "metal", "plastic", "leather", "striped", "tall", "small",
)

# the WorldGenSpec fields that are counts; the other scalars are lengths
_INTEGER_FIELDS = ("rooms", "objects_per_category", "max_attempts")

# the most grid cells a spec may ask for: 16 MiB of uint8 grid (a 409.6 m
# square at 0.1 m); a larger request is refused before anything is allocated
MAX_CELLS = 2 ** 24


@dataclass(frozen=True)
class WorldGenSpec:
    width_m: float = 16.0
    height_m: float = 12.0
    resolution: float = 0.1
    rooms: int = 3
    categories: Tuple[str, ...] = ("chair", "table")
    objects_per_category: int = 1
    category_counts: Optional[Tuple[int, ...]] = None  # per-category override
    hazards: Tuple[str, ...] = ()
    corridor_width_m: float = 1.4
    room_min_m: float = 3.0
    room_max_m: float = 6.0
    object_radius_m: Tuple[float, float] = (0.25, 0.35)
    agent_radius_m: float = 0.17
    goal_threshold_m: float = 0.3
    max_attempts: int = 30

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        object.__setattr__(self, "hazards", tuple(self.hazards))
        if self.category_counts is not None:
            object.__setattr__(self, "category_counts", tuple(self.category_counts))
            if len(self.category_counts) != len(self.categories):
                raise ValueError("category_counts must align with categories")
        if self.width_m <= 2 or self.height_m <= 2 or self.resolution <= 0:
            raise ValueError("world dimensions must be positive and non-trivial")
        if not all(r > 0 for r in self.object_radius_m):
            raise ValueError(f"object radius bounds must be positive, not {self.object_radius_m}")
        # rng.uniform draws radii and room sides from bounds in either order
        if self.object_radius_m[0] > self.object_radius_m[1]:
            raise ValueError(f"object radius bounds are not (low, high): {self.object_radius_m}")
        if not 0 < self.room_min_m <= self.room_max_m:
            raise ValueError(f"room sides must satisfy 0 < room_min_m <= room_max_m, not "
                             f"{self.room_min_m} and {self.room_max_m}")
        # a corridor is carved at least two cells wide, whatever its width
        if not self.corridor_width_m > 0:
            raise ValueError(f"corridor_width_m must be positive, not {self.corridor_width_m}")
        # a negative agent radius would free every cell, so that the
        # connectivity check passes vacuously
        for key in ("agent_radius_m", "goal_threshold_m"):
            if not getattr(self, key) >= 0:
                raise ValueError(f"{key} must not be negative, not {getattr(self, key)}")
        # _try_generate counts these lengths in cells
        for key in ("room_min_m", "room_max_m", "corridor_width_m"):
            if not math.isfinite(getattr(self, key) / self.resolution):
                raise ValueError(f"{key} of {getattr(self, key)} m is not a finite number "
                                 f"of {self.resolution} m cells")
        # refused before _try_generate allocates the grid and lists one
        # placement per wanted object
        cells = round(self.width_m / self.resolution) * round(self.height_m / self.resolution)
        if cells > MAX_CELLS:
            raise ValueError(f"a grid of {cells} cells exceeds the limit of {MAX_CELLS}")
        n_objects = sum(self.counts) + len(self.hazards)
        if max(n_objects, self.rooms) > cells:
            raise ValueError(f"{n_objects} objects or {self.rooms} rooms do not fit in a grid "
                             f"of {cells} cells")

    @property
    def counts(self) -> Tuple[int, ...]:
        """How many objects of each category to place."""
        return self.category_counts or (self.objects_per_category,) * len(self.categories)

    @classmethod
    def from_dict(cls, d: dict) -> "WorldGenSpec":
        """A spec from its JSON form (docs/formats.md).  An unknown key, or a
        value of the wrong type, raises SchemaViolation; a bare string is
        never split into a list of characters."""
        check_type(d, dict, "worldgen")
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        unknown = set(d) - known - {"seed"}
        if unknown:
            raise SchemaViolation(f"unknown worldgen keys: {sorted(unknown)}")
        kwargs = {}
        for key, value in d.items():
            what = f"worldgen {key}"
            if key in _INTEGER_FIELDS:
                kwargs[key] = check_integer(value, what)
            elif key in ("categories", "hazards"):
                kwargs[key] = check_strings(value, what)
            elif key == "category_counts":
                kwargs[key] = None if value is None else tuple(
                    check_integer(v, f"{what} entry") for v in check_type(value, list, what))
            elif key == "object_radius_m":
                check(value, isinstance(value, list) and len(value) == 2,
                      f"{what} must be a list of two numbers")
                kwargs[key] = tuple(check_finite(v, what) for v in value)
            elif key != "seed":
                kwargs[key] = check_finite(value, what)
        try:
            return cls(**kwargs)
        except (ValueError, OverflowError) as e:  # OverflowError: a grid too large to count
            raise SchemaViolation(f"bad worldgen spec: {e}") from e


def _carve_rect(grid: np.ndarray, x0: int, y0: int, x1: int, y1: int) -> None:
    h, w = grid.shape
    grid[max(1, y0): min(h - 1, y1), max(1, x0): min(w - 1, x1)] = FREE


def _main_component(free: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The largest 4-connected component of ``free``, and the sizes of all.

    Run-based two-scan labelling (He, Chao & Suzuki, IEEE TIP 2008): the
    horizontal runs of free cells (``flat_runs``) are the nodes of a
    union-find, joined where runs in adjacent rows share a column.  Components
    are numbered in raster order of their first cell, as
    ``scipy.ndimage.label`` numbers them, so the sizes come in the same order
    and a tie for the largest goes the same way.
    """
    h, w = free.shape
    starts, stops = flat_runs(free)
    n = len(starts)
    if not n:
        return np.zeros_like(free, dtype=bool), np.zeros(0, dtype=np.int64)
    # a run in row y touches the runs of row y - 1 that end after it starts
    # and start before it ends: a contiguous range of run indices
    stride = w + 1
    first = np.searchsorted(stops, starts - stride, side="right").tolist()
    last = np.searchsorted(starts, stops - stride, side="left").tolist()
    # every union links two roots, the later to the earlier, so a root is
    # its component's first run and a parent always precedes its child
    parent = list(range(n))
    for run in range(n):
        a = run  # the root of this run's component; no earlier union reached it
        for b in range(first[run], last[run]):
            while parent[b] != b:  # b's root, halving the path
                parent[b] = b = parent[parent[b]]
            if b < a:
                parent[a] = a = b
            elif a < b:
                parent[b] = a
    # in run order each parent already holds its root
    for run in range(n):
        parent[run] = parent[parent[run]]
    roots = np.array(parent)
    root_labels = np.cumsum(roots == np.arange(n)) - 1  # roots numbered in run order
    labels = root_labels[roots]
    sizes = np.bincount(labels, weights=stops - starts).astype(np.int64)
    # each kept run's start and stop toggle the mask along the layout
    marks = np.zeros(h * stride, dtype=bool)
    keep = labels == int(np.argmax(sizes))
    marks[starts[keep]] = True
    marks[stops[keep]] = True
    main = np.logical_xor.accumulate(marks).reshape(h, stride)[:, :w]
    return main, sizes


def _try_generate(spec: WorldGenSpec, rng: random.Random) -> Optional[WorldMap]:
    res = spec.resolution
    w = int(round(spec.width_m / res))
    h = int(round(spec.height_m / res))
    grid = np.full((h, w), OBSTACLE, dtype=np.uint8)

    if spec.rooms < 1 or not spec.categories:
        raise GenerationFailed("need at least one room and one object category")

    # carve rooms, then L-shaped corridors between consecutive room centers
    centers: List[Tuple[int, int]] = []
    for _ in range(spec.rooms):
        rw = int(rng.uniform(spec.room_min_m, spec.room_max_m) / res)
        rh = int(rng.uniform(spec.room_min_m, spec.room_max_m) / res)
        rw = min(rw, w - 4)
        rh = min(rh, h - 4)
        x0 = rng.randint(2, max(2, w - rw - 2))
        y0 = rng.randint(2, max(2, h - rh - 2))
        _carve_rect(grid, x0, y0, x0 + rw, y0 + rh)
        centers.append((x0 + rw // 2, y0 + rh // 2))
    half = max(1, int(spec.corridor_width_m / res / 2))
    for (ax, ay), (bx, by) in zip(centers, centers[1:]):
        _carve_rect(grid, min(ax, bx) - half, ay - half, max(ax, bx) + half, ay + half)
        _carve_rect(grid, bx - half, min(ay, by) - half, bx + half, max(ay, by) + half)

    # place objects on free floor with enough standoff from walls; the
    # grid is done, and frozen, so the worlds below share it uncopied
    grid.setflags(write=False)
    objects: List[SemanticObject] = []
    probe = WorldMap(grid, res)
    wanted = [(cat, ()) for cat, n in zip(spec.categories, spec.counts) for _ in range(n)]
    wanted += [(cat, ("hazard",)) for cat in spec.hazards]
    counters: dict = {}
    free_cells = np.flatnonzero(grid == FREE)
    if not len(free_cells):
        return None
    for category, tags in wanted:
        radius = rng.uniform(*spec.object_radius_m)
        placed = False
        for _ in range(200):
            # plain ints, so the centre is a float and not a numpy scalar
            iy, ix = divmod(int(free_cells[rng.randrange(len(free_cells))]), w)
            x = (ix + 0.5) * res
            y = (iy + 0.5) * res
            standoff = radius + 2.0 * spec.agent_radius_m + spec.goal_threshold_m
            if probe.clearance(x, y) < standoff:
                continue
            if any(math.hypot(x - o.center[0], y - o.center[1]) < radius + o.radius + 4 * spec.agent_radius_m
                   for o in objects):
                continue
            counters[category] = counters.get(category, 0) + 1
            attrs = tuple(rng.sample(_PALETTE, 2))
            objects.append(SemanticObject(
                name=f"{category}_{counters[category]}",
                category=category,
                center=(x, y),
                radius=radius,
                attributes=attrs,
                tags=frozenset(tags),
            ))
            placed = True
            break
        if not placed:
            return None

    # the probe's grid indexes serve the world too
    world = probe.with_objects(objects)
    # reject layouts whose walkable space (inflated by the agent) is split, or
    # where some object's goal band is not reachable from the main component
    free = world.free_with_clearance(spec.agent_radius_m)
    main, sizes = _main_component(free)
    if np.count_nonzero(main) < 10:
        return None
    if len(sizes) > 1 and sorted(sizes)[-2] > 25:  # a second sizable pocket means split space
        return None
    # a cell of the goal band lies within the band's reach of the centre, so
    # among the world's ``disc_cells`` for that reach
    for o in objects:
        box, dist = world.disc_cells(*o.center, o.radius + spec.goal_threshold_m)
        if not np.any((dist - o.radius <= spec.goal_threshold_m) & main[box]):
            return None
    return world


def generate_world(spec: WorldGenSpec, seed: int) -> WorldMap:
    """Generate a connected world; identical seeds give identical worlds."""
    rng = random.Random(seed)
    for _ in range(spec.max_attempts):
        world = _try_generate(spec, rng)
        if world is not None:
            return world
    raise GenerationFailed(
        f"could not satisfy worldgen spec after {spec.max_attempts} attempts (seed {seed})")


def random_free_pose(world: WorldMap, rng: random.Random,
                     body: AgentBody = AgentBody(), margin: float = 0.05) -> Pose:
    """A pose in the largest walkable component with body clearance plus margin."""
    free = world.free_with_clearance(body.radius + margin)
    main, _sizes = _main_component(free)
    cells = np.flatnonzero(main)  # in raster order
    if not len(cells):
        raise GenerationFailed("world has no free pose with the requested clearance")
    iy, ix = divmod(int(cells[rng.randrange(len(cells))]), world.width_cells)
    x, y = world.cell_center(ix, iy)
    return Pose(x, y, rng.uniform(-math.pi, math.pi))
