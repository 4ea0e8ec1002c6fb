"""Occupancy-grid world with disc-shaped semantic objects.

The grid is a row-major uint8 array indexed ``grid[iy, ix]`` with 0 = free and
1 = obstacle.  Cell (ix, iy) covers the square
``[ix*res, (ix+1)*res) x [iy*res, (iy+1)*res)`` in world meters.  Semantic
objects are discs layered on top of the grid; they block both motion and rays.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (SchemaViolation, check, check_finite, check_integer, check_strings,
                     check_type, read_json)

FREE = 0
OBSTACLE = 1
OUTSIDE = 2  # the frame around the grid in ``WorldMap.framed_cells``

WORLD_FORMAT = "dynav-world/1"

# the exact bits of a point, so -0.0 and 0.0 are different points
_point_bits = struct.Struct("<2d").pack


@dataclass(frozen=True)
class SemanticObject:
    """A named disc with a category, free-form attributes, and tags.

    Tags mark non-category semantics (for example ``hazard``); attributes
    describe appearance and are what instance-style goals match on.
    """

    name: str
    category: str
    center: Tuple[float, float]
    radius: float
    attributes: Tuple[str, ...] = ()
    tags: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not self.name:
            raise ValueError("object name must be non-empty")
        if self.name == "wall":
            # a ray that hits this object would be reported like a wall cell
            raise ValueError('object name "wall" is reserved for walls')
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"object radius must be positive and finite, not {self.radius}")
        if not (len(self.center) == 2 and all(map(math.isfinite, self.center))):
            raise ValueError(f"object center must be two finite numbers, not {self.center}")
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if "" in self.attributes:
            raise ValueError(f"object {self.name!r} attributes must be non-empty")
        object.__setattr__(self, "tags", frozenset(self.tags))

    def boundary_distance(self, x: float, y: float) -> float:
        """Signed distance from a point to the disc boundary (negative inside)."""
        return math.hypot(x - self.center[0], y - self.center[1]) - self.radius

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "category": self.category,
            "center": [self.center[0], self.center[1]],
            "radius": self.radius,
            "attributes": sorted(self.attributes),
            "tags": sorted(self.tags),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SemanticObject":
        check_type(d, dict, "an object record")
        try:
            center = d["center"]
            check(center, isinstance(center, list) and len(center) == 2,
                  "object center must be a list of two numbers")
            return cls(
                name=check_type(d["name"], str, "object name"),
                category=check_type(d["category"], str, "object category"),
                center=(check_finite(center[0], "object center"),
                        check_finite(center[1], "object center")),
                radius=check_finite(d["radius"], "object radius"),
                attributes=check_strings(d.get("attributes", []), "object attributes"),
                tags=frozenset(check_strings(d.get("tags", []), "object tags")),
            )
        except (KeyError, ValueError) as e:
            raise SchemaViolation(f"bad object record: {e}") from e


class WorldMap:
    """Immutable world: occupancy grid, resolution, and semantic objects."""

    def __init__(self, grid: np.ndarray, resolution: float, objects: Sequence[SemanticObject] = ()):
        if not 0.0 < resolution < math.inf:
            raise ValueError(f"resolution must be positive and finite, not {resolution}")
        grid = np.ascontiguousarray(grid, dtype=np.uint8)
        if grid.ndim != 2 or grid.size == 0:
            raise ValueError("grid must be a non-empty 2D array")
        if not np.any(grid == FREE):
            raise ValueError("world must contain at least one free cell")
        names = [o.name for o in objects]
        if len(names) != len(set(names)):
            raise ValueError("object names must be unique")
        self.resolution = float(resolution)
        self.grid = grid
        self.grid.setflags(write=False)
        self.objects: Tuple[SemanticObject, ...] = tuple(objects)
        for o in self.objects:
            x, y = o.center
            if not (0.0 <= x <= self.width_m and 0.0 <= y <= self.height_m):
                raise ValueError(f"object {o.name} center lies outside the world")
        # per-world indexes, built on first use
        self._framed: Optional[bytes] = None
        self._edge_cells: Optional[tuple] = None
        self._occupancy = None
        self._free_cache: dict = {}
        # (point bits, answer) of the last full clearance query, as one
        # tuple, so threads sharing the world read a consistent entry
        self._last_query: Optional[tuple] = None
        if self.objects:
            self._obj_centers = np.array([o.center for o in self.objects], dtype=float)
            self._obj_radii = np.array([o.radius for o in self.objects], dtype=float)
        else:
            self._obj_centers = np.zeros((0, 2))
            self._obj_radii = np.zeros(0)

    # -- geometry helpers ---------------------------------------------------

    @property
    def height_cells(self) -> int:
        return self.grid.shape[0]

    @property
    def width_cells(self) -> int:
        return self.grid.shape[1]

    @property
    def width_m(self) -> float:
        return self.width_cells * self.resolution

    @property
    def height_m(self) -> float:
        return self.height_cells * self.resolution

    def in_bounds(self, x: float, y: float) -> bool:
        return 0.0 <= x < self.width_m and 0.0 <= y < self.height_m

    def cell_of(self, x: float, y: float) -> Tuple[int, int]:
        return int(x / self.resolution), int(y / self.resolution)

    def cell_center(self, ix: int, iy: int) -> Tuple[float, float]:
        return (ix + 0.5) * self.resolution, (iy + 0.5) * self.resolution

    def framed_cells(self) -> bytes:
        """The grid as row-major bytes inside a one-cell frame of OUTSIDE.

        Cell (ix, iy) sits at ``(iy + 1) * (width_cells + 2) + ix + 1``.  The
        frame lets a walk that moves one cell at a time test the grid bounds
        and the cell with a single lookup.
        """
        if self._framed is None:
            self._framed = np.pad(self.grid, 1, constant_values=OUTSIDE).tobytes()
        return self._framed

    def _edge_index(self) -> tuple:
        """Obstacle cells with a free 8-neighbour: their indices, the edges of
        their squares as arrays, and the four edges of each square as rows.

        Seen from a point outside every obstacle cell, any other obstacle cell
        lies at least one resolution farther than some edge cell, so the
        nearest cell is always an edge cell.
        """
        if self._edge_cells is None:
            free = np.pad(self.grid == FREE, 1)
            near_free = np.zeros_like(self.grid, dtype=bool)
            h, w = self.grid.shape
            for oy in range(3):
                for ox in range(3):
                    near_free |= free[oy: oy + h, ox: ox + w]
            iys, ixs = np.nonzero((self.grid == OBSTACLE) & near_free)
            res = self.resolution
            x0, x1, y0, y1 = ixs * res, (ixs + 1) * res, iys * res, (iys + 1) * res
            self._edge_cells = (list(zip(ixs.tolist(), iys.tolist())), x0, x1, y0, y1,
                                np.stack([x0, x1, y0, y1], axis=1))
        return self._edge_cells

    def _edge_d2(self, x: float, y: float) -> np.ndarray:
        """Squared distances from a point to the square of every edge cell."""
        _, x0, x1, y0, y1, _ = self._edge_index()
        dx = np.maximum(np.maximum(x0 - x, x - x1), 0.0)
        dy = np.maximum(np.maximum(y0 - y, y - y1), 0.0)
        return dx * dx + dy * dy

    def _cell_rect_distance(self, x: float, y: float, ix: int, iy: int) -> float:
        res = self.resolution
        dx = max(ix * res - x, 0.0, x - (ix + 1) * res)
        dy = max(iy * res - y, 0.0, y - (iy + 1) * res)
        return math.hypot(dx, dy)

    def _nearest_cell(self, x: float, y: float, bound: float, scan: Optional[list] = None):
        """Distance to and nearest point on the closest obstacle cell, when
        that distance is below ``bound``; None otherwise.  The point must lie
        strictly inside the world.  Candidates come in row-major order and the
        first strictly nearer one is kept, so an exact tie between cells goes
        to the lowest ``iy``, then the lowest ``ix``.  The squared distances to
        the edge cells, when measured, are appended to ``scan``.
        """
        res = self.resolution
        w, h = self.width_cells, self.height_cells
        ix = min(int(x / res), w - 1)
        iy = min(int(y / res), h - 1)
        if self.framed_cells()[(iy + 1) * (w + 2) + ix + 1] == OBSTACLE:
            # within rounding of this cell: no cell outside its 3x3 block
            # comes within a resolution of the point
            cands = [(jx, jy) for jy in range(max(iy - 1, 0), min(iy + 2, h))
                     for jx in range(max(ix - 1, 0), min(ix + 2, w))
                     if self.grid[jy, jx] == OBSTACLE]
        else:
            cells = self._edge_index()[0]
            if not cells:
                return None
            d2 = self._edge_d2(x, y)
            if scan is not None:
                scan.append(d2)
            # squares order the cells as hypot does, up to rounding: keep a
            # relative margin far above it and decide with hypot below
            d2_min = float(d2.min())
            if d2_min > bound * bound * (1.0 + 1e-9):
                return None
            cands = [cells[k] for k in np.flatnonzero(d2 <= d2_min * (1.0 + 1e-9)).tolist()]
        best, nearest = bound, None
        for jx, jy in cands:
            d = self._cell_rect_distance(x, y, jx, jy)
            if d < best:
                best, nearest = d, (jx, jy)
        if nearest is None:
            return None
        return best, self._clamp_to_cell(x, y, *nearest)

    def _clamp_to_cell(self, x: float, y: float, ix: int, iy: int) -> Tuple[float, float]:
        res = self.resolution
        return (min(max(x, ix * res), (ix + 1) * res), min(max(y, iy * res), (iy + 1) * res))

    def clearance(self, x: float, y: float) -> float:
        """Exact distance from a point to the nearest blocking surface.

        Obstacle cells are axis-aligned squares, objects are discs, and the
        map border counts as a wall (the world ends there).
        """
        return self.clearance_with_nearest(x, y)[0]

    def clearance_with_nearest(self, x: float, y: float, *, scan: Optional[list] = None
                               ) -> Tuple[float, Tuple[float, float]]:
        """Clearance plus the closest point on the nearest blocking surface.

        ``scan``, for ``local_clearance``, receives the squared distances to
        the edge cells if the search measures them.  A repeat of the last
        query at the same point, given as plain floats, is answered from
        memory and measures nothing.
        """
        key = None
        if type(x) is float and type(y) is float:
            key = _point_bits(x, y)
            last = self._last_query
            if last is not None and last[0] == key:
                return last[1]
        best = min(x, y, self.width_m - x, self.height_m - y)
        # border: closest point is the orthogonal projection onto that wall
        if best == x:
            nearest = (0.0, y)
        elif best == y:
            nearest = (x, 0.0)
        elif best == self.width_m - x:
            nearest = (self.width_m, y)
        else:
            nearest = (x, self.height_m)

        # a cell must come strictly closer than the border, so it can only
        # win for a point strictly inside the world
        if best > 0.0:
            cell = self._nearest_cell(x, y, best, scan)
            if cell is not None:
                best, nearest = cell

        # an object comes closer than best only if its centre lies within
        # best + radius: a screen in plain floats, with a margin over rounding
        if any((x - o.center[0]) ** 2 + (y - o.center[1]) ** 2 < (best + o.radius + 1e-9) ** 2
               for o in self.objects):
            dd = np.hypot(self._obj_centers[:, 0] - x, self._obj_centers[:, 1] - y) - self._obj_radii
            k = int(np.argmin(dd))
            if dd[k] < best:
                best = float(dd[k])
                # plain floats: a numpy scalar here would carry into the
                # nudged pose and slow every later step's arithmetic
                cx, cy = self._obj_centers[k].tolist()
                r = float(self._obj_radii[k])
                norm = math.hypot(x - cx, y - cy)
                if norm > 1e-12:
                    nearest = (cx + (x - cx) / norm * r, cy + (y - cy) / norm * r)
                else:
                    nearest = (cx + r, cy)
        result = best, nearest
        if key is not None:
            self._last_query = (key, result)
        return result

    def local_clearance(self, x: float, y: float,
                        reach: float) -> Tuple[float, Callable[[float, float], float]]:
        """Clearance at p = (x, y), and a function giving ``clearance(q)``,
        bit for bit, for any q within ``reach`` of p.

        Clearance is 1-Lipschitz, so c(q) <= c(p) + reach, and whatever sets
        c(q) lies within c(p) + 2*reach of p.  The full query at p keeps its
        squared distances to the edge cells, and the cells and objects that
        come that close are kept, with a margin far above rounding (it also
        covers a q a rounding error beyond ``reach``).  A query scans only
        those in plain Python, with the float expressions of the full query
        and the same ``np.hypot`` for objects; a q inside an obstacle cell
        takes the full query.  The kept cells give the same least distance,
        not always the same tied cell, so the function gives the value alone.
        """
        scan: list = []
        c = self.clearance_with_nearest(x, y, scan=scan)[0]
        within = c + 2.0 * reach + 1e-6
        cells, *_, rows = self._edge_index()
        rects: list = []
        if within > 0.0 and cells:
            d2 = scan[0] if scan else self._edge_d2(x, y)
            rects = rows[np.flatnonzero(d2 <= within * within)].tolist()
        objs = [(*o.center, o.radius) for o in self.objects
                if o.boundary_distance(x, y) <= within]
        res, w, h = self.resolution, self.width_cells, self.height_cells
        width_m, height_m = self.width_m, self.height_m
        framed = self.framed_cells()
        hypot = np.hypot

        def clearance_near(qx: float, qy: float) -> float:
            best = min(qx, qy, width_m - qx, height_m - qy)
            if best > 0.0:
                ix = min(int(qx / res), w - 1)
                iy = min(int(qy / res), h - 1)
                if framed[(iy + 1) * (w + 2) + ix + 1] == OBSTACLE:
                    return self.clearance(qx, qy)
                for ax, bx, ay, by in rects:
                    d = math.hypot(max(ax - qx, 0.0, qx - bx), max(ay - qy, 0.0, qy - by))
                    if d < best:
                        best = d
            for ox, oy, r in objs:
                # the full query's screen, then its hypot on this one object
                if (qx - ox) ** 2 + (qy - oy) ** 2 < (best + r + 1e-9) ** 2:
                    d = float(hypot(ox - qx, oy - qy)) - r
                    if d < best:
                        best = d
            return best

        return c, clearance_near

    def occupancy_with_objects(self) -> np.ndarray:
        """Boolean grid: cell blocked by an obstacle cell or an object disc.

        A cell counts as object-blocked when its center lies inside the disc.
        Each disc is tested only on the cells of its bounding box plus one.
        """
        if self._occupancy is None:
            occ = self.grid == OBSTACLE
            h, w = occ.shape
            res = self.resolution
            for (ox, oy), r in zip(self._obj_centers.tolist(), self._obj_radii.tolist()):
                x0, x1 = max(int((ox - r) / res) - 1, 0), min(int((ox + r) / res) + 2, w)
                y0, y1 = max(int((oy - r) / res) - 1, 0), min(int((oy + r) / res) + 2, h)
                cx = (np.arange(x0, x1) + 0.5) * res
                cy = (np.arange(y0, y1) + 0.5) * res
                occ[y0: y1, x0: x1] |= np.hypot(cx - ox, cy[:, None] - oy) <= r
            self._occupancy = occ
            self._occupancy.setflags(write=False)
        return self._occupancy

    def free_with_clearance(self, radius: float) -> np.ndarray:
        """Cells whose center keeps the given radius clear of any occupancy.

        The mask ``distance_transform_edt(~occ, sampling=res) > radius`` of
        ``scipy.ndimage``, without scipy: a cell is blocked when an occupied
        cell lies at an offset (dx, dy) with ``sqrt((dy*res)**2 + (dx*res)**2)
        <= radius``, in the transform's float operations.  For each row offset
        the blocking column offsets form an interval [-m, m], so the mask takes
        one sliding-window count per row offset.  It differs from the transform
        only where that has no answer or picks one arbitrarily: with no
        occupied cell every cell is free, and of two exactly tied offsets whose
        floats differ in the last bit, such as (9, 2) and (6, 7), the nearer
        float decides.
        """
        if radius not in self._free_cache:
            occ = self.occupancy_with_objects()
            h, w = occ.shape
            res = self.resolution

            def blocks(dy: int, dx: int) -> bool:
                a, b = dy * res, dx * res
                return math.sqrt(a * a + b * b) <= radius

            counts = np.zeros((h, w + 1), dtype=np.int32)  # occupied cells left of each column
            np.cumsum(occ, axis=1, out=counts[:, 1:])
            cols = np.arange(w)
            blocked = np.zeros((h, w), dtype=bool)
            m = int(min(radius / res + 2, w))  # past the widest blocking offset, or the width
            for dy in range(h):
                while m >= 0 and not blocks(dy, m):
                    m -= 1
                if m < 0:
                    break
                # rows holding an occupied cell within m columns of each column
                near = counts[:, np.minimum(cols + m + 1, w)] > counts[:, np.maximum(cols - m, 0)]
                blocked[dy:] |= near[: h - dy]
                blocked[: h - dy] |= near[dy:]
            mask = ~blocked
            mask.setflags(write=False)
            self._free_cache[radius] = mask
        return self._free_cache[radius]

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        rows = []
        for iy in range(self.height_cells):
            row = self.grid[iy]
            runs = []
            start = 0
            for i in range(1, len(row) + 1):
                if i == len(row) or row[i] != row[start]:
                    runs.append([i - start, int(row[start])])
                    start = i
            rows.append(runs)
        return {
            "format": WORLD_FORMAT,
            "resolution": self.resolution,
            "width": self.width_cells,
            "height": self.height_cells,
            "grid": rows,
            "objects": [o.to_dict() for o in self.objects],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WorldMap":
        check_type(d, dict, "a world")
        try:
            if d.get("format") != WORLD_FORMAT:
                raise SchemaViolation(f"unknown world format: {d.get('format')!r}")
            width = check_integer(d["width"], "width")
            height = check_integer(d["height"], "height")
            rows = check_type(d["grid"], list, "grid")
            if len(rows) != height:
                raise SchemaViolation("grid row count does not match height")
            # every row is checked before the grid is allocated, so a huge
            # width or height costs nothing unless the rows really encode it
            for iy, runs in enumerate(rows):
                check_type(runs, list, f"row {iy}")
                ix = 0
                for run in runs:
                    if not (isinstance(run, list) and len(run) == 2
                            and all(type(v) is int for v in run)
                            and run[0] > 0 and run[1] in (FREE, OBSTACLE)):
                        raise SchemaViolation(f"bad run {run!r:.40} in row {iy}")
                    ix += run[0]
                if ix != width:
                    raise SchemaViolation(f"row {iy} encodes {ix} cells, expected {width}")
            grid = np.empty((height, width), dtype=np.uint8)
            for iy, runs in enumerate(rows):
                ix = 0
                for count, value in runs:
                    grid[iy, ix: ix + count] = value
                    ix += count
            objects = [SemanticObject.from_dict(o)
                       for o in check_type(d.get("objects", []), list, "objects")]
            return cls(grid, check_finite(d["resolution"], "resolution"), objects)
        except (KeyError, ValueError) as e:
            raise SchemaViolation(f"bad world payload: {e}") from e

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, separators=(",", ":"))

    @classmethod
    def load(cls, path) -> "WorldMap":
        return cls.from_dict(read_json(path))

