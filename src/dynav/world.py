"""Occupancy-grid world with disc-shaped semantic objects.

The grid is a row-major uint8 array indexed ``grid[iy, ix]`` with 0 = free and
1 = obstacle.  Cell (ix, iy) covers the square
``[ix*res, (ix+1)*res) x [iy*res, (iy+1)*res)`` in world meters.  Semantic
objects are discs layered on top of the grid; they block both motion and rays.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (SchemaViolation, check, check_finite, check_integer, check_strings,
                     check_type, read_json)

FREE = 0
OBSTACLE = 1
OUTSIDE = 2  # the frame around the grid in ``WorldMap.framed_cells``

WORLD_FORMAT = "dynav-world/1"

# the ray traversal's tie between the next x and y crossings
_TIE = 1e-12
# cells from a grid line within which a ray's start or wall entry is walked
_NEAR_LINE = 1e-7
# a lower bound's relative margin over the rounding of a distance
_SHRINK = 1.0 - 1e-12


def flat_runs(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The maximal runs of True in ``mask``'s rows, as ``[start, stop)`` in a
    row-major layout with one column after each row: cell ``(iy, ix)`` at
    ``iy * (w + 1) + ix``, for ``w`` columns.

    The mask is copied once into that layout, flat and behind one leading
    False, with False in the extra columns, so that every run ends within
    its row.  One comparison of neighbours along the flat array then finds
    each start and each stop, in raster order and alternating.
    """
    h, w = mask.shape
    flat = np.zeros(h * (w + 1) + 1, dtype=bool)
    flat[1:].reshape(h, w + 1)[:, :w] = mask
    change = np.flatnonzero(flat[1:] != flat[:-1])
    return change[0::2], change[1::2]


def _row_runs(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, first and last column of each maximal run of True in ``mask``'s
    rows, in raster order."""
    starts, stops = flat_runs(mask)
    stride = mask.shape[1] + 1
    rows, first = np.divmod(starts, stride)
    return rows, first, stops - 1 - rows * stride


def cell_span(lo: float, hi: float, res: float, n: int) -> Tuple[int, int]:
    """The cells ``[i0, i1)`` of an axis of ``n`` cells that hold the span
    ``[lo, hi]`` metres, with one more cell on each side, clipped to the axis.

    The ends are clamped in floats before ``int()``, so an infinite or huge
    span gives the whole axis instead of an OverflowError; any clamped end
    lies past the axis, so the cells are those of the unclamped span.
    """
    return (max(int(min(max(lo / res, -1.0), n + 1.0)) - 1, 0),
            min(int(min(max(hi / res, -2.0), float(n))) + 2, n))


def _disc_distance(x: float, y: float, cx: float, cy: float, r: float) -> float:
    """Signed distance from a point to a disc's boundary, as the clearance
    scan takes it."""
    # plain floats: a numpy scalar here would carry into the nudged pose and
    # slow every later step's arithmetic
    return float(np.hypot(cx - x, cy - y)) - r


def _near(k: int, lo: int, hi: int) -> range:
    """Indices in [lo, hi] within one of k, once k is clamped to [lo, hi]."""
    k = min(max(k, lo), hi)
    return range(max(k - 1, lo), min(k + 1, hi) + 1)


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
        # the world keeps a read-only grid of its own: any other array is
        # copied, so the caller's stays as it was and cannot change the world
        if not (isinstance(grid, np.ndarray) and grid.dtype == np.uint8 and grid.flags.owndata
                and grid.flags.c_contiguous and not grid.flags.writeable):
            grid = np.array(grid, dtype=np.uint8, order="C")
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
        # the extents, fixed here so that a scan reads plain numbers
        self.height_cells, self.width_cells = grid.shape
        self.width_m = self.width_cells * self.resolution
        self.height_m = self.height_cells * self.resolution
        self.objects: Tuple[SemanticObject, ...] = tuple(objects)
        for o in self.objects:
            x, y = o.center
            if not (0.0 <= x <= self.width_m and 0.0 <= y <= self.height_m):
                raise ValueError(f"object {o.name} center lies outside the world")
        # per-world indexes, built on first use
        self._framed: Optional[bytes] = None
        self._runs: Optional[list] = None
        self._faces: Optional[tuple] = None
        self._everywhere: Optional[tuple] = None
        self._occupancy = None
        self._free_cache: dict = {}
        self._columns: Optional[tuple] = None
        # (cx, cy, r) of each object, in plain floats
        self._discs = [(float(o.center[0]), float(o.center[1]), float(o.radius))
                       for o in self.objects]

    def with_objects(self, objects: Sequence[SemanticObject]) -> "WorldMap":
        """A world of this grid with the given objects.  The grid's indexes
        (the framed grid, the wall runs and their face bounds) depend on the
        grid alone, so the new world takes over those built so far."""
        world = WorldMap(self.grid, self.resolution, objects)
        world._framed, world._runs, world._faces = self._framed, self._runs, self._faces
        return world

    # -- geometry helpers ---------------------------------------------------

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
            h, w = self.grid.shape
            framed = np.full((h + 2, w + 2), OUTSIDE, dtype=np.uint8)
            framed[1: h + 1, 1: w + 1] = self.grid
            self._framed = framed.tobytes()
        return self._framed

    def _wall_runs(self) -> list:
        """Maximal runs of edge cells, as ``(ax, bx, ay, by, (ix0, ix1, iy0,
        iy1))``: the float bounds of the run's squares and its cell range.

        An edge cell is an obstacle cell with a free 8-neighbour.  Seen from a
        point outside every obstacle cell, any other obstacle cell lies at
        least one resolution farther than some edge cell, so the nearest cell
        is always an edge cell.  Each row's runs of two or more cells are
        kept, and the single cells left over merge into runs along their
        columns, so that both horizontal and vertical walls take few runs.
        Both passes are one ``flat_runs`` each.  The list is built once per
        grid: ``with_objects`` hands it on.
        """
        if self._runs is None:
            # the 3x3 free-neighbour test, separable: along rows, then columns
            h, w = self.grid.shape
            free = np.zeros((h + 2, w + 2), dtype=bool)
            free[1: h + 1, 1: w + 1] = self.grid == FREE
            across = free[:, :-2] | free[:, 1:-1] | free[:, 2:]
            near_free = across[:-2] | across[1:-1] | across[2:]
            edge = (self.grid == OBSTACLE) & near_free
            iys, x0s, x1s = _row_runs(edge)
            single = x0s == x1s
            alone = np.zeros_like(edge)
            alone[iys[single], x0s[single]] = True
            ixs, y0s, y1s = _row_runs(alone.T)
            kept = ~single
            ix0 = np.concatenate([x0s[kept], ixs])
            ix1 = np.concatenate([x1s[kept], ixs])
            iy0 = np.concatenate([iys[kept], y0s])
            iy1 = np.concatenate([iys[kept], y1s])
            res = self.resolution
            self._runs = list(zip((ix0 * res).tolist(), ((ix1 + 1) * res).tolist(),
                                  (iy0 * res).tolist(), ((iy1 + 1) * res).tolist(),
                                  zip(ix0.tolist(), ix1.tolist(), iy0.tolist(), iy1.tolist())))
        return self._runs

    def _run_faces(self) -> tuple:
        """The wall runs as the cast reads them, ``(bounds, lines)``: the
        float bounds of ``_wall_runs`` stacked as (low/high, x/y, runs, 1),
        and the grid lines of the runs' faces as rows ``ix0``, ``-(ix1 + 1)``,
        ``iy0`` and ``-(iy1 + 1)``, of shape (4, runs)."""
        if self._faces is None:
            runs = self._wall_runs()
            bounds = np.array([run[:4] for run in runs], dtype=float).reshape(-1, 2, 2)
            lines = np.array([run[4] for run in runs], dtype=np.intp).reshape(-1, 4).T
            # in C order: the slab product takes its layout from these bounds
            self._faces = (np.ascontiguousarray(bounds.transpose(2, 1, 0)[..., None]),
                           (lines + [[0], [1], [0], [1]]) * [[1], [-1], [1], [-1]])
        return self._faces

    def disc_columns(self) -> tuple:
        """The objects' discs as columns, ``(centres, rr)``: the centres'
        x over y, of shape (2, objects, 1), and the radii squared, of shape
        (objects, 1)."""
        if self._columns is None:
            discs = np.array(self._discs, dtype=float).reshape(-1, 3).T.copy()[..., None]
            self._columns = (discs[:2], discs[2] * discs[2])
        return self._columns

    def wall_distances(self, x0: float, y0: float, dirs: np.ndarray,
                       t_max: np.ndarray) -> np.ndarray:
        """Per ray from the in-bounds point (x0, y0) along the unit direction
        ``dirs[:, i]`` (x over y), the distance at which the voxel traversal
        of Amanatides & Woo (1987) first enters an obstacle cell: 0 when the
        point's own cell is one, and inf when the ray leaves the grid or
        passes ``t_max[i]`` first.

        The traversal's rules fix every bit.  The first crossing and the
        crossing spacing of a ray along an axis are set up in numpy, whose
        element-wise operations round as the scalar ones do; a ray with no
        movement along an axis never crosses along it.  The distance of a
        crossing is the first crossing plus one spacing per earlier crossing
        along its axis, added in order.  Where the two next crossings lie
        within 1e-12 of each other the ray passes a cell corner and steps both
        axes at once, at the x crossing's distance, so a zero-length graze is
        not a hit.

        Most rays are not walked cell by cell but cast, all at once, against
        the wall runs (``_cast``), which sets up only the crossings it sums;
        the walk (``_walk``) takes the rays that the cast leaves to it.
        """
        res = self.resolution
        ix, iy = int(x0 / res), int(y0 / res)
        k0 = (iy + 1) * (self.width_cells + 2) + ix + 1
        start = self.framed_cells()[k0]
        if start:  # an obstacle, or the frame when rounding puts the point past the edge
            return np.full(dirs.shape[1], 0.0 if start == OBSTACLE else math.inf)
        t_wall, walk = self._cast(x0, y0, dirs, t_max)
        if len(walk):
            # both axes, the cast's expressions, inf where a ray does not move
            d = dirs[:, walk]
            t_next, dt = np.full((2, 2, len(walk)), math.inf)
            np.divide((np.array((ix, iy))[:, None] + (d > 0)) * res - np.array((x0, y0))[:, None],
                      d, out=t_next, where=d != 0.0)
            np.divide(res, np.abs(d), out=dt, where=d != 0.0)
            t_wall[walk] = self._walk(k0, d[0], d[1], t_max[walk], t_next[0], dt[0],
                                      t_next[1], dt[1])
        return t_wall

    def _cast(self, x0: float, y0: float, dirs: np.ndarray,
              t_max: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(t_wall, walk)``: the traversal's wall distance of every ray
        found without walking it, and the indices of the rays left to the
        walk, whose entries in ``t_wall`` are unset.

        From a free cell the traversal first enters an obstacle cell from a
        free 8-neighbour, so that cell is an edge cell and lies in a wall
        run.  One slab test over (low/high, x/y, runs, rays) finds each ray's
        nearest entry into a run; a ray that enters none leaves the grid
        first.  The entered run and face give the axis and the number k of
        earlier crossings along it, and ``np.add.accumulate`` over ``[t0,
        dt, dt, ...]``, set up along that axis for the cast rays alone, adds
        the spacing k times in order, as the traversal does.  The slab times
        only choose the run and face; the distance is that sum.

        Left to the walk: every ray of a point within 1e-7 cells of a grid
        line, every ray of a world without runs, and each ray whose entry
        lies within 1e-7 cells of a grid corner, where the traversal may step
        both axes at once and enter another cell at another sum, or whose k
        is negative.
        """
        n = dirs.shape[1]
        res = self.resolution
        bounds, lines = self._run_faces()
        u, v = x0 / res, y0 / res
        if not lines.size or abs(u - round(u)) < _NEAR_LINE or abs(v - round(v)) < _NEAR_LINE:
            return np.empty(n), np.arange(n)
        ix, iy = int(u), int(v)
        with np.errstate(divide="ignore"):
            inv = 1.0 / dirs
        start = np.array((x0, y0))
        # the point lies on no grid line, so no product below is 0 * inf
        t = (bounds - start[:, None, None]) * inv[:, None]
        near_xy, far_xy = np.minimum(t[0], t[1]), np.maximum(t[0], t[1])
        near, far = np.maximum(near_xy[0], near_xy[1]), np.minimum(far_xy[0], far_xy[1])
        np.putmask(near, (near > far) | (far <= 0.0), math.inf)
        run = near.argmin(axis=0)
        fan = np.arange(n)
        t = near[run, fan]
        # a y face where the x slab's near time falls short of the entry's
        on_y = near_xy[0, run, fan] != t
        # past its limit, a ray's wall is not seen; the margin covers the
        # slab time's rounding, and the exact sum is checked below
        live = t <= t_max + 1e-6
        d = np.where(on_y, dirs[1], dirs[0])
        # k: the entered grid line less the first line the ray crosses, per
        # axis and direction of travel
        k = (lines + np.array((-1 - ix, ix, -1 - iy, iy))[:, None])[(d <= 0.0) + 2 * on_y, run]
        # the entry's other coordinate in cells (0 where none is seen): near a
        # grid line, the entry is near a corner, the run's or one between cells
        entry = start[:, None] + np.where(live, t, 0.0) * dirs
        w = np.where(on_y, entry[0], entry[1]) / res
        cast = (np.abs(w - np.rint(w)) >= _NEAR_LINE) & (k >= 0) & live
        walk = np.flatnonzero(live ^ cast)
        rays = np.flatnonzero(cast)
        t_wall = np.full(n, math.inf)
        if len(rays):
            # a ray that enters a run through an axis's face moves along it
            k, on_y, d = k[rays], on_y[rays], d[rays]
            sums = np.empty((k.max() + 1, len(rays)))
            sums[0] = ((np.where(on_y, iy, ix) + (d > 0)) * res - np.where(on_y, y0, x0)) / d
            sums[1:] = res / np.abs(d)
            depth = np.add.accumulate(sums)[k, np.arange(len(rays))]
            t_wall[rays] = np.where(depth <= t_max[rays], depth, math.inf)
        return t_wall, walk

    def _walk(self, k0: int, dx: np.ndarray, dy: np.ndarray, t_max: np.ndarray,
              t_next_x: np.ndarray, dt_x: np.ndarray, t_next_y: np.ndarray,
              dt_y: np.ndarray) -> list:
        """The traversal of the given rays, cell by cell over
        ``framed_cells`` from the flat index ``k0`` of their free start cell:
        their wall distances, as ``wall_distances`` gives them."""
        cells = self.framed_cells()
        stride = self.width_cells + 2
        # per ray, the flat-index step along x, along y, and across a corner
        step_xs = np.where(dx > 0, 1, -1)
        step_ys = np.where(dy > 0, stride, -stride)
        walls = []
        for step_x, step_y, step_xy, limit, next_x, d_x, next_y, d_y in zip(
                step_xs.tolist(), step_ys.tolist(), (step_xs + step_ys).tolist(),
                t_max.tolist(), t_next_x.tolist(), dt_x.tolist(), t_next_y.tolist(),
                dt_y.tolist()):
            # walk the flat index: one cell along x, along y, or both at a corner
            k = k0
            while True:
                if next_x < next_y - _TIE:
                    t_enter = next_x
                    next_x += d_x
                    k += step_x
                elif next_y < next_x - _TIE:
                    t_enter = next_y
                    next_y += d_y
                    k += step_y
                else:  # corner crossing: skip the zero-chord diagonal neighbors
                    t_enter = next_x
                    next_x += d_x
                    next_y += d_y
                    k += step_xy
                if t_enter > limit:
                    walls.append(math.inf)
                    break
                cell = cells[k]
                if cell:  # an obstacle, or the frame past the grid's edge
                    walls.append(t_enter if cell == OBSTACLE else math.inf)
                    break
        return walls

    def _cell_rect_distance(self, x: float, y: float, ix: int, iy: int) -> float:
        res = self.resolution
        ax, bx, ay, by = ix * res, (ix + 1) * res, iy * res, (iy + 1) * res
        return math.hypot(ax - x if ax > x else (x - bx if x > bx else 0.0),
                          ay - y if ay > y else (y - by if y > by else 0.0))

    def _border_distance(self, x: float, y: float) -> float:
        """Distance from a point to the map border, negative outside the
        world."""
        # plain comparisons, cheaper than calls to min: each keeps the first
        # of tied values, as min does
        best = y if y < x else x
        right, top = self.width_m - x, self.height_m - y
        best = right if right < best else best
        return top if top < best else best

    def _clamp_to_cell(self, x: float, y: float, ix: int, iy: int) -> Tuple[float, float]:
        res = self.resolution
        return (min(max(x, ix * res), (ix + 1) * res), min(max(y, iy * res), (iy + 1) * res))

    def _surfaces(self) -> tuple:
        """Every wall run and disc of the world, in its own order, as the
        scan reads them: ``(runs, discs)``, with ``(bound, ax, bx, ay, by,
        span)`` per run and ``(bound, cx, cy, r)`` per disc, every bound
        -inf, so that the scan visits them all."""
        if self._everywhere is None:
            self._everywhere = ([(-math.inf, *run) for run in self._runs or self._wall_runs()],
                                [(-math.inf, *disc) for disc in self._discs])
        return self._everywhere

    def surfaces_along(self, x0: float, y0: float, ux: float, uy: float,
                       length: float) -> tuple:
        """The wall runs and discs as ``clearance_along`` reads them for the
        points ``(x0 + t * ux, y0 + t * uy)``, ``0 <= t <= length``, nearest
        first.

        Each surface carries a lower bound on its distance from every such
        point: its gap to the box between the two ends, taken with the
        scan's own expressions and cut by a relative margin of 1e-12, far
        above the rounding of ``hypot`` (and of ``np.hypot``, which measures
        discs and can differ from ``math.hypot`` in the last bit).  Rounding
        is monotone, so each point computed as above lies in that box, and
        each of its gaps to a surface is at least the box's.
        """
        x1, y1 = x0 + length * ux, y0 + length * uy
        lx, hx = (x0, x1) if x0 < x1 else (x1, x0)
        ly, hy = (y0, y1) if y0 < y1 else (y1, y0)
        hypot = math.hypot
        runs = [(hypot(ax - hx if ax > hx else (lx - bx if lx > bx else 0.0),
                       ay - hy if ay > hy else (ly - by if ly > by else 0.0)) * _SHRINK,
                 ax, bx, ay, by, span)
                for ax, bx, ay, by, span in self._runs or self._wall_runs()]
        discs = [(hypot(cx - hx if cx > hx else (lx - cx if lx > cx else 0.0),
                        cy - hy if cy > hy else (ly - cy if ly > cy else 0.0)) * _SHRINK - r,
                  cx, cy, r)
                 for cx, cy, r in self._discs]
        runs.sort()
        discs.sort()
        return runs, discs

    def _scan(self, x: float, y: float, surfaces: tuple) -> Tuple[float, list, Optional[tuple]]:
        """Clearance at a point and what sets it, as ``(best, spans, disc)``.

        ``disc`` is the nearest disc ``(cx, cy, r)`` when a disc sets the
        clearance.  Otherwise ``spans`` holds the cell ranges ``(ix0, ix1,
        iy0, iy1)`` exactly at that distance: the tied runs, or the nearest
        cell of the 3x3 block around a point inside an obstacle cell.  An
        empty ``spans`` means the border.

        ``surfaces`` is ``(runs, discs)`` as ``_surfaces`` or
        ``surfaces_along`` gives them, each list in order of its lower
        bounds.  The scan walks each list in order and stops at the first
        bound above the best distance so far: every later surface lies
        farther, so the clearance is the least distance over all of them,
        and no run left out ties it.  The spans and the disc are those of a
        scan over every surface in the world's order only for ``_surfaces``.
        """
        runs, discs = surfaces
        best = self._border_distance(x, y)
        spans: list = []
        # a cell must come strictly closer than the border, so it can only
        # win for a point strictly inside the world
        if best > 0.0:
            res, w, h = self.resolution, self.width_cells, self.height_cells
            ix, iy = int(x / res), int(y / res)
            # rounding can put a point just short of the far edge past it
            ix, iy = (ix if ix < w else w - 1), (iy if iy < h else h - 1)
            if (self._framed or self.framed_cells())[(iy + 1) * (w + 2) + ix + 1] == OBSTACLE:
                # within rounding of this cell: no cell outside its 3x3 block
                # comes within a resolution of the point
                for jy in range(max(iy - 1, 0), min(iy + 2, h)):
                    for jx in range(max(ix - 1, 0), min(ix + 2, w)):
                        if self.grid[jy, jx] == OBSTACLE:
                            d = self._cell_rect_distance(x, y, jx, jy)
                            if d < best:
                                best, spans = d, [(jx, jx, jy, jy)]
            else:
                # a run's gaps are those of its nearest cell: the same float
                # bounds enter the same expressions, so the bits agree.  A
                # gap is ``max(ax - x, 0.0, x - bx)``: ``ax - x > 0`` exactly
                # when ``ax > x``, and between, the gap is +0.0
                for bound, ax, bx, ay, by, span in runs:
                    if bound > best:
                        break
                    dx = ax - x if ax > x else (x - bx if x > bx else 0.0)
                    if dx > best:
                        continue
                    dy = ay - y if ay > y else (y - by if y > by else 0.0)
                    if dy > best:
                        continue
                    d = math.hypot(dx, dy)
                    if d < best:
                        best, spans = d, [span]
                    elif d == best and spans:
                        spans.append(span)
        # an object comes closer than best only if its centre lies within
        # best + radius: a screen in plain floats, with a margin over rounding;
        # the strict < keeps the first of tied discs, as an argmin does
        disc = None
        for bound, cx, cy, r in discs:
            if bound > best:
                break
            ex, ey, reach = x - cx, y - cy, best + r + 1e-9
            if ex * ex + ey * ey < reach * reach:
                d = _disc_distance(x, y, cx, cy, r)
                if d < best:
                    best, disc = d, (cx, cy, r)
        return best, spans, disc

    def clearance(self, x: float, y: float) -> float:
        """Exact distance from a point to the nearest blocking surface.

        Obstacle cells are axis-aligned squares, objects are discs, and the
        map border counts as a wall (the world ends there).
        """
        return self._scan(x, y, self._everywhere or self._surfaces())[0]

    def clearance_along(self, x: float, y: float, surfaces: tuple) -> float:
        """``clearance(x, y)``, bit for bit, at a point of the segment that
        ``surfaces_along`` gave ``surfaces`` for."""
        return self._scan(x, y, surfaces)[0]

    def clearance_with_nearest(self, x: float, y: float) -> Tuple[float, Tuple[float, float]]:
        """Clearance plus the closest point on the nearest blocking surface.

        Of exactly tied obstacle cells the first in row-major order wins: the
        lowest ``iy``, then the lowest ``ix``.
        """
        best, spans, disc = self._scan(x, y, self._everywhere or self._surfaces())
        if disc is not None:
            cx, cy, r = disc
            norm = math.hypot(x - cx, y - cy)
            if norm > 1e-12:
                return best, (cx + (x - cx) / norm * r, cy + (y - cy) / norm * r)
            return best, (cx + r, cy)
        if spans:
            # a span's cells at that distance lie within one index of the
            # point's own cell along it
            res = self.resolution
            jy, jx = min((jy, jx) for ix0, ix1, iy0, iy1 in spans
                         for jy in _near(int(y / res), iy0, iy1)
                         for jx in _near(int(x / res), ix0, ix1)
                         if self._cell_rect_distance(x, y, jx, jy) == best)
            return best, self._clamp_to_cell(x, y, jx, jy)
        # border: closest point is the orthogonal projection onto that wall
        if best == x:
            return best, (0.0, y)
        if best == y:
            return best, (x, 0.0)
        if best == self.width_m - x:
            return best, (self.width_m, y)
        return best, (x, self.height_m)

    def disc_cells(self, ox: float, oy: float, reach: float) -> Tuple[tuple, np.ndarray]:
        """The cells near a disc: the box of cells that holds the square of
        half-side ``reach`` around ``(ox, oy)``, plus one cell on each side and
        clipped to the grid, as a ``grid[box]`` index, and each of its cell
        centres' distance from ``(ox, oy)``.  Every cell outside the box lies
        farther than ``reach`` away."""
        res = self.resolution
        x0, x1 = cell_span(ox - reach, ox + reach, res, self.width_cells)
        y0, y1 = cell_span(oy - reach, oy + reach, res, self.height_cells)
        cx = (np.arange(x0, x1) + 0.5) * res
        cy = (np.arange(y0, y1) + 0.5) * res
        return np.s_[y0: y1, x0: x1], np.hypot(cx - ox, cy[:, None] - oy)

    def occupancy_with_objects(self) -> np.ndarray:
        """Boolean grid: cell blocked by an obstacle cell or an object disc.

        A cell counts as object-blocked when its center lies inside the disc.
        Each disc is tested only on its ``disc_cells``.
        """
        if self._occupancy is None:
            occ = self.grid == OBSTACLE
            for ox, oy, r in self._discs:
                box, dist = self.disc_cells(ox, oy, r)
                occ[box] |= dist <= r
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
        one sliding-window test per row offset: whether any cell of the 2m + 1
        columns around each column is occupied, a boolean OR of two
        overlapping power-of-two windows, each built once per mask by doubling
        (van Herk, 1992).  It differs from the transform only where that has
        no answer or picks one arbitrarily: with no occupied cell every cell
        is free, and of two exactly tied offsets whose floats differ in the
        last bit, such as (9, 2) and (6, 7), the nearer float decides.
        """
        if radius not in self._free_cache:
            occ = self.occupancy_with_objects()
            h, w = occ.shape
            res = self.resolution

            def blocks(dy: int, dx: int) -> bool:
                a, b = dy * res, dx * res
                return math.sqrt(a * a + b * b) <= radius

            # past the widest blocking offset, or the width
            pad = m = max(int(min(radius / res + 2, w)), 0)
            # the occupancy with pad free columns on either side; ``wins[k][:, j]``
            # holds whether any of its columns j .. j + 2**k - 1 is occupied
            wins = [np.zeros((h, w + 2 * pad), dtype=bool)]
            wins[0][:, pad: pad + w] = occ
            blocked = np.zeros((h, w), dtype=bool)
            near_m = -1
            for dy in range(h):
                while m >= 0 and not blocks(dy, m):
                    m -= 1
                if m < 0:
                    break
                if m != near_m:
                    # rows holding an occupied cell within m columns of each
                    # column: the window of 2**k <= 2m + 1 columns from either end
                    k = (2 * m + 1).bit_length() - 1
                    while len(wins) <= k:
                        s = 1 << (len(wins) - 1)
                        wins.append(wins[-1][:, :-s] | wins[-1][:, s:])
                    lo, hi = pad - m, pad + m + 1 - (1 << k)
                    near = wins[k][:, lo: lo + w] | wins[k][:, hi: hi + w]
                    near_m = m
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

