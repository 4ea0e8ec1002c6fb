"""Host-speed calibration for the benchmark's timings.

This VM's speed wanders: for seconds to minutes at a time other tenants slow
it by up to 1.8x, and a whole 30 s run can fall in a slow stretch.  So every
run also times a fixed kernel, which shares no code with dynav, right before
and right after each timed item (each world build, each episode), and
reports each item's time scaled to the speed at which that kernel takes
``REF_S``:

    reported = measured * REF_S / mean of the slices around the item

and, of the repeats of an item, the median.  A change to dynav moves only
``measured``; a slow host moves both.

The kernel mixes what dynav's step spends its time on: pure-Python ray
marching over a grid, nearest-neighbour probes of a scipy kd-tree and JSON
encoding.  It runs with the garbage collector off, so that the heap dynav
leaves behind does not change its time.
"""
from __future__ import annotations

import gc
import json
import math
import random
from time import perf_counter
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

# One slice's time at the speed the figures are reported at: about this
# 2-vCPU VM's slice time when no other tenant slows it.
REF_S = 0.009

_N = 120          # grid cells per side
_PROBES = 15      # poses per slice
_RAYS = 61        # rays per pose


class Kernel:
    """The calibration kernel: fixed inputs, built once per process."""

    def __init__(self):
        rng = random.Random(7)
        self.grid = [[rng.random() < 0.08 for _ in range(_N)] for _ in range(_N)]
        cells = [(i + 0.5, j + 0.5) for i in range(_N) for j in range(_N) if self.grid[i][j]]
        self.tree = cKDTree(np.array(cells))
        self.probes = [(rng.uniform(5, _N - 5), rng.uniform(5, _N - 5), rng.uniform(-math.pi, math.pi))
                       for _ in range(_PROBES)]

    def _work(self) -> float:
        grid, acc = self.grid, 0.0
        for x, y, heading in self.probes:
            rays = []
            for i in range(_RAYS):
                a = heading - 1.0 + 2.0 * i / (_RAYS - 1)
                dx, dy = math.cos(a), math.sin(a)
                t = 0.0
                while t < 20.0 and not grid[int(x + dx * t) % _N][int(y + dy * t) % _N]:
                    t += 0.25
                rays.append({"angle": a, "depth": t})
            d, _ = self.tree.query([x, y])
            acc += d + len(self.tree.query_ball_point([x, y], d + 0.7)) + len(json.dumps(rays))
        return acc

    def slice(self) -> float:
        """Run the kernel once; its wall time in seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            self._work()
            return perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


def around(slices: Sequence[float]) -> np.ndarray:
    """The calibration around each of n items, from the n + 1 slices taken
    before, between and after them."""
    s = np.asarray(slices, dtype=float)
    return (s[:-1] + s[1:]) / 2.0


def at_reference(times, cals) -> np.ndarray:
    """Each item's time at reference speed, median over its repeats:
    ``times[r][i]`` is item ``i`` in repeat ``r`` and ``cals[r][i]`` the
    calibration around it."""
    return np.median(np.asarray(times, dtype=float) / np.asarray(cals, dtype=float),
                     axis=0) * REF_S
