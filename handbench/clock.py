"""Wall-clock laps normalised by a fixed reference kernel.

The machine this benchmark was written on drifts in speed by 20-30% over tens
of seconds, and process CPU time drifts as much as wall time.  So each lap of
the timed region is bracketed by runs of a fixed numpy kernel that does not
use handkit, and the lap's normalised time is its wall time times the
kernel's nominal time over the mean of the two kernel runs beside it: the
time the lap would take when the kernel takes its nominal time.  A change to
handkit moves the laps and not the kernel.  Raw wall times are kept next to
the normalised ones.
"""

from __future__ import annotations

import time

import numpy as np

#: each part's typical time on the 2-core box the benchmark was tuned on
PART_NOMINAL_S = {"einsum": 0.006, "loops": 0.006, "distance": 0.008}


class ReferenceKernel:
    """A few milliseconds of fixed numpy work per part.

    ``einsum`` is a skinning-sized einsum, ``loops`` small-array ops in a
    Python loop (as in B = 1 fitting), ``distance`` a nearest-neighbour
    distance matrix (as in the F-score).  Contention for a shared core slows
    these kinds of work by different factors, so each workload picks the
    parts whose slowdown follows its own.  On the tuning box the chosen parts
    held the spread of 10 s medians of normalised op times to 2-6%, against
    8-24% raw.
    """

    def __init__(self, parts: tuple[str, ...]):
        rng = np.random.default_rng(0)
        self.parts = tuple(parts)
        self.nominal_s = sum(PART_NOMINAL_S[p] for p in self.parts)
        self.weights = rng.random((778, 16))
        self.rot = rng.normal(size=(4, 16, 3, 3))
        self.points = rng.normal(size=(4, 778, 3))
        self.small = rng.normal(size=(21, 3))
        self.mat = rng.normal(size=(3, 3))
        self.cloud = rng.normal(size=(778, 3))
        self.probe = rng.normal(size=(150, 3))
        self.run()                      # first-call costs stay out of the timings

    def _einsum(self):
        np.einsum("vj,bjxy,bvy->bvx", self.weights, self.rot, self.points)

    def _loops(self):
        for _ in range(100):
            a = self.small @ self.mat
            b = np.linalg.norm(a, axis=-1)
            c = np.cross(a[1], a[2])
            np.where(b > 1.0, a.sum(), c.sum())

    def _distance(self):
        diff = self.cloud[:, None, :] - self.probe[None, :, :]
        np.linalg.norm(diff, axis=2).min(axis=0)

    def run(self) -> float:
        """Run the chosen parts once; returns their wall time in seconds."""
        start = time.perf_counter()
        for part in self.parts:
            getattr(self, "_" + part)()
        return time.perf_counter() - start

    def normalised(self, wall: float, ref: float) -> float:
        """``wall`` scaled to the time it takes when the kernel takes its nominal time."""
        return wall * self.nominal_s / ref


class Clock:
    """Splits a timed region into laps, each with the kernel time beside it."""

    def __init__(self, kernel: ReferenceKernel):
        self.kernel = kernel
        self._ref_before = self.kernel.run()
        self._start = time.perf_counter()

    def lap(self) -> tuple[float, float]:
        """(wall seconds since the last lap, mean kernel seconds on both sides)."""
        wall = time.perf_counter() - self._start
        ref_after = self.kernel.run()
        ref = 0.5 * (self._ref_before + ref_after)
        self._ref_before = ref_after
        self._start = time.perf_counter()
        return wall, ref

