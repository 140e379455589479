"""Fixed reference work that gauges the host's speed during a run.

On a shared VM the speed of a core drifts by tens of percent in phases that
last seconds to minutes, and the process CPU time drifts with it.  A run of
the same code can then read 25% slower than the run before it.  The untraced
run therefore times this reference work in short samples before the first
cell and after every cell, and divides each cell's time by the median chunk
time of the two samples before it and the two after it.  Drift that slows
the reference and the cells alike cancels in that ratio, also when it changes
within a run; a change to sparsegp does not touch the reference and shows in
full.  Four samples, not two, because a sample lasts a fraction of a second
and catches short bursts of contention that a whole cell averages out.

Drift does not slow every kind of work alike, so a chunk is made of the
parts that resemble the workload's cells (each about 1.5-3 ms on a 2-vCPU
Xeon VM):

- ``chain``: forty exchange-chain-like steps on a 10-point set (small kernel
  vectors, a triangular solve, a Python loop over a 10 x 10 factor);
- ``blas``: one Cholesky factorization and one product of 300 x 300 matrices;
- ``stream``: elementwise passes over 8 MB arrays, like the N x N Gram work.

On that VM, in phases where raw cell times spread by 10-33% across five
seeds, ``chain`` + ``blas`` held the spread of the ratio to 4-6% on
`chain-dpp` and `m-sweep`, and ``blas`` + ``stream`` to 5% on `dense-cell`.
A part that does not resemble the cells tracked worse: ``blas`` alone
underreacted on `chain-dpp`, a bare loop of small array operations overreacted
on `m-sweep`, and ``chain`` overreacted on `dense-cell`.  The code below must
stay fixed: changing it re-bases every normalized metric.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.linalg

# After a cell, run chunks for this share of the cell's time, and for at
# least MIN_SAMPLE_S, so every cell adds the same small overhead.
SAMPLE_SHARE = 0.03
MIN_SAMPLE_S = 0.015
# A cell is scaled by the samples up to this many places before and after it.
SCALE_REACH = 2


class Reference:
    def __init__(self, parts: tuple[str, ...]):
        """`parts` names the parts of a chunk: "chain", "blas" and/or "stream"."""
        self._parts = [getattr(self, f"_{part}") for part in parts]
        rng = np.random.default_rng(20190308)
        self._x = rng.standard_normal((40, 2))
        sq_dist = ((self._x[:10, None, :] - self._x[None, :10, :]) ** 2).sum(axis=2)
        self._l10 = np.linalg.cholesky(np.exp(-sq_dist) + 1e-3 * np.eye(10))
        self._b = rng.standard_normal((300, 300))
        self._spd = self._b @ self._b.T + 300.0 * np.eye(300)
        if "stream" in parts:
            self._v = rng.standard_normal(1_000_000)
            self._w = np.empty_like(self._v)
        self.windows: list[list[float]] = []  # chunk seconds, one list per sample

    def _chain(self):
        for j in range(40):
            diff = self._x[j] - self._x[:10]
            k_cross = np.exp(-(diff * diff).sum(axis=1))
            v = scipy.linalg.solve_triangular(self._l10, k_cross, lower=True)
            edited = self._l10.copy()
            for i in range(9):
                edited[i + 1 :, i] *= 0.999
            float(np.log(np.diag(edited)).sum() + v.dot(v))

    def _blas(self):
        np.linalg.cholesky(self._spd)
        self._b @ self._b

    def _stream(self):
        np.multiply(self._v, 1.0001, out=self._w)
        np.exp(self._w[:200_000])
        self._w.sum()

    def chunk(self) -> float:
        """Run one chunk of reference work and return its wall seconds."""
        t0 = perf_counter()
        for part in self._parts:
            part()
        return perf_counter() - t0

    def sample(self, cell_seconds: float = 0.0) -> float:
        """Run chunks after a cell of `cell_seconds`; return the seconds spent."""
        t0 = perf_counter()
        budget = max(MIN_SAMPLE_S, SAMPLE_SHARE * cell_seconds)
        window: list[float] = []
        self.windows.append(window)
        while True:
            window.append(self.chunk())
            spent = perf_counter() - t0
            if spent >= budget:
                return spent

    def scales(self) -> list[float]:
        """Reference seconds per cell: the median chunk of the samples around it.

        Cell ``i`` ran between sample ``i`` and sample ``i + 1``; it is scaled
        by samples ``i - SCALE_REACH + 1`` to ``i + SCALE_REACH`` (those that
        exist).
        """
        return [
            statistics.median(
                t
                for window in self.windows[max(0, i - SCALE_REACH + 1) : i + SCALE_REACH + 1]
                for t in window
            )
            for i in range(len(self.windows) - 1)
        ]
