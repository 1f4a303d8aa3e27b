"""Machine-speed normalization of the benchmark's timings.

The benchmark shares its host with other load that changes how fast the same
code runs, by up to 2x for seconds at a time and by 30% for minutes.  A fixed
kernel shaped like `dne`'s hot path is timed between implicit Euler steps, at
most every INTERVAL_S:

- 1D: gather, element mean, einsum gradient, power and reduction on 100
  elements, then twice a scipy COO -> CSR assembly, interior submatrix and
  `spsolve` on 99 unknowns;
- 2D: the same assembly and `spsolve` for P1 triangles on a 24 x 24 grid
  (529 unknowns), where the sparse solve sets the pace.

A timing is reported in reference seconds:

    reported = measured * REF_S / (kernel time measured meanwhile)

i.e. what it would have taken at the speed where the kernel takes REF_S.
Whole-operation times (wall, set-up) use the mean kernel time of the
operation.  A step uses the NEIGHBOURS samples nearest to it, so a burst of
load is corrected where it happened: about 0.5 s around a 1D step, where
samples come every 50 ms, and about 2 s around a 2D step, sampled once per
step, enough to average out the noise of single samples.  The kernel never
calls `dne`, so no change to the program moves it; its own time is excluded
from the wall time.  Raw timings are kept in the result file next to the
normalized ones.

Six runs of one `verify-1d` seed whose raw wall times spread by 22% (quartile
distance over the median) spread by 2.9% once normalized; six of `evolve-2d`,
5.0% raw, by 0.6%.
"""

from __future__ import annotations

from bisect import bisect_left
from time import perf_counter

# kernel time on a quiet 2-core x86-64 VM, numpy 2.4 / scipy 1.17
REF_S = {1: 1.2e-3, 2: 2.4e-3}
INTERVAL_S = 0.05   # least wall time between two samples during a run
NEIGHBOURS = 9      # samples that normalize one step
GRID_2D = 24


class SpeedProbe:
    def __init__(self, dimension: int):
        import numpy as np
        import scipy.sparse as sparse
        import scipy.sparse.linalg as sparse_linalg
        self._np, self._sparse, self._spsolve = np, sparse, sparse_linalg.spsolve
        self.ref_s = REF_S[dimension]
        rng = np.random.default_rng(0)
        if dimension == 1:
            self._x = rng.random(101)
            self._grads = rng.random((100, 2, 1))
            elements = np.stack([np.arange(100), np.arange(1, 101)], axis=1)
            local = np.array([[2.01, -0.99], [-0.99, 2.01]])
            interior = np.arange(1, 100)
        else:
            n = GRID_2D
            ij = np.arange(n * n).reshape(n, n) + np.arange(n)[:, None]
            v00, v10, v01, v11 = ij, ij + n + 1, ij + 1, ij + n + 2
            # right angle at the middle vertex of both triangles of a cell
            elements = np.concatenate([np.stack([v00, v10, v11], -1).reshape(-1, 3),
                                       np.stack([v00, v01, v11], -1).reshape(-1, 3)])
            local = 0.5 * np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0],
                                    [0.0, -1.0, 1.0]])
            grid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
            interior = grid[1:-1, 1:-1].ravel()
        nloc = elements.shape[1]
        self._dimension = dimension
        self._solves = 2 if dimension == 1 else 1
        self._elements = elements
        self._rows = np.repeat(elements, nloc, axis=1).ravel()
        self._cols = np.tile(elements, (1, nloc)).ravel()
        self._entries = np.tile(local, (elements.shape[0], 1, 1)).ravel()
        self._size = int(elements.max()) + 1
        self._interior = interior
        self._rhs = rng.random(interior.size)
        self.times: list[float] = []
        self.samples: list[float] = []
        self._last = float("-inf")

    def _solve(self) -> None:
        mat = self._sparse.coo_matrix((self._entries, (self._rows, self._cols)),
                                      shape=(self._size, self._size)).tocsr()
        self._spsolve(mat[self._interior][:, self._interior].tocsc(), self._rhs)

    def sample(self) -> None:
        np = self._np
        t = perf_counter()
        if self._dimension == 1:
            for _ in range(20):
                v = self._x[self._elements]
                mean = v.mean(axis=1)
                grad = np.einsum("el,eld->ed", v, self._grads)
                float(np.sum(np.maximum(mean, 0.0) ** 2.5) + np.sum(grad ** 2))
        for _ in range(self._solves):
            self._solve()
        self.times.append(t)
        self.samples.append(perf_counter() - t)
        self._last = perf_counter()

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def spent(self) -> float:
        return sum(self.samples)

    def factor(self) -> float:
        """REF_S over the mean kernel time: multiply a run's timing by it."""
        return self.ref_s * len(self.samples) / sum(self.samples)

    def local_factor(self, t: float) -> float:
        """The same over the NEIGHBOURS samples nearest to time t."""
        hi = min(len(self.samples), max(bisect_left(self.times, t) + NEIGHBOURS // 2,
                                        NEIGHBOURS))
        near = self.samples[max(0, hi - NEIGHBOURS):hi]
        return self.ref_s * len(near) / sum(near)
