"""Host-speed reference for runs on shared machines.

A small virtual machine shared with other tenants runs the same code 20-40%
slower in some minutes than in others, in spells that outlast a run.  A run
therefore times a fixed reference kernel between its timed stages, and
each timed span is divided by the kernel's slowdown against REFERENCE_MS
over that span.  The kernel is part of the benchmark, so a change to the
engine never changes it; it mixes the kinds of work that dominate the
engine: interpreted arithmetic, tuple-keyed dict reads and writes,
itertools enumeration, creating small numpy generators and arrays, and
scipy shortest paths on a small sparse graph.
README.md ("Noise on small machines") has the measurements behind it.
"""

from __future__ import annotations

import bisect
import itertools
import statistics
import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

# median kernel time on the 2-vCPU Xeon VM the benchmark was written on;
# it only sets the scale of the adjusted numbers
REFERENCE_MS = 10.0
INTERVAL_S = 0.25
REPEATS = 3

_N = 40
_KEYS = [(i, j) for i in range(_N) for j in range(_N)]
_RING = (list(range(_N)), [(i + 1) % _N for i in range(_N)], [1.0 + i % 3 for i in range(_N)])


def reference_kernel() -> float:
    total = 0.0
    for i in range(20_000):
        total += i * i
    dist = {k: k[0] * 0.5 + k[1] for k in _KEYS}
    for k in range(_N):
        for i in range(_N):
            dik = dist[(i, k)]
            for j in range(0, _N, 4):
                via = dik + dist[(k, j)]
                if via < dist[(i, j)]:
                    dist[(i, j)] = via
    for combo in itertools.product(range(6), repeat=4):
        total += sum(combo)
    for i in range(_N):
        total += float(np.random.default_rng([i, 7]).random())
        row = np.full(10, 0.1)
        total += float(row.sum() / row.max())
    rows, cols, lengths = _RING
    for source in range(0, _N, 4):
        graph = csr_matrix((lengths, (rows, cols)), shape=(_N, _N))
        total += float(dijkstra(graph, directed=False, indices=source).sum())
    return total


class HostSpeed:
    """Samples of the reference kernel, taken between a run's timed stages."""

    def __init__(self, clock=time.perf_counter):
        self.samples_ms: list[float] = []
        self.at: list[float] = []
        self._clock = clock

    def sample(self) -> None:
        times = []
        for _ in range(REPEATS):
            start = self._clock()
            reference_kernel()
            times.append(self._clock() - start)
        self.samples_ms.append(1e3 * statistics.median(times))
        self.at.append(self._clock())

    def sample_if_due(self) -> None:
        if not self.at or self._clock() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def _value_at(self, t: float) -> float:
        i = bisect.bisect_left(self.at, t)
        if i == 0:
            return self.samples_ms[0]
        if i == len(self.at):
            return self.samples_ms[-1]
        t0, t1 = self.at[i - 1], self.at[i]
        v0, v1 = self.samples_ms[i - 1], self.samples_ms[i]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def level_ms(self, start: float, end: float) -> float:
        """Mean kernel time over [start, end], with the samples joined by
        straight lines: a long stage with no sample inside it takes the
        samples at its two ends."""
        if end <= start:
            return self._value_at(start)
        lo, hi = bisect.bisect_right(self.at, start), bisect.bisect_left(self.at, end)
        points = [(start, self._value_at(start)),
                  *zip(self.at[lo:hi], self.samples_ms[lo:hi]),
                  (end, self._value_at(end))]
        area = sum((t1 - t0) * (v0 + v1) / 2 for (t0, v0), (t1, v1) in zip(points, points[1:]))
        return area / (end - start)

    def adjusted_s(self, span: tuple[float, float]) -> float:
        """Length of a timed span as it would read on the reference host."""
        start, end = span
        return (end - start) * REFERENCE_MS / self.level_ms(start, end)

    def factor(self) -> float:
        """The whole run's slowdown; over 1 when the host ran slower than
        the reference host."""
        return self.level_ms(self.at[0], self.at[-1]) / REFERENCE_MS
