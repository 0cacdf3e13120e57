"""The host's speed while the benchmark runs, from fixed probes.

On a shared 2-CPU VM the same code runs up to 1.8x slower or faster
within a minute, as other tenants load the host.  Ten runs of a
workload then spread by 10-40% (IQR over median) in wall time, however
long each run is.  The benchmark therefore times, between its
documents, fixed probes of its own, one for each kind of work midconv
does: an interpreter loop and a small dense eigenvalue problem.  Pass
by pass, the probes' total tracks a workload's time (correlation
0.93-0.95 over 16-26 passes per workload); over ten runs, dividing by
it cut the spread of the timings to 2-12%.

The timings are reported at reference speed: raw seconds times
``REFERENCE_S`` over the probes' total measured around them.  The
probes are the benchmark's own code, so a change to midconv moves the
reported times as it moves the raw ones; the raw figures are printed
beside them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Sum of the probes' medians on the 2-CPU reference VM (Intel Xeon,
# Python 3.11, numpy with one BLAS thread) in its faster state.  Any
# constant would do: it only sets the scale of the reported times.
REFERENCE_S = 0.3e-3
# One probe at most this often while documents run: about 2% of the time.
EVERY_S = 0.03

_MATRIX = np.random.default_rng(7).standard_normal((24, 24))


def _interpreter():
    acc: dict = {}
    for i in range(1500):
        acc[i % 61] = acc.get(i % 61, 0) + i * i % 7


def _eigenvalues():
    np.linalg.eigvals(_MATRIX)


PROBES = (_interpreter, _eigenvalues)


class Speed:
    """Probe samples over one stretch of a run."""

    def __init__(self):
        self.samples: list[list[float]] = [[] for _ in PROBES]
        self.turn = 0
        self.last = time.perf_counter()

    def _probe(self, k: int) -> None:
        """Time the second of two runs back to back, so that the probe
        finds its code and data in cache whatever midconv did before."""
        PROBES[k]()
        t0 = time.perf_counter()
        PROBES[k]()
        self.samples[k].append(time.perf_counter() - t0)

    def tick(self) -> None:
        """Run the next probe if ``EVERY_S`` has passed since the last."""
        if time.perf_counter() - self.last >= EVERY_S:
            self._probe(self.turn % len(PROBES))
            self.turn += 1
            self.last = time.perf_counter()

    def sample(self, count: int) -> None:
        """Run every probe ``count`` times."""
        for _ in range(count):
            for k in range(len(PROBES)):
                self._probe(k)
        self.last = time.perf_counter()

    def slowdown(self) -> float:
        """How much slower than the reference the host ran: divide a
        time by it to get the time at reference speed."""
        return sum(statistics.median(s) for s in self.samples) / REFERENCE_S
