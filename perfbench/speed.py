"""The machine's speed, from a fixed reference kernel, for scaling times.

On a shared host the CPU's throughput swings by up to 1.5x in spells that
last from seconds to several minutes, in CPU time as well as wall time, with
no steal time recorded.  Two runs of the same code minutes apart then differ
by more than any bound worth keeping, however long each run is.  So a run
times a fixed kernel, which never changes with the program, every
``INTERVAL_S`` seconds, and scales each of its own timings by
``REFERENCE_MS`` over the kernel's median time near that timing.  A scaled
time reads as milliseconds on a machine where the kernel takes
``REFERENCE_MS``; the raw wall times are kept beside them in the results.

Kinds of work do not speed up and slow down alike, so each workload picks
the kernel that does the kind of work holding its time: ``windows`` for the
graph front end, ``cholesky`` for the CRF.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

# about each kernel's median time on the 2-core Xeon VM the benchmark was
# written on, which ran it in 8 to 14 ms
REFERENCE_MS = 12.0
INTERVAL_S = 0.5
NEAREST = 5  # kernel samples whose median scales one timing

_rng = np.random.default_rng(0)
_IMAGE = _rng.random((64, 64, 3))
_M = _rng.random((256, 256))
_SPD = _M @ _M.T + 256.0 * np.eye(256)
_RHS = _rng.random((256, 64))


def windows() -> float:
    """Python loops over small numpy windows, as in superpixel segmentation."""
    best = np.full((64, 64), np.inf)
    for i in range(650):
        r, c = (7 * i) % 48, (11 * i) % 48
        dist = ((_IMAGE[r : r + 16, c : c + 16] - _IMAGE[r, c]) ** 2).sum(axis=2)
        closer = dist < best[r : r + 16, c : c + 16]
        best[r : r + 16, c : c + 16][closer] = dist[closer]
    return float(best[np.isfinite(best)].sum())


def cholesky() -> float:
    """Dense Cholesky factorizations and solves, as in the CRF."""
    total = 0.0
    for _ in range(8):
        chol = scipy.linalg.cholesky(_SPD, lower=True, check_finite=False)
        total += float(scipy.linalg.cho_solve((chol, True), _RHS, check_finite=False).sum())
    return total


class SpeedProbe:
    """Kernel timings taken during a run, each as (midpoint, seconds)."""

    def __init__(self, work, clock=time.perf_counter):
        self.clock = clock
        self.work = work
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        start = self.clock()
        self.work()
        end = self.clock()
        self.samples.append(((start + end) / 2, end - start))

    def sample_if_due(self) -> None:
        """Sample unless the last sample is less than INTERVAL_S old."""
        if not self.samples or self.clock() - self.samples[-1][0] >= INTERVAL_S:
            self.sample()

    def scale(self, at: float) -> float:
        """Factor turning a wall time taken at ``at`` into reference time."""
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - at))[:NEAREST]
        return REFERENCE_MS / 1e3 / statistics.median(seconds for _, seconds in nearest)

    def kernel_ms(self) -> float:
        return 1e3 * statistics.median(seconds for _, seconds in self.samples)
