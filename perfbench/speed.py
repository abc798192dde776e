"""Host-speed sampler: scales wall times to a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host, whose speed changes by
up to 2x within seconds as other tenants come and go.  A protocol run of a
few seconds averages over those changes, and the medians of 25 s runs moved
by 20-30% between runs of the same code.

While a workload runs, a SIGALRM timer interrupts its main thread every
INTERVAL_S and runs a fixed calibration kernel twice (interpreter loops
and numpy calls, ~0.3 ms each); the first pass warms the caches the
workload evicted and the second is timed.  This costs about 2% of the run.
The kernel is timed in thread CPU time, so waiting for the GIL or for a
core taken by the workload's own threads does not count, but a slow host
does.  A timed interval of the workload is then scaled by

    KERNEL_REF_S / harmonic mean kernel time around that interval

which is the time the interval would have taken at the speed where the
kernel takes KERNEL_REF_S (about its time inside the workloads on a
2-vCPU x86_64 VM, so scaled times stay near typical wall times there).
The code under test cannot change the kernel, so a slower or faster
program moves the scaled time as much as the wall time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

import numpy as np

INTERVAL_S = 0.04
KERNEL_REF_S = 400e-6
# a short interval (one set-up) is scaled by the samples of a window of at
# least this length around it
MIN_WINDOW_S = 0.5


class SpeedSampler:
    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.times: List[float] = []  # perf_counter at each sample's end
        self.kernel_s: List[float] = []
        self._x = np.linspace(-3.0, 3.0, 2048)
        self._buf = np.empty_like(self._x)
        self._m = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)
        self._mm = np.empty_like(self._m)
        self._v = np.linspace(0.0, 1.0, 16)
        self._w = np.zeros(16)
        self._previous = None

    def _kernel(self) -> float:
        # the mix of the workloads: interpreter loops, numpy calls on tiny
        # vectors (dispatch-bound, like Pegasos), and on arrays of a few
        # thousand values and small matrices (like the heads and convs)
        s = 0
        for i in range(1200):
            s += i * i
        v, w = self._v, self._w
        for _ in range(120):
            w *= 0.999
            w += v
            s += float(v @ w)
        for _ in range(12):
            np.exp(self._x, out=self._buf)
            s += float(np.dot(self._buf, self._x))
            np.matmul(self._m, self._m, out=self._mm)
            s += float(self._mm[0, 0])
        return s

    def _tick(self, signum, frame) -> None:
        self._kernel()
        t0 = time.thread_time()
        self._kernel()
        self.kernel_s.append(time.thread_time() - t0)
        self.times.append(time.perf_counter())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def kernel_mean(self, t0: float, t1: float) -> float:
        """Harmonic mean kernel time of the samples in [t0, t1], widened to
        MIN_WINDOW_S around its middle.  Without a sample there, one is
        taken now.  Samples are evenly spaced in time, so the harmonic mean
        is the kernel time at the interval's average speed."""
        pad = max(0.0, MIN_WINDOW_S - (t1 - t0)) / 2
        lo = bisect.bisect_left(self.times, t0 - pad)
        hi = bisect.bisect_right(self.times, t1 + pad)
        window = self.kernel_s[lo:hi]
        if not window:
            self._tick(None, None)
            window = self.kernel_s[-1:]
        return statistics.harmonic_mean(window)

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time t1 - t0 scaled to the reference speed."""
        return (t1 - t0) * KERNEL_REF_S / self.kernel_mean(t0, t1)
