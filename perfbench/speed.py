"""Machine-speed probe: a fixed calibration kernel timed while the workload runs.

On a shared host the same work can take twice as long from one minute to the
next, because other tenants load the cores. To keep the figures comparable
between runs, the benchmark times a small kernel that does not touch bernfit
every ``INTERVAL_S`` of the timed phase, from a SIGALRM handler, and rescales
each op latency by

    factor = REF_KERNEL_S / mean time of the kernel samples taken during the
             op or within ``MARGIN_S`` of it

so that a time reads as the time the same work would take on the reference
machine when the kernel runs at ``REF_KERNEL_S``. A program change moves the
rescaled times as it moves the raw ones, since the kernel does not depend on
the program. The time spent in the handler is taken out of every op latency.

The kernel is built like bernfit's hot loops: many calls into numpy and scipy
on small arrays (least squares, triangular solves, small products), where the
time goes to call dispatch and argument checks as much as to arithmetic. On
the reference machine its mean time per pass followed the mc-paper pass time
with a correlation of 0.88 over 41 passes, against 0.57 for a memory-bound
kernel. Slow spells often last less than a second, so a factor for the whole
run would rescale the median op by the run's mean slowdown, which the median
op did not see; rescaling op by op with samples within 0.3 s kept the spread
of pass time, median and tail over five runs at 5.4%, 3.5% and 5.9%, against
7.7%, 3.2% and 12.2% with one factor per run.

Use ``start``/``stop`` around the timed phase and around each set-up probe,
or ``sample`` for explicit samples.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
import scipy.linalg

# mean kernel time on the reference machine (2-vCPU Intel Xeon VM) in a quiet spell
REF_KERNEL_S = 0.0025
INTERVAL_S = 0.1
MARGIN_S = 0.3

_RNG = np.random.default_rng(12345)
_A = _RNG.standard_normal((30, 8))
_B = _RNG.standard_normal(30)
_R = np.triu(_RNG.standard_normal((8, 8))) + 8.0 * np.eye(8)
_M = _RNG.standard_normal((100, 12))


def kernel() -> float:
    """The calibration work: fixed, deterministic, independent of bernfit."""
    total = 0.0
    for _ in range(30):
        x = np.linalg.lstsq(_A, _B, rcond=None)[0]
        y = scipy.linalg.solve_triangular(_R, x)
        total += float(np.sum(_A @ x - _B)) + float(np.max(np.abs(y)))
        total += float((_M.T @ _M)[0, 0])
    return total


class SpeedProbe:
    """Kernel samples of one run, and the handler time to take out of latencies."""

    def __init__(self) -> None:
        self.samples: list = []
        self.times: list = []
        self.busy_s = 0.0
        self._previous = None

    def _sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        d = time.perf_counter() - t0
        self.samples.append(d)
        self.times.append(t0)
        self.busy_s += d

    def _handler(self, signum, frame) -> None:  # noqa: ARG002 - signal handler signature
        self._sample()

    def sample(self, count: int) -> None:
        """Take ``count`` samples now (outside a timed span)."""
        for _ in range(count):
            self._sample()

    def start(self) -> None:
        """Take one sample (it warms the kernel's code paths up), then arm the timer."""
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def kernel_s(self) -> float:
        """Mean kernel time of all samples."""
        return statistics.fmean(self.samples)

    def factor(self) -> float:
        """Rescaling of times measured anywhere in the run to the reference machine's speed."""
        return REF_KERNEL_S / self.kernel_s()

    def local_factor(self, start: float, end: float) -> float:
        """Rescaling for a span, from the samples within ``MARGIN_S`` of it."""
        lo = bisect.bisect_left(self.times, start - MARGIN_S)
        hi = bisect.bisect_right(self.times, end + MARGIN_S)
        near = self.samples[lo:hi] or self.samples
        return REF_KERNEL_S / statistics.fmean(near)
