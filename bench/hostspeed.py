"""Host-speed calibration of measured times.

The benchmark runs on a few cores of a shared host whose speed drifts:
a fixed job repeated for minutes ran up to 1.6x slower for 20 to 60 s
at a time, and flipped between a fast and a slow state within tenths of
a second, in wall and CPU time alike, so neither clock escapes it.

So every measured time is scaled by ``REFERENCE_S / reference time``
around it, where the reference time is that of a fixed job timed
throughout the run.  Times are then seconds at the host speed at which
one reference job takes ``REFERENCE_S``, the fast state of the 2-core
machine the benchmark was built on.  The time spent in reference jobs
is subtracted from every timed span, and the job does not touch the
program, so a change to the program moves only the numerator.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

# Seconds one reference job takes at the nominal host speed.
REFERENCE_S = 0.0025

# A reference job runs every this many seconds while a run measures,
# also in the middle of a long op.
INTERVAL_S = 0.1

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((24, 24)) + 24.0 * np.eye(24)
_VECTOR = _RNG.standard_normal(24)
_SIGNAL = _RNG.standard_normal(128)


def reference_job() -> float:
    """A fixed mix like the program's: scalar float recursion, then small numpy calls."""
    acc = 0.0
    table = {}
    for i in range(4000):
        x = 1e-3 * i
        acc = 0.5 * acc + math.sqrt((1.0 + 0.1 * x * x) * math.tanh(x + 1.0) / (x + 1.0))
        table[i & 63] = acc
    for _ in range(30):
        spectrum = np.fft.rfft(_SIGNAL)
        acc += float(np.max(np.abs(np.fft.irfft(spectrum, 128))))
        acc += float(np.linalg.solve(_MATRIX, _VECTOR)[0])
    return acc


class HostClock:
    """Reference-job samples of one run, and the speed factor of a span.

    While started, a timer signal runs a reference job every
    ``INTERVAL_S``; the handler runs in the main thread between two
    bytecodes of whatever is being measured.  ``now`` and ``cpu_now``
    are the wall and CPU clocks minus the time spent in reference jobs,
    so a span timed with them excludes the sampling.  Sample times are
    on the plain ``time.perf_counter`` scale.
    """

    def __init__(self) -> None:
        self.mids: list[float] = []
        self.times: list[float] = []
        self.sampled_s = 0.0
        self.sampled_cpu_s = 0.0
        self._previous_handler = None
        self._running = False

    def sample(self, *_signal) -> None:
        start, cpu = time.perf_counter(), time.process_time()
        reference_job()
        end = time.perf_counter()
        self.sampled_cpu_s += time.process_time() - cpu
        self.sampled_s += end - start
        self.mids.append(0.5 * (start + end))
        self.times.append(end - start)

    def start(self) -> None:
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer, once, and take a last sample."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._running = False
        self.sample()

    def now(self) -> float:
        return time.perf_counter() - self.sampled_s

    def cpu_now(self) -> float:
        return time.process_time() - self.sampled_cpu_s

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean reference time around ``[start, end]``.

        The mean is over the samples within the span and the last one
        before and first one after it; the caller takes those two right
        at the span's edges.  The host's speed changes within tenths of
        a second, so nearer samples track it better.  A mean, not a
        median: a span's time integrates the speed over the span, and
        the host switches between a fast and a slow speed.
        ``start`` and ``end`` are on the ``time.perf_counter`` scale.
        """
        lo = max(bisect.bisect_left(self.mids, start) - 1, 0)
        hi = bisect.bisect_right(self.mids, end) + 1
        return REFERENCE_S / statistics.fmean(self.times[lo:hi])

    def speed(self) -> float:
        """``REFERENCE_S`` over the mean of all reference times so far."""
        return REFERENCE_S / statistics.fmean(self.times)
