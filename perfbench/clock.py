"""Host-speed calibration for timings on a shared machine.

On a box whose CPUs are shared with other tenants, the speed of the same
code drifts by 20-50% over seconds as neighbours come and go, and whole
20-second runs land in fast or slow periods.  A fixed probe that shares no
code with simulbench is timed next to the measured work (between ops, and
inside long generation ops at regular source pulls).  Each measured
interval is multiplied by ``NOMINAL_S / median(probe times within WINDOW_S
of it)``: the time it would have taken at the speed where one probe takes
``NOMINAL_S``.  A change to simulbench does not touch the probe, so it
moves calibrated times exactly as much as raw ones.
"""

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 0.001
WINDOW_S = 0.2
PROBES_PER_GROUP = 3


class Probe:
    """About 1 ms of fixed work shaped like simulbench's: a Python loop,
    small-vector numpy calls like the row engine's, and one batched product
    like training's."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(64).astype(np.float32)
        self.w = rng.standard_normal((64, 64)).astype(np.float32)
        self.keys = rng.standard_normal((24, 4)).astype(np.float32)
        self.batch = rng.standard_normal((100, 64)).astype(np.float32)
        self.w1 = rng.standard_normal((64, 256)).astype(np.float32)

    def seconds(self):
        start = time.perf_counter()
        acc = 0.0
        for _ in range(40):
            h = self.x @ self.w
            scores = self.keys @ h[:4]
            acc += float(np.exp(scores - scores.max()).sum())
        for _ in range(4):
            y = self.batch @ self.w1
            np.tanh(y, out=y)
        total = 0
        for i in range(3000):
            total += i * i
        return time.perf_counter() - start


class HostClock:
    """Log of (time, probe seconds) and the scale factor for an interval."""

    def __init__(self):
        self.probe = Probe()
        self.times = []
        self.values = []
        self.spent = 0.0  # wall seconds spent probing so far

    def sample(self):
        """Run one probe group; returns the wall time it took, which the
        caller leaves out of whatever it is timing."""
        start = time.perf_counter()
        for _ in range(PROBES_PER_GROUP):
            value = self.probe.seconds()
            self.times.append(time.perf_counter())
            self.values.append(value)
        spent = time.perf_counter() - start
        self.spent += spent
        return spent

    def scale(self, start, end):
        """NOMINAL_S over the median probe time within WINDOW_S of
        [start, end]; the nearest probes when none fall in the window."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < PROBES_PER_GROUP:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, mid - PROBES_PER_GROUP)
            hi = min(len(self.times), mid + PROBES_PER_GROUP)
        return NOMINAL_S / statistics.median(self.values[lo:hi])
