"""Host-speed samples, to put times measured on a shared host on one scale.

The virtual machines this benchmark runs on change speed by up to ~1.8x,
in phases from under a second to minutes long (see NOTES.md), so two runs of
the same code can differ by more than any useful bound.  A fixed reference
computation, numpy array work plus a pure-Python loop and independent of
matball, is timed between the workload's passes.  A time measured at moment
``t`` is scaled by ``REF_S / speed(t)``, where ``speed(t)`` interpolates the
reference computation's own time at ``t``: the result is the time the work
would take on a host where the reference computation takes ``REF_S``.
"""

import bisect
import time

import numpy as np

# Nominal time of three reference computations; it sets the scale of every
# corrected time.  Samples took 0.04-0.09 s on the 2-vCPU machines the
# bounds were set on.
REF_S = 0.08
# A sample takes about SHARE of the time since the previous one.
SHARE = 0.05
MAX_REPS = 30


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._angles = rng.standard_normal((100_000, 3))
        self._reference()   # first calls run slower; not a sample
        self.t = []       # midpoints of the samples (perf_counter seconds)
        self.secs = []    # their durations

    def _reference(self) -> float:
        z = np.exp(1j * self._angles)
        det = z[:, 0] * z[:, 1] - z[:, 2] * z[:, 0].conj()
        total = float(np.abs(det).sum())
        acc = 0
        for i in range(60_000):
            acc += i * i
        return total + acc

    def sample(self) -> None:
        """Time the reference computation, repeated so that sampling takes
        about SHARE of the time since the last sample (a longer gap gets a
        longer, less noisy sample)."""
        t0 = time.perf_counter()
        reps = 3
        if self.t:
            gap = t0 - self.t[-1]
            reps = min(max(reps, round(SHARE * gap * 3 / self.secs[-1])),
                       MAX_REPS)
        for _ in range(reps):
            self._reference()
        t1 = time.perf_counter()
        self.t.append(0.5 * (t0 + t1))
        self.secs.append((t1 - t0) * 3 / reps)

    def speed(self, t: float) -> float:
        """The reference time at ``t``, interpolated between the samples
        either side of it (the nearest one outside their range)."""
        i = bisect.bisect_left(self.t, t)
        if i == 0:
            return self.secs[0]
        if i == len(self.t):
            return self.secs[-1]
        t0, t1 = self.t[i - 1], self.t[i]
        w = (t - t0) / (t1 - t0)
        return (1 - w) * self.secs[i - 1] + w * self.secs[i]

    def scale(self, t: float) -> float:
        """Factor that puts a time measured around ``t`` on the REF_S scale."""
        return REF_S / self.speed(t)
