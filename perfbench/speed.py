"""Machine-speed reference, for calibrated timings.

The host this benchmark was written on is shared: the same work runs up
to 1.6 times faster or slower for stretches of seconds to minutes, in CPU
time as much as in wall time, so the raw times of two runs differ by more
than any useful bound.  A fixed pure-Python kernel, timed between items,
goes through the same phases.  Dividing a raw time by the kernel's
current slowdown (its time over ``NOMINAL_S``) gives the time the work
would take at the nominal speed; on this host, at its usual speed, the
two are close.

The kernel is frozen.  Changing it, or ``NOMINAL_S``, changes every
calibrated figure, so that is a change to the benchmark that has to be
measured again from scratch.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.011  # the kernel's usual time on the host the benchmark was written on
INTERVAL_S = 0.25  # at most one probe per this much workload time

_rng = random.Random(7)
_INTS = [[_rng.randint(-3, 3) for _ in range(24)] for _ in range(12)]
_FRACS = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(9)] for _ in range(9)]


def reference_work():
    """Integer row reduction, Fraction elimination and tuple/dict churn:
    the kinds of work ``trisect`` does, in a fixed amount."""
    m = [row[:] for row in _INTS]
    r = 0
    for c in range(24):
        piv = next((i for i in range(r, 12) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(12):
            if i != r and m[i][c]:
                a, b = m[r][c], m[i][c]
                m[i] = [a * x - b * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == 12:
            break
    q = [row[:] for row in _FRACS]
    for t in range(9):
        p = next((i for i in range(t, 9) if q[i][t]), None)
        if p is None:
            continue
        q[t], q[p] = q[p], q[t]
        for i in range(t + 1, 9):
            f = q[i][t] / q[t][t]
            q[i] = [x - f * y for x, y in zip(q[i], q[t])]
    seen = {}
    for i in range(3000):
        w = tuple((i * k) % 11 - 5 for k in range(i % 13))
        seen[w] = seen.get(w, 0) + 1
    return r, len(seen)


class SpeedProbe:
    """Times :func:`reference_work` now and then; keeps every sample."""

    def __init__(self):
        self.samples: list[float] = []
        self.cost = 0.0  # seconds spent probing, to take out of raw times
        self._last = float("-inf")

    def take(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            reference_work()
            t1 = time.perf_counter()
            self.samples.append(t1 - t0)
            self.cost += t1 - t0
            self._last = t1

    def maybe(self) -> None:
        """Probe if ``INTERVAL_S`` has gone by since the last probe."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.take()

    def mark(self) -> int:
        return len(self.samples)

    def slowdown(self, since: int) -> float:
        """Median kernel time since sample ``since``, over ``NOMINAL_S``."""
        return statistics.median(self.samples[since:]) / NOMINAL_S
