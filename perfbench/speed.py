"""Machine-speed probe, and times at a reference speed.

On the shared 2-core machine the benchmark was built on, identical
pure-Python work ran at two speeds about 1.8x apart, with the share of slow
time drifting over seconds to minutes (other tenants).  The benchmark runs a
fixed probe between tasks and reports the gated times at a reference speed:
raw seconds x REF_PROBE_S / the probe time measured around them.  Most of a
change of machine phase cancels, while a change to conjlab moves these times
as it moves the raw ones (a known slowdown, measured both ways over ten
alternating pairs: design.json, reference_speed.validation).  The probe
shares no code with conjlab: integer row reduction mod p, Fraction sums, dict
and set updates, much like conjlab's own inner loops.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REF_PROBE_S = 0.0037  # a typical probe time on the baseline machine
PROBE_EVERY_S = 0.5   # at most one probe per half second of tasks (about 3% extra)


def _probe_work() -> int:
    p, n = 10007, 16
    rows = [[(i * 31 + j * 17 + 3) % p for j in range(n)] for i in range(n)]
    for c in range(n):
        inv = pow(rows[c][c] or 1, -1, p)
        for i in range(c + 1, n):
            f = rows[i][c] * inv % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[c])]
    q = Fraction(0)
    for k in range(1, 300):
        q += Fraction(k, k * k + 1)
    seen, counts = set(), {}
    for k in range(4000):
        key = (k % 97, k % 13)
        seen.add(key)
        counts[key[1]] = counts.get(key[1], 0) + 1
    return len(seen) + rows[-1][-1] + q.numerator % 7


def probe() -> float:
    """Seconds for one probe: the median of three timings of a fixed workload."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        _probe_work()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Probes:
    """Probe samples taken between tasks, to put each task at reference speed."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, probe seconds)

    def take(self) -> None:
        self.samples.append((time.perf_counter(), probe()))

    def take_if_due(self) -> None:
        if time.perf_counter() - self.samples[-1][0] >= PROBE_EVERY_S:
            self.take()

    def factor(self, i: int) -> float:
        """REF / speed for a task run between samples i and i + 1."""
        return REF_PROBE_S / ((self.samples[i][1] + self.samples[i + 1][1]) / 2)
