"""Machine speed gauge: a fixed stdlib kernel timed between ops.

On a shared machine the same code can run 75% slower for tens of seconds
at a time, and even the best of many timings moves with it.  The best time
of a fixed reference kernel, read every fraction of a second, moves the
same way: on a 2-core virtual machine the ratio of an op's best time to the
kernel's best time stayed within about 4% while both drifted by up to 75%.

Timings are therefore reported at reference speed, the speed at which the
kernel's best time is REF_KERNEL_S (about its best time on the machine the
benchmark was tuned on, so the values there read close to wall time):

    t_reported = t_measured * REF_KERNEL_S / kernel_best_nearby

where kernel_best_nearby is the faster of the readings just before and
just after the timing.

The kernel uses no bracketdec code, so a change to the package moves the
reported times exactly as it moves the wall times.
"""

from __future__ import annotations

import time
from fractions import Fraction

REF_KERNEL_S = 0.00030
REPS = 25


def kernel():
    """Exact-arithmetic busy work in the style of the package: Fractions, dicts, sorting."""
    acc = {}
    f = Fraction(1, 3)
    for i in range(60):
        key = (i % 7, i % 5, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + f * (i % 11)
        f = f * Fraction(3, 2) if i % 2 else f / 3
    return sorted(acc.items())


class Gauge:
    """Successive readings of the kernel's best time, in seconds."""

    def __init__(self):
        self.readings: list = []

    def read(self) -> float:
        best = float("inf")
        for _ in range(REPS):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        self.readings.append(best)
        return best

    def factor(self, reading: int) -> float:
        """Scale for timings taken between readings `reading` and `reading + 1`.

        Of the two readings it uses the faster one, so that a change of
        speed between them can only make the scaled times longer, and a
        best-of-several time is never taken from such a mismatch.
        """
        return REF_KERNEL_S / min(self.readings[reading:reading + 2])
