"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one core can move by 10-20 % over
seconds as other tenants load the same hardware (measured on a 2-vCPU
Intel Xeon VM), and CPU time does not hide that. Each run therefore interleaves a fixed
piece of reference work with its ops, and scales every time it reports
by ``REFERENCE_NS / mean(reference work time)``. The reported times read
as milliseconds on a core where the reference work takes exactly
``REFERENCE_NS``; raw CPU and wall times are reported beside them.

The reference work mirrors the shape of the library's hot loop (a
complex Dirichlet sum) but is written here, so it never changes when
the library does. Its mean, not its median, is used: the slow stretches
inflate a minority of samples, and only the mean follows them.
"""

from __future__ import annotations

import cmath
import math
import resource
import time

# The reference work's mean CPU time under CPython 3.11 on one vCPU of a
# 2-vCPU Intel Xeon VM; only the scale of the reported times depends on it.
REFERENCE_NS = 135_000
INTERVAL_NS = 10_000_000  # wall time between two pieces of reference work during a run


def cpu_ns() -> int:
    """CPU time of this process (all its threads) and its waited-for children.

    Work a library moves to another thread or to a subprocess it waits
    for is counted; time spent blocked is not (see ``cpu_share`` in the
    client).
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + round((children.ru_utime + children.ru_stime) * 1e9)


def reference_work_ns() -> int:
    """Run the reference work once; return its CPU time."""
    c0 = time.process_time_ns()
    s = complex(0.5, 123.456)
    total = 0j
    for n in range(2, 300):
        total += cmath.exp(-s * math.log(n))
    c1 = time.process_time_ns()
    if not cmath.isfinite(total):
        raise ArithmeticError("reference work overflowed")
    return c1 - c0


class Calibrator:
    """Runs the reference work every ``INTERVAL_NS`` of wall time."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self._due = 0

    def tick(self, now_ns: int) -> None:
        if now_ns >= self._due:
            self.samples.append(reference_work_ns())
            self._due = now_ns + INTERVAL_NS

    def factor(self) -> float:
        """Multiply a measured time by this to get reference-speed time."""
        return REFERENCE_NS * len(self.samples) / sum(self.samples)
