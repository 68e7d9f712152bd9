"""Machine-speed probe, so timings from a shared, noisy host compare.

On a shared 2-core host, wall times drifted by up to 40% over minutes as
other tenants got busy, and everything slowed together: a fixed pure-Python
loop, interpreter start-up and every workload.  The probe times
a fixed unit of interpreter work that uses no aimosc code, so a change to
the package cannot move it.  Dividing a measured time by the probe's
slowdown factor gives the time the same work takes on the idle reference
host; on that host the factor is close to 1.
"""
from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# One unit on the idle reference host (2 cores, Python 3.11): the fastest
# of 1500 units, rounded.
UNIT_REF_S = 0.0006


def _unit() -> int:
    """Small-int, big-int, float and Fraction arithmetic, the mix the
    package itself spends its time on."""
    n = 7 ** 40
    acc = 0
    x = 0.5
    for i in range(1, 2000):
        acc = (acc + n * i) % 1000003
        x = x * 1.000001 + i
        if i % 20 == 0:
            acc += (Fraction(i, 7) + Fraction(3, i + 1)).numerator
    return acc


class Probe:
    """Accumulates probe time; `factor` is the slowdown against the
    reference host over all units run so far."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.units = 0

    def run(self, units: int) -> None:
        t0 = perf_counter()
        for _ in range(units):
            _unit()
        self.seconds += perf_counter() - t0
        self.units += units

    @property
    def factor(self) -> float:
        return self.seconds / (self.units * UNIT_REF_S)
