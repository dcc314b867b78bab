"""Host-speed calibration: a fixed kernel timed between the measured ops.

A shared 2-vCPU host moves raw wall time by 20-60% between runs, so the
benchmark times short *units* of one fixed kernel right after every op it
times (one unit per walker-step the op advanced) and reports each op as::

    raw * reference / median(units run after the ops within LOCAL_RADIUS of it)

The kernel is a Gaussian over a 70x70 grid (the shape of work a BMA
posterior does) followed by a short pure-Python dict loop.  It imports
nothing from ``repro``: a change to the program cannot move the
yardstick.  The kernel was chosen by measurement.  During a noisy hour
on the baseline host, each workload's raw pass time followed this unit's
time with an elasticity of 0.92-1.17 (correlation 0.94-0.98).  A kernel
of 300-element array arithmetic plus a longer dict loop slowed far more
than the program did, with an elasticity of 0.50-0.66, so it
over-corrected by up to 19%.  The ops' neighbourhood tracks the host
better than a median over a whole pass, and calibration blocks run
between passes do not track it at all.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median unit time per workload on a quiet baseline host (2-vCPU shared
#: VM, Python 3.11, numpy 2.4), so that normalized timings read about as
#: that host's raw milliseconds.  The values were measured during a slow
#: hour and scaled by the raw throughput ratio to quiet hours.  A unit
#: right after a walker step finds colder caches than one after another
#: unit, so a workload whose ops are followed by many units (a fleet
#: tick) reads faster units.
CAL_REF_MS = {
    "indoor-walker": 0.053,
    "outdoor-walker": 0.060,
    "fleet-population": 0.039,
    "fleet-chaos": 0.044,
}

#: Each op is normalized by the units that followed the ops within this
#: many ops of it.
LOCAL_RADIUS = 10

_GRID_X, _GRID_Y = np.meshgrid(np.linspace(0.0, 70.0, 70), np.linspace(0.0, 70.0, 70))


def calibration_unit() -> float:
    """Run one fixed unit of work (about 0.04 ms on a quiet baseline host)."""
    p = np.exp(-((_GRID_X - 30.0) ** 2 + (_GRID_Y - 35.0) ** 2) / 32.0)
    p /= p.sum()
    peak = float(p.max()) + float(np.argmax(p))
    buckets: dict[int, float] = {}
    for i in range(40):
        buckets[i % 7] = buckets.get(i % 7, 0.0) + peak * 1e-3 + i
    return peak + sum(buckets.values())


class Calibrator:
    """The unit timings of one window, grouped by the op they followed.

    ``reference_ms`` is the median unit time the baseline host reads in
    the same workload.
    """

    def __init__(self, reference_ms: float, clock=time.perf_counter_ns) -> None:
        self.reference_ms = reference_ms
        self._clock = clock
        self.unit_ns: list[int] = []
        #: ``len(unit_ns)`` after each :meth:`run` call (one call per op).
        self._group_ends: list[int] = []

    def run(self, units: int) -> None:
        """Time ``units`` calibration units as one group."""
        clock = self._clock
        for _ in range(units):
            start = clock()
            calibration_unit()
            self.unit_ns.append(clock() - start)
        self._group_ends.append(len(self.unit_ns))

    def median_ms(self) -> float:
        """Median unit time over the whole window, in ms.

        Raises:
            ValueError: if no unit ran in the window.
        """
        if not self.unit_ns:
            raise ValueError("calibration window holds no units")
        return statistics.median(self.unit_ns) / 1e6

    def factor(self) -> float:
        """One multiplier for every raw time of this window."""
        return self.reference_ms / self.median_ms()

    def local_factors(self, radius: int = LOCAL_RADIUS) -> list[float]:
        """One multiplier per group, from the groups within ``radius`` of it."""
        ends = self._group_ends
        starts = [0, *ends[:-1]]
        last = len(ends) - 1
        return [
            self.reference_ms
            / (
                statistics.median(
                    self.unit_ns[starts[max(0, i - radius)] : ends[min(last, i + radius)]]
                )
                / 1e6
            )
            for i in range(len(ends))
        ]
