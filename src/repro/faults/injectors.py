"""Fault injectors: the runtime that makes a :class:`FaultPlan` happen.

Two injection surfaces, matching the two ways a real deployment fails:

* :class:`FaultyScheme` wraps a registered scheme and misbehaves on the
  plan's schedule — raising, returning ``None``, or emitting
  NaN/garbage outputs.  The wrapper honors the black-box contract
  (§III-A): the inner scheme's code and state are untouched, and on
  steps where no fault fires the call passes straight through.
* :func:`corrupt_snapshots` rewrites a recorded sensor trace with
  stale-GPS, radio-blackout, and IMU-dropout windows — the degraded
  low-end-device and incomplete-measurement regimes of the related work
  (arXiv:2106.13663, arXiv:2105.02671).

Both surfaces are deterministic given the plan (see
:mod:`repro.faults.plan`), so chaos walks replay bit-for-bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.faults.plan import FaultPlan, SchemeFault, SensorFault
from repro.geometry import Point
from repro.obs.telemetry import NOOP_EMITTER, EventSinkLike
from repro.schemes.base import LocalizationScheme, Scheme, SchemeOutput
from repro.sensors import SensorSnapshot
from repro.sensors.gps import GpsStatus

#: How far (meters) a ``garbage`` output lands from the origin — far
#: outside any built-in place, but finite, so it must be absorbed by the
#: confidence weighting rather than the non-finite rejection gate.
GARBAGE_RADIUS_M = 1e5


class InjectedFault(RuntimeError):
    """Raised by a ``crash`` fault inside a wrapped scheme."""


class FaultyScheme(LocalizationScheme):
    """A scheme wrapper that fails on the fault plan's schedule.

    The wrapper evaluates its faults in plan order at every call; the
    first fault that fires decides the step's outcome.
    """

    def __init__(
        self,
        inner: Scheme,
        plan: FaultPlan,
        faults: tuple[tuple[int, SchemeFault], ...],
        telemetry: EventSinkLike = NOOP_EMITTER,
    ) -> None:
        self.inner = inner
        self.name = inner.name
        self.plan = plan
        self.faults = faults
        #: Sink for ``fault/inject`` events (every fired fault) so a
        #: chaos run is replayable from the event log.
        self.telemetry = telemetry
        #: How many calls a fault decided (for assertions and reports).
        self.n_injected = 0

    def estimate(self, snapshot: SensorSnapshot) -> SchemeOutput | None:
        step = snapshot.index
        for index, fault in self.faults:
            if not self.plan.fires(index, fault, step):
                continue
            if self.telemetry.enabled:
                self.telemetry.emit(
                    "fault",
                    "inject",
                    scheme=self.name,
                    step=step,
                    fault_kind=fault.kind,
                )
            self.n_injected += 1
            if fault.kind == "crash":
                raise InjectedFault(
                    f"injected crash in {self.name!r} at step {step}"
                )
            if fault.kind == "drop":
                return None
            if fault.kind == "nan":
                return SchemeOutput(
                    position=Point(float("nan"), float("nan")),
                    spread=float("nan"),
                )
            # "garbage": a finite but absurd estimate, placed
            # deterministically from the plan's stateless step stream.
            rng = np.random.default_rng((self.plan.seed, index, step, 1))
            angle = float(rng.uniform(0.0, 2.0 * np.pi))
            return SchemeOutput(
                position=Point(
                    GARBAGE_RADIUS_M * float(np.cos(angle)),
                    GARBAGE_RADIUS_M * float(np.sin(angle)),
                ),
                spread=1.0,
            )
        return self.inner.estimate(snapshot)

    def reset(self) -> None:
        self.inner.reset()


# ---------------------------------------------------------------------------
# Sensor-trace corruption.
# ---------------------------------------------------------------------------


def _stale_gps(
    snapshots: list[SensorSnapshot], fault: SensorFault
) -> list[SensorSnapshot]:
    """Hold the last pre-window fix through the window (a frozen chip)."""
    held: GpsStatus | None = None
    out: list[SensorSnapshot] = []
    for step, snap in enumerate(snapshots):
        if not fault.in_window(step):
            if snap.gps.has_fix:
                held = snap.gps
            out.append(snap)
        elif held is not None:
            out.append(snap.with_gps(held))
        else:
            out.append(snap.with_gps(GpsStatus.jammed()))
    return out


def _radio_blackout(
    snapshots: list[SensorSnapshot], fault: SensorFault
) -> list[SensorSnapshot]:
    return [
        snap.with_radio_blackout() if fault.in_window(step) else snap
        for step, snap in enumerate(snapshots)
    ]


def _imu_dropout(
    snapshots: list[SensorSnapshot], fault: SensorFault
) -> list[SensorSnapshot]:
    return [
        snap.with_imu(snap.imu.without_steps()) if fault.in_window(step) else snap
        for step, snap in enumerate(snapshots)
    ]


_SENSOR_CORRUPTORS: dict[
    str, Callable[[list[SensorSnapshot], SensorFault], list[SensorSnapshot]]
] = {
    "stale_gps": _stale_gps,
    "radio_blackout": _radio_blackout,
    "imu_dropout": _imu_dropout,
}


def corrupt_snapshots(
    snapshots: list[SensorSnapshot], plan: FaultPlan
) -> list[SensorSnapshot]:
    """Return a copy of the trace with the plan's sensor faults applied.

    Faults are applied in plan order, so overlapping windows compose the
    way they are listed (e.g. a blackout inside a stale-GPS window wins
    at the overlap).  The input list is never mutated; snapshots are
    frozen dataclasses, so untouched steps are shared.
    """
    corrupted = list(snapshots)
    for fault in plan.sensor_faults:
        corrupted = _SENSOR_CORRUPTORS[fault.kind](corrupted, fault)
    return corrupted
