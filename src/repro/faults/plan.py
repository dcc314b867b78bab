"""Deterministic, seedable fault plans for chaos experiments.

UniLoc's central claim is that scheme diversity masks the failure of any
single scheme (paper §IV).  A :class:`FaultPlan` turns that claim into a
testable input: it describes *what goes wrong, where, and how often* —
schemes that crash or emit garbage, sensors that go dark for a stretch of the
walk, workers that die mid-job — without modifying a single line of the
scheme or sensor code.  Plans are pure frozen values, so they ride on a
:class:`~repro.fleet.executor.WalkJob` across process boundaries, and
every stochastic decision is a stateless function of ``(plan seed, fault
index, step index)``: the same plan injects the same faults at the same
steps in any process, in any order, which keeps the fleet engine's
determinism contract intact under chaos.

The plan is *applied* by :mod:`repro.faults.injectors`:

* scheme faults wrap the registered scheme in a
  :class:`~repro.faults.injectors.FaultyScheme` black box;
* sensor faults rewrite the recorded snapshot trace
  (:func:`~repro.faults.injectors.corrupt_snapshots`);
* ``worker_death_marker`` arms a one-shot worker kill inside the fleet
  executor (the marker file makes the retry attempt survive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.core.framework import UniLocFramework
    from repro.sensors import SensorSnapshot

#: What an injected scheme fault does to one ``estimate()`` call.
#:
#: ``crash``    raise :class:`~repro.faults.injectors.InjectedFault`
#: ``drop``     return ``None`` (scheme reports itself unavailable)
#: ``nan``      return a ``SchemeOutput`` whose position/spread are NaN
#: ``garbage``  return a finite but absurd position kilometers away
SCHEME_FAULT_KINDS = ("crash", "drop", "nan", "garbage")

#: What a sensor fault does to the snapshots inside its step window.
#:
#: ``stale_gps``       every fix repeats the last pre-window fix
#: ``radio_blackout``  no Wi-Fi, no cellular, GPS jammed
#: ``imu_dropout``     no step events, frozen orientation
SENSOR_FAULT_KINDS = ("stale_gps", "radio_blackout", "imu_dropout")


def _check_window(start_step: int, end_step: int | None) -> None:
    if start_step < 0:
        raise ValueError(f"start_step must be >= 0, got {start_step}")
    if end_step is not None and end_step <= start_step:
        raise ValueError(
            f"empty fault window [{start_step}, {end_step})"
        )


@dataclass(frozen=True)
class SchemeFault:
    """One fault process attached to one scheme.

    Attributes:
        scheme: name of the registered scheme to afflict.
        kind: one of :data:`SCHEME_FAULT_KINDS`.
        probability: chance the fault fires at an in-window step (1.0 =
            every step; draws are stateless per step, see module doc).
        start_step: first step index the fault can fire at.
        end_step: first step index past the window (``None`` = to the
            end of the walk).
    """

    scheme: str
    kind: str = "crash"
    probability: float = 1.0
    start_step: int = 0
    end_step: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in SCHEME_FAULT_KINDS:
            raise ValueError(
                f"unknown scheme fault kind {self.kind!r}; "
                f"known: {', '.join(SCHEME_FAULT_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        _check_window(self.start_step, self.end_step)

    def in_window(self, step: int) -> bool:
        """Return True when ``step`` falls inside the fault's window."""
        if step < self.start_step:
            return False
        return self.end_step is None or step < self.end_step


@dataclass(frozen=True)
class SensorFault:
    """One sensor-degradation window applied to the snapshot trace.

    Attributes:
        kind: one of :data:`SENSOR_FAULT_KINDS`.
        start_step: first afflicted step index.
        end_step: first step index past the window (``None`` = to the
            end of the walk).
    """

    kind: str
    start_step: int = 0
    end_step: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in SENSOR_FAULT_KINDS:
            raise ValueError(
                f"unknown sensor fault kind {self.kind!r}; "
                f"known: {', '.join(SENSOR_FAULT_KINDS)}"
            )
        _check_window(self.start_step, self.end_step)

    def in_window(self, step: int) -> bool:
        """Return True when ``step`` falls inside the fault's window."""
        if step < self.start_step:
            return False
        return self.end_step is None or step < self.end_step


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic description of everything that fails.

    Attributes:
        seed: stream seed for all probabilistic fault draws.
        scheme_faults: fault processes wrapped around schemes.
        sensor_faults: degradation windows applied to the sensor trace.
        worker_death_marker: path to a tombstone file arming a one-shot
            worker kill in the fleet executor — the first worker to run
            the job dies hard (``os._exit``); the retry finds the marker
            and runs normally.  ``None`` disables.
    """

    seed: int = 0
    scheme_faults: tuple[SchemeFault, ...] = ()
    sensor_faults: tuple[SensorFault, ...] = ()
    worker_death_marker: str | None = None

    def __post_init__(self) -> None:
        # Accept any sequence; store hashable tuples (WalkJob is frozen).
        object.__setattr__(self, "scheme_faults", tuple(self.scheme_faults))
        object.__setattr__(self, "sensor_faults", tuple(self.sensor_faults))

    @classmethod
    def scheme_outage(
        cls, scheme: str, kind: str = "crash", seed: int = 0
    ) -> "FaultPlan":
        """Return the canonical chaos plan: one scheme at 100% failure."""
        return cls(seed=seed, scheme_faults=(SchemeFault(scheme=scheme, kind=kind),))

    def faults_for(self, scheme: str) -> tuple[tuple[int, SchemeFault], ...]:
        """Return ``(fault_index, fault)`` pairs afflicting one scheme.

        The fault index is the fault's position in :attr:`scheme_faults`
        and seeds its private random stream, so reordering unrelated
        faults never changes an existing fault's firing pattern draws.
        """
        return tuple(
            (index, fault)
            for index, fault in enumerate(self.scheme_faults)
            if fault.scheme == scheme
        )

    def fires(self, fault_index: int, fault: SchemeFault, step: int) -> bool:
        """Decide whether one fault fires at one step (stateless draw)."""
        if not fault.in_window(step):
            return False
        if fault.probability >= 1.0:
            return True
        if fault.probability <= 0.0:
            return False
        rng = np.random.default_rng((self.seed, fault_index, step))
        return bool(rng.random() < fault.probability)

    def apply(self, framework: UniLocFramework) -> None:
        """Wrap the framework's afflicted schemes in fault injectors.

        Mutates ``framework.bundles`` in place; scheme code is never
        modified — UniLoc keeps seeing black boxes (§III-A).

        Raises:
            ValueError: if a fault names a scheme that is not registered.
        """
        from repro.faults.injectors import FaultyScheme

        unknown = {
            f.scheme for f in self.scheme_faults if f.scheme not in framework.bundles
        }
        if unknown:
            raise ValueError(
                f"fault plan names unregistered schemes: {', '.join(sorted(unknown))}"
            )
        for name, bundle in framework.bundles.items():
            faults = self.faults_for(name)
            if faults:
                bundle.scheme = FaultyScheme(
                    bundle.scheme, self, faults, telemetry=framework.telemetry
                )

    def corrupt(self, snapshots: list[SensorSnapshot]) -> list[SensorSnapshot]:
        """Return the snapshot trace with all sensor faults applied."""
        from repro.faults.injectors import corrupt_snapshots

        return corrupt_snapshots(snapshots, self)
