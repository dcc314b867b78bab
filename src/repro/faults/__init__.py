"""Deterministic fault injection for UniLoc resilience experiments.

``repro.faults`` describes failures as data: a :class:`FaultPlan` is a
frozen, seedable value object listing scheme faults (crash, drop, NaN,
garbage output), sensor faults (stale GPS, radio blackout, IMU
dropout), and an optional one-shot worker death.  Plans wrap schemes
and corrupt sensor snapshots *without modifying their code*, every
stochastic draw is a stateless function of ``(plan seed, fault index,
step index)``, and the same plan replayed over the same walk produces
the same casualties — faults are as reproducible as everything else in
the repo.

The matching graceful-degradation machinery lives in
:mod:`repro.core.framework` (exception containment, non-finite and
implausible-output rejection, quarantine with exponential backoff,
confidence decay) and in
:mod:`repro.fleet.executor` (worker-crash retry).  The
:func:`chaos_matrix` experiment ties the two together.  It and the
injectors are resolved on first access (:data:`_LAZY`), so importing a
plan, or the CLI's list of fault kinds, loads no scheme.
"""

import importlib
from typing import Any

from repro.faults.plan import (
    SCHEME_FAULT_KINDS,
    SENSOR_FAULT_KINDS,
    FaultPlan,
    SchemeFault,
    SensorFault,
)

#: Names resolved on first access: the injectors import the schemes,
#: which a fault plan or the CLI's list of fault kinds does not need and
#: which would add their import time to every CLI start, and chaos
#: imports eval/fleet, which import this package.
_LAZY = {
    "GARBAGE_RADIUS_M": "injectors",
    "FaultyScheme": "injectors",
    "InjectedFault": "injectors",
    "corrupt_snapshots": "injectors",
    "chaos_matrix": "chaos",
    "OutageRow": "chaos",
}

__all__ = [
    "GARBAGE_RADIUS_M",
    "SCHEME_FAULT_KINDS",
    "SENSOR_FAULT_KINDS",
    "FaultPlan",
    "FaultyScheme",
    "InjectedFault",
    "OutageRow",
    "SchemeFault",
    "SensorFault",
    "chaos_matrix",
    "corrupt_snapshots",
]


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"repro.faults.{module}"), name)
