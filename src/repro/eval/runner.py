"""Experiment runner: walk a path through UniLoc and score everything.

A :class:`WalkResult` records, for every step of a walk, the ground
truth, each scheme's error, the oracle (OptSel) choice, and UniLoc1 /
UniLoc2's errors and decisions — everything the paper's figures and
tables aggregate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core import StepDecision, UniLocFramework, select_best
from repro.core.oracle import OracleSelection
from repro.motion import Moment, Walk
from repro.obs.telemetry import EventSinkLike, decision_to_dict
from repro.sensors import SensorSnapshot
from repro.world import EnvironmentType, Place

#: Names under which the ensemble estimators are reported alongside the
#: underlying schemes.
UNILOC1 = "uniloc1"
UNILOC2 = "uniloc2"
OPTSEL = "optsel"


@dataclass(frozen=True)
class StepRecord:
    """Everything measured at one location-estimation step."""

    moment: Moment
    environment: EnvironmentType
    decision: StepDecision
    scheme_errors: dict[str, float]
    uniloc1_error: float | None
    uniloc2_error: float | None
    oracle: OracleSelection | None


@dataclass
class WalkResult:
    """The scored outcome of one walk."""

    place_name: str
    path_name: str
    records: list[StepRecord] = field(default_factory=list)

    def errors(self, estimator: str) -> list[float]:
        """Return the error series of a scheme or ensemble estimator.

        ``estimator`` may be a scheme name, ``"uniloc1"``, ``"uniloc2"``,
        or ``"optsel"``.  Steps where the estimator produced nothing are
        skipped.
        """
        values: list[float] = []
        for record in self.records:
            value = self._error_of(record, estimator)
            if value is not None:
                values.append(value)
        return values

    def errors_in(self, estimator: str, env: EnvironmentType) -> list[float]:
        """Return the estimator's errors restricted to one environment."""
        return [
            value
            for record in self.records
            if record.environment is env
            and (value := self._error_of(record, estimator)) is not None
        ]

    def mean_error(self, estimator: str) -> float:
        """Return the estimator's mean error over its available steps.

        Raises:
            ValueError: if the estimator never produced an output.
        """
        values = self.errors(estimator)
        if not values:
            raise ValueError(f"{estimator!r} produced no estimates on this walk")
        return sum(values) / len(values)

    def usage(self, selector: str = UNILOC1) -> dict[str, float]:
        """Return each scheme's usage share under a selection strategy.

        ``selector`` is ``"uniloc1"`` (the online confidence-based choice)
        or ``"optsel"`` (the oracle).  This reproduces the paper's Fig. 5.

        Raises:
            ValueError: on an unknown selector (even with zero records).
        """
        if selector not in (UNILOC1, OPTSEL):
            raise ValueError(f"unknown selector {selector!r}")
        counts: Counter[str] = Counter()
        for record in self.records:
            if selector == UNILOC1:
                chosen = record.decision.selected
            else:
                chosen = record.oracle.scheme if record.oracle else None
            if chosen is not None:
                counts[chosen] += 1
        total = sum(counts.values())
        if total == 0:
            return {}
        return {name: count / total for name, count in counts.items()}

    def gps_duty_cycle(self) -> float:
        """Return the fraction of steps with the GPS chip powered."""
        if not self.records:
            return 0.0
        on = sum(1 for r in self.records if r.decision.gps_enabled)
        return on / len(self.records)

    @staticmethod
    def _error_of(record: StepRecord, estimator: str) -> float | None:
        if estimator == UNILOC1:
            return record.uniloc1_error
        if estimator == UNILOC2:
            return record.uniloc2_error
        if estimator == OPTSEL:
            return record.oracle.error if record.oracle else None
        return record.scheme_errors.get(estimator)


def score_step(place: Place, moment: Moment, decision: StepDecision) -> StepRecord:
    """Score one framework decision against the ground-truth moment.

    Shared by :func:`run_walk` and the fleet's population runner
    (:func:`repro.fleet.executor.run_population`), so a record is scored
    identically no matter which entry point produced the decision.
    """
    scheme_errors = {
        name: output.position.distance_to(moment.position)
        for name, output in decision.outputs.items()
        if output is not None
    }
    return StepRecord(
        moment=moment,
        environment=place.environment_at(moment.position),
        decision=decision,
        scheme_errors=scheme_errors,
        uniloc1_error=(
            decision.uniloc1_position.distance_to(moment.position)
            if decision.uniloc1_position is not None
            else None
        ),
        uniloc2_error=(
            decision.uniloc2_position.distance_to(moment.position)
            if decision.uniloc2_position is not None
            else None
        ),
        oracle=select_best(decision.outputs, moment.position),
    )


def emit_step(telemetry: EventSinkLike, record: StepRecord) -> None:
    """Stream one scored step as a ``step``/``decision`` telemetry event.

    The event's ``data`` is the decision record that explains the step
    (:func:`~repro.obs.telemetry.decision_to_dict`) plus its ground
    truth: ``index``, ``time_s``, ``environment``, ``scheme_errors``,
    ``uniloc1_error``/``uniloc2_error`` and the ``oracle`` choice.
    Shared by :func:`run_walk` and
    :func:`~repro.fleet.executor.run_population`, beside
    :func:`score_step`; a disabled sink costs one attribute lookup.
    """
    if not telemetry.enabled:
        return
    oracle = record.oracle
    telemetry.emit(
        "step",
        "decision",
        index=record.moment.index,
        time_s=record.moment.time_s,
        environment=record.environment.value,
        decision=decision_to_dict(record.decision),
        scheme_errors=record.scheme_errors,
        uniloc1_error=record.uniloc1_error,
        uniloc2_error=record.uniloc2_error,
        oracle=(
            None
            if oracle is None
            else {"scheme": oracle.scheme, "error": oracle.error}
        ),
    )


def prepare_walk(
    framework: UniLocFramework,
    walk: Walk,
    snapshots: list[SensorSnapshot],
    *,
    telemetry: object | None = None,
    fault_plan: object | None = None,
) -> list[SensorSnapshot]:
    """Ready a framework to walk a recorded trace; return the trace to feed it.

    Attaches the ``telemetry`` sink before the fault plan is applied, so
    injector events stream too; applies the plan's scheme wrappers and
    sensor corruption; checks the walk and trace lengths; and resets the
    framework.  Shared by :func:`run_walk` and
    :func:`~repro.fleet.executor.run_population`.

    Raises:
        ValueError: if the walk and trace lengths differ.
    """
    if telemetry is not None:
        framework.telemetry = telemetry
    if fault_plan is not None:
        fault_plan.apply(framework)
        snapshots = fault_plan.corrupt(snapshots)
    if len(walk.moments) != len(snapshots):
        raise ValueError("walk and snapshot trace must be the same length")
    framework.reset()
    return snapshots


def run_walk(
    framework: UniLocFramework,
    place: Place,
    path_name: str,
    walk: Walk,
    snapshots: list[SensorSnapshot],
    *,
    telemetry: object | None = None,
    fault_plan: object | None = None,
    gps_duty_cycling: bool | None = None,
) -> WalkResult:
    """Drive one recorded walk through UniLoc and score every step.

    Configuration is keyword-only — the same surface as
    :func:`~repro.fleet.executor.run_walks` and
    :func:`~repro.fleet.executor.run_population`:

    * ``telemetry=``: an event sink attached to the framework before any
      fault plan is applied, so degradation and injector events stream;
      every scored step is streamed to the framework's sink as a
      ``step`` event (:func:`emit_step`) as the walk runs, so a crash
      mid-walk still leaves a replayable prefix on disk.
    * ``fault_plan=``: a :class:`~repro.faults.plan.FaultPlan` applied to
      the framework (scheme wrappers) and the snapshot trace (sensor
      corruption) before the walk starts.
    * ``gps_duty_cycling=``: override the framework's §IV-C GPS power
      policy flag for this walk (None leaves it as built).

    Raises:
        ValueError: if the walk and trace lengths differ.
    """
    if gps_duty_cycling is not None:
        framework.gps_duty_cycling = gps_duty_cycling
    snapshots = prepare_walk(
        framework, walk, snapshots, telemetry=telemetry, fault_plan=fault_plan
    )
    result = WalkResult(place_name=place.name, path_name=path_name)
    for moment, snapshot in zip(walk.moments, snapshots):
        record = score_step(place, moment, framework.step(snapshot))
        result.records.append(record)
        emit_step(framework.telemetry, record)
    return result


def merge_results(results: list[WalkResult]) -> WalkResult:
    """Concatenate several walks' records into one result for pooled CDFs.

    Raises:
        ValueError: if ``results`` is empty.
    """
    if not results:
        raise ValueError("cannot merge zero results")
    merged = WalkResult(
        place_name=results[0].place_name,
        path_name="+".join(r.path_name for r in results),
    )
    for result in results:
        merged.records.extend(result.records)
    return merged
