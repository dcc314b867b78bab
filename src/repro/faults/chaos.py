"""The chaos matrix: UniLoc resilience under single-scheme outages.

The experiment answers the question graceful degradation exists for:
*when any one scheme goes down for an entire walk, does the ensemble
still beat the best surviving individual scheme?*  It runs the daily
Path 1 walk once fault-free and once per scheme with that scheme at
100% failure (via :class:`~repro.faults.plan.FaultPlan`), then compares
UniLoc2's mean error against the best surviving single scheme in each
outage scenario.

Every job flows through the normal fleet engine, so the matrix is
cache-warm cheap and can fan out over workers; fault events surface in
the shared metrics registry (``uniloc.faults.*``,
``uniloc.quarantine.*``) and in each step's
:class:`~repro.core.framework.StepDecision` telemetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class OutageRow:
    """One chaos-matrix scenario: a walk with one scheme fully dead.

    Attributes:
        outage: name of the killed scheme, or ``"none"`` for the
            fault-free baseline walk.
        kind: the injected fault kind ("crash", "nan", ...).
        n_steps: walk length in steps.
        n_estimated: steps where UniLoc2 produced an estimate.
        n_failures: steps where the killed scheme failed abnormally
            (exception / non-finite / implausible output).
        n_quarantined_steps: steps the framework skipped the killed
            scheme while it sat in quarantine.
        quarantine_entries: how many times the scheme entered
            quarantine (re-entries after backoff probes included).
        uniloc1_mean: mean error of best-confidence selection (m).
        uniloc2_mean: mean error of the BMA ensemble (m).
        best_surviving: name of the best surviving single scheme.
        best_surviving_mean: that scheme's mean error (m).
        survived: True when the walk completed and UniLoc2 kept
            estimating despite the outage.
    """

    outage: str
    kind: str
    n_steps: int
    n_estimated: int
    n_failures: int
    n_quarantined_steps: int
    quarantine_entries: int
    uniloc1_mean: float
    uniloc2_mean: float
    best_surviving: str
    best_surviving_mean: float
    survived: bool

    @property
    def margin(self) -> float:
        """Best-surviving mean minus UniLoc2 mean; positive = ensemble wins."""
        return self.best_surviving_mean - self.uniloc2_mean

    def describe(self) -> str:
        """Render the scenario as one human-readable report line."""
        if not self.survived:
            return f"{self.outage}: walk did not survive the outage"
        verdict = "beats" if self.margin > 0 else "LOSES TO"
        return (
            f"uniloc2 {self.uniloc2_mean:.2f} m {verdict} best surviving "
            f"{self.best_surviving} {self.best_surviving_mean:.2f} m "
            f"({self.n_estimated}/{self.n_steps} steps, "
            f"{self.n_failures} failures, "
            f"{self.quarantine_entries} quarantine entries)"
        )


def _best_surviving(
    result: Any, scheme_names: Sequence[str], outage: str
) -> tuple[str, float]:
    """Find the lowest-mean-error scheme among the survivors."""
    best_name, best_mean = "", math.inf
    for name in scheme_names:
        if name == outage:
            continue
        try:
            mean = result.mean_error(name)
        except ValueError:  # scheme never produced an output on this walk
            continue
        if mean < best_mean:
            best_name, best_mean = name, mean
    return best_name, best_mean


def _row(
    result: Any,
    outage: str,
    kind: str,
    scheme_names: Sequence[str],
    metrics: MetricsRegistry,
) -> OutageRow:
    """Score one completed walk into an :class:`OutageRow`."""
    from repro.fleet import WalkFailure

    if isinstance(result, WalkFailure):
        return OutageRow(
            outage=outage,
            kind=kind,
            n_steps=0,
            n_estimated=0,
            n_failures=0,
            n_quarantined_steps=0,
            quarantine_entries=0,
            uniloc1_mean=math.nan,
            uniloc2_mean=math.nan,
            best_surviving="",
            best_surviving_mean=math.nan,
            survived=False,
        )
    n_failures = sum(
        1 for rec in result.records if outage in rec.decision.failures
    )
    n_quarantined = sum(
        1 for rec in result.records if outage in rec.decision.quarantined
    )
    estimated = result.errors("uniloc2")
    best_name, best_mean = _best_surviving(result, scheme_names, outage)
    return OutageRow(
        outage=outage,
        kind=kind,
        n_steps=len(result.records),
        n_estimated=len(estimated),
        n_failures=n_failures,
        n_quarantined_steps=n_quarantined,
        quarantine_entries=(
            0
            if outage == "none"
            else metrics.counter(f"uniloc.quarantine.entered.{outage}").value
        ),
        uniloc1_mean=result.mean_error("uniloc1"),
        uniloc2_mean=result.mean_error("uniloc2"),
        best_surviving=best_name,
        best_surviving_mean=best_mean,
        survived=bool(estimated),
    )


def chaos_matrix(
    seed: int = 0,
    workers: int = 1,
    place_name: str = "daily",
    path_name: str = "path1",
    kind: str = "crash",
    metrics: MetricsRegistry | None = None,
) -> dict[str, OutageRow]:
    """Run the single-scheme-outage fault matrix over one walk.

    One fault-free baseline job plus one job per scheme with that scheme
    failing at probability 1.0 for the whole walk.  All jobs share one
    metrics registry, so per-scheme fault/quarantine counters are
    attributable (each scenario kills a different scheme).

    Args:
        seed: master seed; every job is
            :meth:`~repro.fleet.WalkJob.for_seed` of it.
        workers: fleet worker processes for the job fan-out.
        place_name: built-in place to walk.
        path_name: path within the place.
        kind: scheme fault kind to inject (see
            :data:`~repro.faults.plan.SCHEME_FAULT_KINDS`).
        metrics: registry absorbing all fault/quarantine counters;
            a fresh one is created when omitted.

    Returns:
        Mapping from outage name (``"none"`` first, then each scheme)
        to its scored :class:`OutageRow`.

    Raises:
        ValueError: for a ``kind`` not in
            :data:`~repro.faults.plan.SCHEME_FAULT_KINDS`.
    """
    from repro.eval.setup import SCHEME_NAMES
    from repro.fleet import WalkJob, run_walks

    metrics = metrics if metrics is not None else MetricsRegistry()
    outages = ["none", *SCHEME_NAMES]
    jobs = [
        WalkJob.for_seed(
            place_name,
            path_name,
            seed,
            # Duty cycling leaves GPS unpolled on the daily walk (other
            # schemes stay confident), which would make a gps outage
            # invisible; the chaos matrix wants every scheme exercised.
            gps_duty_cycling=False,
            fault_plan=(
                None
                if outage == "none"
                else FaultPlan.scheme_outage(outage, kind=kind, seed=seed)
            ),
        )
        for outage in outages
    ]
    results = run_walks(jobs, workers=workers, metrics=metrics, on_failure="return")
    return {
        outage: _row(result, outage, kind, SCHEME_NAMES, metrics)
        for outage, result in zip(outages, results)
    }
