"""The run report: one summary of a whole telemetry log, in one pass.

This is the read side of a ``uniloc_telemetry`` log
(:mod:`repro.obs.telemetry`).  :func:`summarize_log` walks the events
once and returns a :class:`LogSummary`:

* the run block: run id, experiment, event count, workers, jobs and
  steps per place, the per-scheme selected / faults / quarantines /
  skipped counts, and the jobs that never finished;
* one :class:`TraceSummary` per job with ``step`` events, folded by
  :func:`summarize_trace`: per scheme the availability rate, the
  UniLoc1 usage share, the estimate-latency percentiles and the mean
  ground-truth error, plus walk-level stats — GPS duty cycle, indoor
  fraction, mean tau, ensemble errors — and the framework's per-stage
  cost beside the paper's Table V (:mod:`repro.energy.response_time`).

Every count comes from the events themselves — step decisions, job
edges and quarantine events — never from the metric events a job emits
only when it finishes, so a job that raised keeps its steps, faults and
quarantines.  ``repro report`` prints :func:`render_log`; tests and
notebooks consume the dataclasses directly.

Latencies come from each step event's ``stage_ms`` map.  Logs written
before step events carried it still summarize; their latency cells
read ``-``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs.metrics import Histogram


@dataclass
class SchemeSummary:
    """Aggregated per-scheme telemetry over one trace."""

    name: str
    steps: int = 0
    available: int = 0
    selected: int = 0
    latency: Histogram = field(default_factory=Histogram)
    errors: Histogram = field(default_factory=Histogram)

    @property
    def availability(self) -> float:
        """Return the fraction of steps the scheme produced an output."""
        return self.available / self.steps if self.steps else 0.0

    @property
    def usage(self) -> float:
        """Return the fraction of steps UniLoc1 selected this scheme."""
        return self.selected / self.steps if self.steps else 0.0


@dataclass
class TraceSummary:
    """Aggregated walk-level telemetry over one trace."""

    place: str
    path: str
    steps: int
    schemes: dict[str, SchemeSummary]
    gps_powered: int
    indoor_steps: int
    no_estimate_steps: int
    tau: Histogram
    uniloc1_errors: Histogram
    uniloc2_errors: Histogram
    #: Stage name (``iodetect``, ``scheme.<name>``, ..., ``step``) ->
    #: its per-step wall time in ms, in first-seen order.
    stages: dict[str, Histogram] = field(default_factory=dict)

    @property
    def gps_duty_cycle(self) -> float:
        """Return the fraction of steps with the GPS chip powered."""
        return self.gps_powered / self.steps if self.steps else 0.0

    @property
    def indoor_fraction(self) -> float:
        """Return the fraction of steps classified indoor."""
        return self.indoor_steps / self.steps if self.steps else 0.0

    @property
    def estimate_rate(self) -> float:
        """Return the fraction of steps where UniLoc produced an estimate."""
        if not self.steps:
            return 0.0
        return (self.steps - self.no_estimate_steps) / self.steps


def summarize_trace(
    meta: dict[str, Any], steps: list[dict[str, Any]]
) -> TraceSummary:
    """Aggregate the step payloads (event ``data``) of one walk.

    ``meta`` supplies the walk's ``place`` and ``path`` (the ``data`` of
    its ``job/started`` event); both default to empty.
    """
    schemes: dict[str, SchemeSummary] = {}
    tau = Histogram()
    uniloc1_errors = Histogram()
    uniloc2_errors = Histogram()
    gps_powered = 0
    indoor_steps = 0
    no_estimate_steps = 0
    stages: dict[str, Histogram] = {}

    for event in steps:
        stage_ms = event.get("stage_ms") or {}
        for stage, ms in stage_ms.items():
            stages.setdefault(stage, Histogram()).observe(ms)
        decision = event["decision"]
        if decision["gps_enabled"]:
            gps_powered += 1
        if decision["indoor"]:
            indoor_steps += 1
        if decision["selected"] is None:
            no_estimate_steps += 1
        if decision["tau"] is not None:
            tau.observe(decision["tau"])
        if event.get("uniloc1_error") is not None:
            uniloc1_errors.observe(event["uniloc1_error"])
        if event.get("uniloc2_error") is not None:
            uniloc2_errors.observe(event["uniloc2_error"])
        truth = event.get("scheme_errors", {})
        for name, out in decision["outputs"].items():
            summary = schemes.setdefault(name, SchemeSummary(name))
            summary.steps += 1
            if out is not None:
                summary.available += 1
            if decision["selected"] == name:
                summary.selected += 1
            latency = stage_ms.get(f"scheme.{name}")
            if latency is not None:
                summary.latency.observe(latency)
            if truth.get(name) is not None:
                summary.errors.observe(truth[name])

    return TraceSummary(
        place=meta.get("place", ""),
        path=meta.get("path", ""),
        steps=len(steps),
        schemes=schemes,
        gps_powered=gps_powered,
        indoor_steps=indoor_steps,
        no_estimate_steps=no_estimate_steps,
        tau=tau,
        uniloc1_errors=uniloc1_errors,
        uniloc2_errors=uniloc2_errors,
        stages=stages,
    )


#: The per-scheme counts of the run block, in column order.
SCHEME_COUNTS = ("selected", "faults", "quarantines", "skipped")


@dataclass
class LogSummary:
    """Everything ``repro report`` prints about one telemetry log."""

    run_id: str
    experiment: str
    n_events: int
    workers: list[str]
    #: Place -> ``{"jobs": n, "steps": n}``; steps are step events.
    places: dict[str, dict[str, int]]
    #: Scheme -> one count per :data:`SCHEME_COUNTS` label; only schemes
    #: with a nonzero count appear.
    schemes: dict[str, dict[str, int]]
    #: Jobs without a ``job/finished`` event, sorted.
    unfinished: list[str]
    #: One per job with step events, in ``job_id`` order.
    traces: list[TraceSummary]


def summarize_log(
    meta: dict[str, Any], events: Iterable[dict[str, Any]]
) -> LogSummary:
    """Summarize a whole log (see :func:`~repro.obs.read_telemetry`).

    A job is any ``job_id`` on a ``job`` or ``step`` event; its place
    is the one its ``job/started`` event names.  A step's
    ``decision.selected``, ``decision.failures`` and
    ``decision.quarantined`` count as that scheme's selected, faults
    and skipped, and each ``quarantine/quarantine`` event as one
    quarantine entry.
    """
    n_events = 0
    workers: set[str] = set()
    started: dict[str, dict[str, Any]] = {}
    jobs: dict[str, bool] = {}  # job_id -> finished
    steps: dict[str, list[dict[str, Any]]] = {}
    schemes: dict[str, dict[str, int]] = {}

    def count(scheme: str, label: str) -> None:
        schemes.setdefault(scheme, dict.fromkeys(SCHEME_COUNTS, 0))[label] += 1

    for event in events:
        n_events += 1
        if event.get("worker_id"):
            workers.add(event["worker_id"])
        kind, name = event.get("kind"), event.get("name")
        job_id = event.get("job_id", "")
        data = event.get("data", {})
        if kind == "step":
            jobs.setdefault(job_id, False)
            steps.setdefault(job_id, []).append(data)
            decision = data["decision"]
            if decision["selected"] is not None:
                count(decision["selected"], "selected")
            for scheme in decision.get("failures", {}):
                count(scheme, "faults")
            for scheme in decision.get("quarantined", []):
                count(scheme, "skipped")
        elif kind == "job":
            jobs[job_id] = jobs.get(job_id, False) or name == "finished"
            if name == "started":
                started[job_id] = data
        elif (kind, name) == ("quarantine", "quarantine"):
            count(data.get("scheme", ""), "quarantines")

    places: dict[str, dict[str, int]] = {}
    for job_id in jobs:
        place = started.get(job_id, {}).get("place") or "(unknown)"
        entry = places.setdefault(place, {"jobs": 0, "steps": 0})
        entry["jobs"] += 1
        entry["steps"] += len(steps.get(job_id, []))
    return LogSummary(
        run_id=meta.get("run_id", ""),
        experiment=meta.get("experiment", ""),
        n_events=n_events,
        workers=sorted(workers),
        places=places,
        schemes=schemes,
        unfinished=sorted(job_id for job_id, done in jobs.items() if not done),
        traces=[
            summarize_trace(started.get(job_id, {}), steps[job_id])
            for job_id in sorted(steps)
        ],
    )


def render_log(summary: LogSummary) -> str:
    """Render the run block, then one :func:`render_report` table per job."""
    lines = [
        f"run: {summary.run_id} — {summary.experiment or '(unnamed run)'}",
        f"{summary.n_events} events from {len(summary.workers)} worker(s): "
        + (", ".join(summary.workers) or "(none)"),
    ]
    if summary.places:
        lines.append("")
        lines.append(f"{'place':18s} {'jobs':>6s} {'steps':>8s}")
        for place in sorted(summary.places):
            entry = summary.places[place]
            lines.append(f"{place:18s} {entry['jobs']:6d} {entry['steps']:8d}")
    if summary.schemes:
        lines.append("")
        lines.append(
            f"{'scheme':10s} {'selected':>9s} {'faults':>7s} "
            f"{'quarantines':>12s} {'skipped':>8s}"
        )
        for scheme in sorted(summary.schemes):
            entry = summary.schemes[scheme]
            lines.append(
                f"{scheme:10s} {entry['selected']:9d} {entry['faults']:7d} "
                f"{entry['quarantines']:12d} {entry['skipped']:8d}"
            )
    if summary.unfinished:
        lines.append("")
        lines.append(
            f"{len(summary.unfinished)} job(s) not finished: "
            + ", ".join(summary.unfinished)
        )
    return "\n\n".join(
        ["\n".join(lines), *(render_report(trace) for trace in summary.traces)]
    )


def render_report(summary: TraceSummary) -> str:
    """Render a trace summary as a fixed-width table."""
    title = f"{summary.place}/{summary.path}" if summary.place else summary.path
    lines = [
        f"trace: {title or '(unnamed walk)'} — {summary.steps} steps",
        "",
        f"{'scheme':10s} {'avail':>6s} {'usage':>6s} "
        f"{'p50 ms':>8s} {'p90 ms':>8s} {'p99 ms':>8s} {'err mean':>9s}",
    ]
    for name in sorted(summary.schemes):
        s = summary.schemes[name]
        has_latency = s.latency.count > 0
        lines.append(
            f"{name:10s} {s.availability:6.1%} {s.usage:6.1%} "
            + (
                f"{s.latency.percentile(50):8.3f} {s.latency.percentile(90):8.3f} "
                f"{s.latency.percentile(99):8.3f} "
                if has_latency
                else f"{'-':>8s} {'-':>8s} {'-':>8s} "
            )
            + (f"{s.errors.mean:8.2f}m" if s.errors.count else f"{'-':>9s}")
        )
    lines.append("")
    lines.append(
        f"estimate rate {summary.estimate_rate:.1%}   "
        f"indoor {summary.indoor_fraction:.1%}   "
        f"GPS duty cycle {summary.gps_duty_cycle:.1%}"
    )
    if summary.tau.count:
        lines.append(
            f"tau mean {summary.tau.mean:.2f} m   "
            f"p90 {summary.tau.percentile(90):.2f} m"
        )
    for label, hist in (
        ("uniloc1", summary.uniloc1_errors),
        ("uniloc2", summary.uniloc2_errors),
    ):
        if hist.count:
            lines.append(
                f"{label} error mean {hist.mean:.2f} m   "
                f"p50 {hist.percentile(50):.2f} m   "
                f"p90 {hist.percentile(90):.2f} m"
            )
    lines.append("")
    lines.extend(_render_stages(summary.stages))
    return "\n".join(lines)


def _render_stages(stages: dict[str, Histogram]) -> list[str]:
    """Render each stage's p50 and share of the step beside Table V."""
    # Imported here: repro.energy pulls in the eval layer, which imports
    # repro.obs.
    from repro.energy.response_time import (
        BMA_MS,
        ERROR_PREDICTION_MS,
        SCHEME_COMPUTE_MS,
    )

    paper = {"error_prediction": ERROR_PREDICTION_MS, "bma": BMA_MS}
    paper.update((f"scheme.{name}", ms) for name, ms in SCHEME_COMPUTE_MS.items())
    lines = [
        f"{'stage':18s} {'p50 ms':>8s} {'share':>7s} {'Table V ms':>11s}"
    ]
    step = stages.get("step")
    if step is None:  # a log written before step events carried stage_ms
        lines.append(f"{'step':18s} {'-':>8s} {'-':>7s} {'-':>11s}")
        return lines
    # Costliest stage first; the whole step closes the block.
    order = sorted(stages, key=lambda name: (name == "step", -stages[name].total))
    for name in order:
        hist = stages[name]
        share = hist.total / step.total if step.total > 0 else 0.0
        cited = f"{paper[name]:11.1f}" if name in paper else f"{'-':>11s}"
        lines.append(
            f"{name:18s} {hist.percentile(50):8.3f} {share:7.1%} {cited}"
        )
    return lines
