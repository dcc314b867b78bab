"""Step-event aggregation: turn a telemetry log into a readable summary.

This is the read side of the ``step`` events in a ``uniloc_telemetry``
log (:mod:`repro.obs.telemetry`): given the step payloads of one walk
it computes, per scheme, the availability rate, the UniLoc1 usage
share, the estimate-latency percentiles, and the mean ground-truth
error, plus walk-level stats — GPS duty cycle, indoor fraction, mean
tau, ensemble errors — and the framework's per-stage cost beside the
paper's Table V (:mod:`repro.energy.response_time`).  ``repro report``
prints :func:`render_report`'s table once per job; tests and notebooks
consume the :class:`TraceSummary` dataclass directly.

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


def summarize_steps(events: Iterable[dict[str, Any]]) -> list[TraceSummary]:
    """Summarize every job of a telemetry log that has ``step`` events.

    Returns one :class:`TraceSummary` per such job, in ``job_id`` order,
    titled from that job's ``job/started`` event.
    """
    started: dict[str, dict[str, Any]] = {}
    steps: dict[str, list[dict[str, Any]]] = {}
    for event in events:
        job_id = event.get("job_id", "")
        if event.get("kind") == "step":
            steps.setdefault(job_id, []).append(event.get("data", {}))
        elif (event.get("kind"), event.get("name")) == ("job", "started"):
            started[job_id] = event.get("data", {})
    return [
        summarize_trace(started.get(job_id, {}), steps[job_id])
        for job_id in sorted(steps)
    ]


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
