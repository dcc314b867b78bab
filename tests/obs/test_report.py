"""Tests for step-event aggregation and report rendering."""

import pytest

from repro.obs import render_report, summarize_steps, summarize_trace
from repro.obs.telemetry import EventContext, make_event

JOB = EventContext(run_id="run-test", job_id="job-0000", walk_seed=100)


def step_event(
    *,
    selected,
    outputs,
    latencies=None,
    errors=None,
    gps_enabled=False,
    indoor=False,
    tau=5.0,
    uniloc1_error=None,
    uniloc2_error=None,
    context=JOB,
):
    """Build a minimal telemetry ``step`` event the way ``emit_step`` does."""
    return make_event(
        "step",
        "decision",
        context,
        data={
            "index": 0,
            "decision": {
                "outputs": {
                    name: ({"x": 0.0, "y": 0.0, "spread": 1.0} if ok else None)
                    for name, ok in outputs.items()
                },
                "predicted_errors": {},
                "confidences": {},
                "weights": {},
                "tau": tau,
                "indoor": indoor,
                "selected": selected,
                "uniloc1": None,
                "uniloc2": None,
                "gps_enabled": gps_enabled,
                "scheme_latency_ms": latencies or {},
            },
            "scheme_errors": errors or {},
            "uniloc1_error": uniloc1_error,
            "uniloc2_error": uniloc2_error,
            "oracle": None,
        },
    )


@pytest.fixture()
def events():
    out = [make_event("job", "started", JOB, data={"place": "office", "path": "survey"})]
    # 8 wifi-selected steps with wifi+gps available, GPS powered on 2.
    for i in range(8):
        out.append(
            step_event(
                selected="wifi",
                outputs={"wifi": True, "gps": True},
                latencies={"wifi": 1.0 + i, "gps": 10.0},
                errors={"wifi": 2.0, "gps": 8.0},
                gps_enabled=i < 2,
                indoor=True,
                uniloc1_error=2.0,
                uniloc2_error=1.5,
            )
        )
    # 2 steps where nothing was available.
    for _ in range(2):
        out.append(
            step_event(
                selected=None,
                outputs={"wifi": False, "gps": False},
                tau=None,
            )
        )
    return out


def test_summary_counts(events):
    [summary] = summarize_steps(events)
    assert (summary.place, summary.path) == ("office", "survey")
    assert summary.steps == 10
    assert summary.estimate_rate == pytest.approx(0.8)
    assert summary.gps_duty_cycle == pytest.approx(0.2)
    assert summary.indoor_fraction == pytest.approx(0.8)
    assert summary.tau.count == 8  # null tau steps are skipped
    assert summary.uniloc1_errors.mean == pytest.approx(2.0)
    assert summary.uniloc2_errors.mean == pytest.approx(1.5)


def test_per_scheme_usage_availability_latency(events):
    [summary] = summarize_steps(events)
    wifi = summary.schemes["wifi"]
    assert wifi.availability == pytest.approx(0.8)
    assert wifi.usage == pytest.approx(0.8)
    assert wifi.latency.count == 8
    assert wifi.latency.percentile(50) == pytest.approx(4.5)
    assert wifi.errors.mean == pytest.approx(2.0)
    gps = summary.schemes["gps"]
    assert gps.usage == 0.0
    assert gps.latency.percentile(90) == pytest.approx(10.0)


def test_render_report_mentions_everything(events):
    [summary] = summarize_steps(events)
    text = render_report(summary)
    assert "office/survey" in text
    assert "wifi" in text and "gps" in text
    assert "p50" in text and "p99" in text
    assert "GPS duty cycle 20.0%" in text
    assert "uniloc2 error mean 1.50" in text


def test_summarize_steps_splits_jobs_in_job_id_order(events):
    other = EventContext(run_id="run-test", job_id="job-0001", walk_seed=101)
    mixed = [
        make_event("job", "started", other, data={"place": "mall", "path": "p2"}),
        step_event(selected="wifi", outputs={"wifi": True}, context=other),
        *events,
        make_event("job", "started", EventContext(run_id="r", job_id="job-0002")),
    ]
    summaries = summarize_steps(mixed)
    # Job 2 has no step events, so it gets no table.
    assert [(s.place, s.path, s.steps) for s in summaries] == [
        ("office", "survey", 10),
        ("mall", "p2", 1),
    ]
    assert summarize_steps(events[:1]) == []


def test_empty_trace_renders():
    summary = summarize_trace({"place": "p", "path": "w"}, [])
    assert summary.steps == 0
    assert summary.estimate_rate == 0.0
    text = render_report(summary)
    assert "0 steps" in text
