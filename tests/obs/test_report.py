"""Tests for the run report: the log summary and its rendering."""

import pytest

from repro.obs.report import render_log, render_report, summarize_log, summarize_trace
from repro.obs.telemetry import EventContext, make_event

META = {"type": "meta", "run_id": "run-test", "experiment": "fig7"}


def traces(events):
    """Return the per-job trace summaries of a log's events."""
    return summarize_log(META, events).traces

JOB = EventContext(run_id="run-test", job_id="job-0000", walk_seed=100)


def step_event(
    *,
    selected,
    outputs,
    stage_ms=None,
    errors=None,
    gps_enabled=False,
    indoor=False,
    tau=5.0,
    uniloc1_error=None,
    uniloc2_error=None,
    failures=None,
    quarantined=None,
    context=JOB,
):
    """Build a minimal telemetry ``step`` event the way ``run_walk`` does."""
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
                "failures": failures or {},
                "quarantined": quarantined or [],
            },
            "scheme_errors": errors or {},
            "uniloc1_error": uniloc1_error,
            "uniloc2_error": uniloc2_error,
            "oracle": None,
            "stage_ms": stage_ms or {},
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
                stage_ms={
                    "iodetect": 0.1,
                    "scheme.wifi": 1.0 + i,
                    "scheme.gps": 10.0,
                    "error_prediction": 2.0,
                    "bma": 0.5,
                    "step": 20.0,
                },
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
    [summary] = traces(events)
    assert (summary.place, summary.path) == ("office", "survey")
    assert summary.steps == 10
    assert summary.estimate_rate == pytest.approx(0.8)
    assert summary.gps_duty_cycle == pytest.approx(0.2)
    assert summary.indoor_fraction == pytest.approx(0.8)
    assert summary.tau.count == 8  # null tau steps are skipped
    assert summary.uniloc1_errors.mean == pytest.approx(2.0)
    assert summary.uniloc2_errors.mean == pytest.approx(1.5)


def test_per_scheme_usage_availability_latency(events):
    [summary] = traces(events)
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
    [summary] = traces(events)
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
    summaries = traces(mixed)
    # Job 2 has no step events, so it gets no table.
    assert [(s.place, s.path, s.steps) for s in summaries] == [
        ("office", "survey", 10),
        ("mall", "p2", 1),
    ]
    assert traces(events[:1]) == []


def test_empty_trace_renders():
    summary = summarize_trace({"place": "p", "path": "w"}, [])
    assert summary.steps == 0
    assert summary.estimate_rate == 0.0
    text = render_report(summary)
    assert "0 steps" in text


def test_stage_block_sits_beside_table_v(events):
    """Each stage's p50 and share of the step, next to the paper's figure."""
    from repro.energy.response_time import BMA_MS, ERROR_PREDICTION_MS, SCHEME_COMPUTE_MS

    [summary] = traces(events)
    assert summary.stages["step"].count == 8
    rows = {
        line.split()[0]: line.split()[1:]
        for line in render_report(summary).splitlines()
        if line.split() and line.split()[0] in summary.stages
    }
    assert rows["error_prediction"] == ["2.000", "10.0%", f"{ERROR_PREDICTION_MS:.1f}"]
    assert rows["bma"] == ["0.500", "2.5%", f"{BMA_MS:.1f}"]
    assert rows["scheme.gps"] == ["10.000", "50.0%", f"{SCHEME_COMPUTE_MS['gps']:.1f}"]
    assert rows["iodetect"] == ["0.100", "0.5%", "-"]
    assert rows["step"] == ["20.000", "100.0%", "-"]


def test_old_step_events_without_stage_ms_report_dashes():
    """A log written before step events carried ``stage_ms`` (the latency
    was ``decision.scheme_latency_ms`` then) still reports, with ``-``."""
    old = make_event(
        "step",
        "decision",
        JOB,
        data={
            "index": 0,
            "decision": {
                "outputs": {"wifi": {"x": 0.0, "y": 0.0, "spread": 1.0}},
                "predicted_errors": {"wifi": 2.0},
                "confidences": {"wifi": 1.0},
                "weights": {"wifi": 1.0},
                "tau": 2.0,
                "indoor": True,
                "selected": "wifi",
                "uniloc1": {"x": 0.0, "y": 0.0},
                "uniloc2": {"x": 0.0, "y": 0.0},
                "gps_enabled": False,
                "scheme_latency_ms": {},
                "failures": {},
                "quarantined": [],
            },
            "scheme_errors": {"wifi": 1.5},
            "uniloc1_error": 1.5,
            "uniloc2_error": 1.5,
            "oracle": {"scheme": "wifi", "error": 1.5},
        },
    )
    [summary] = traces([old])
    assert summary.schemes["wifi"].latency.count == 0
    assert summary.stages == {}
    lines = render_report(summary).splitlines()
    [wifi] = [line for line in lines if line.startswith("wifi")]
    assert wifi.split()[3:6] == ["-", "-", "-"]
    assert lines[-1].split() == ["step", "-", "-", "-"]


def test_run_block_heads_the_per_job_tables(events):
    text = render_log(summarize_log(META, events))
    job_table = render_report(traces(events)[0])
    assert text.endswith("\n\n" + job_table)
    run_block = text[: -len(job_table) - 2]
    assert run_block.startswith("run: run-test — fig7\n11 events from 1 worker(s): main")
    assert "office                  1       10" in run_block
    assert "wifi               8       0            0        0" in run_block
    assert "1 job(s) not finished: job-0000" in run_block


def test_stepless_log_renders_the_run_block_alone():
    ctx = EventContext(run_id="run-test", job_id="job-0000", worker_id="worker-1")
    events = [
        make_event("job", "started", ctx, data={"place": "mall", "path": "p2"}),
        make_event("job", "finished", ctx, data={"steps": 25}),
    ]
    summary = summarize_log(META, events)
    assert summary.traces == []
    assert summary.places == {"mall": {"jobs": 1, "steps": 0}}
    assert summary.unfinished == []
    text = render_log(summary)
    assert "trace:" not in text and "not finished" not in text
    assert text.splitlines()[-1].split() == ["mall", "1", "0"]


def test_report_reads_no_metric_event():
    """The run block counts from the events, not the registry they rebuild."""
    import inspect

    import repro.obs.report as report

    source = inspect.getsource(report)
    assert "registry_from_events" not in source
    assert "apply_metric_event" not in source
