"""Tests for the cross-process telemetry pipeline (schema + streaming)."""

import json
import os
import re

import pytest

from repro.formats import UnsupportedFormatError
from repro.obs import MetricsRegistry, clock
from repro.obs.telemetry import (
    EVENT_KINDS,
    NOOP_EMITTER,
    TELEMETRY_FORMAT,
    TELEMETRY_VERSION,
    EventContext,
    EventEmitter,
    TelemetrySession,
    TelemetrySpool,
    TelemetryWriter,
    apply_metric_event,
    current_session,
    decision_to_dict,
    fault_timeline,
    follow_telemetry,
    format_event,
    iter_telemetry,
    make_event,
    new_run_id,
    read_telemetry,
    registry_from_events,
    set_session,
    telemetry_session,
)
from tests.obs.test_report import step_event

CONTEXT = EventContext(
    run_id="run-1", job_id="job-0001", worker_id="worker-9", walk_seed=42
)


# -- event schema -----------------------------------------------------------


def test_make_event_stamps_correlation_ids():
    with clock.override(wall=123.5):
        event = make_event("job", "started", CONTEXT, seq=3, data={"x": 1})
    assert event == {
        "type": "event",
        "kind": "job",
        "name": "started",
        "seq": 3,
        "time_s": 123.5,
        "run_id": "run-1",
        "job_id": "job-0001",
        "worker_id": "worker-9",
        "walk_seed": 42,
        "data": {"x": 1},
    }


def test_make_event_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown event kind"):
        make_event("metric2", "x", CONTEXT)
    for kind in EVENT_KINDS:
        assert make_event(kind, "x", CONTEXT)["kind"] == kind


def test_decision_to_dict_encodes_nan_as_null():
    from repro.core.framework import StepDecision
    from repro.geometry import Point
    from repro.schemes.base import SchemeOutput

    decision = StepDecision(
        outputs={"wifi": SchemeOutput(position=Point(3.0, 4.0), spread=2.5), "gps": None},
        predicted_errors={"wifi": 1.5, "gps": 13.5},
        confidences={"wifi": 0.8},
        weights={"wifi": 1.0},
        tau=float("nan"),
        indoor=True,
        selected="wifi",
        uniloc1_position=Point(3.0, 4.0),
        uniloc2_position=None,
        gps_enabled=False,
    )
    encoded = decision_to_dict(decision)
    assert encoded["tau"] is None
    assert encoded["outputs"] == {"wifi": {"x": 3.0, "y": 4.0, "spread": 2.5}, "gps": None}
    assert encoded["uniloc1"] == {"x": 3.0, "y": 4.0}
    assert encoded["uniloc2"] is None
    # The line must be strict JSON (no bare NaN/Infinity tokens).
    line = json.dumps(make_event("step", "decision", CONTEXT, data={"decision": encoded}))
    assert "NaN" not in line and "Infinity" not in line


def test_new_run_id_deterministic_under_frozen_clock():
    with clock.override(wall=1000.0):
        assert new_run_id() == f"run-1000000-{os.getpid()}"


def test_emitter_numbers_events_and_noop_is_disabled():
    written = []
    emitter = EventEmitter(written.append, CONTEXT)
    assert emitter.enabled
    emitter.emit("log", "a")
    emitter.emit("log", "b", detail="x")
    assert [e["seq"] for e in written] == [0, 1]
    assert written[1]["data"] == {"detail": "x"}
    assert not NOOP_EMITTER.enabled
    NOOP_EMITTER.emit("log", "dropped", anything=1)  # must not raise


# -- metric events round-trip through merge_snapshot ------------------------


def test_emit_snapshot_round_trips_exactly():
    source = MetricsRegistry()
    source.counter("fleet.walks").inc(2)
    source.gauge("fleet.worker_pid").set(77.0)
    source.histogram("uniloc.step_ms").observe(1.5)
    source.histogram("uniloc.step_ms").observe(0.5)
    written = []
    EventEmitter(written.append, CONTEXT).emit_snapshot(source.snapshot())
    rebuilt = registry_from_events(written)
    assert rebuilt.snapshot() == source.snapshot()


def test_apply_metric_event_rejects_malformed():
    registry = MetricsRegistry()
    with pytest.raises(ValueError, match="unknown instrument"):
        apply_metric_event(
            registry,
            {"name": "x", "data": {"instrument": "meter", "value": 1}},
        )
    with pytest.raises(ValueError, match="without a name"):
        apply_metric_event(
            registry, {"data": {"instrument": "counter", "value": 1}}
        )


# -- writer / readers -------------------------------------------------------


def test_writer_and_read_telemetry(tmp_path):
    path = tmp_path / "run.jsonl"
    with TelemetryWriter(path, run_id="run-7", experiment="fig7") as writer:
        writer.write_event(make_event("log", "hello", CONTEXT))
    meta, events = read_telemetry(path)
    assert meta["format"] == TELEMETRY_FORMAT
    assert meta["version"] == TELEMETRY_VERSION
    assert meta["run_id"] == "run-7"
    assert meta["experiment"] == "fig7"
    assert [e["name"] for e in events] == ["hello"]


def test_iter_telemetry_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"type": "meta", "format": "other", "version": 1}) + "\n")
    with pytest.raises(UnsupportedFormatError):
        list(iter_telemetry(path))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        list(iter_telemetry(empty))


def _log_with_line(tmp_path, line):
    path = tmp_path / "run.jsonl"
    with TelemetryWriter(path, run_id="run-1") as writer:
        writer.write_event(make_event("log", "ok", CONTEXT))
    with path.open("a") as fh:
        fh.write(line + "\n")
    return path


@pytest.mark.parametrize(
    "line, reason", [("[1, 2]", "not a JSON object"), ("{oops", "not JSON")]
)
def test_read_telemetry_names_the_bad_line(tmp_path, line, reason):
    path = _log_with_line(tmp_path, line)
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: {reason}")):
        read_telemetry(path)


@pytest.mark.parametrize(
    "line, reason", [("[1, 2]", "not a JSON object"), ("{oops", "not JSON")]
)
def test_follow_telemetry_names_the_bad_line(tmp_path, line, reason):
    path = _log_with_line(tmp_path, line)
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: {reason}")):
        list(follow_telemetry(path, sleep=lambda _s: None, max_idle_polls=0))


def test_writer_raises_after_close(tmp_path):
    writer = TelemetryWriter(tmp_path / "run.jsonl", run_id="r")
    writer.close()
    writer.close()  # idempotent
    with pytest.raises(ValueError, match="closed"):
        writer.write_event({"type": "event"})


# -- spool + session drain --------------------------------------------------


def test_session_drains_spools_into_the_log(tmp_path):
    log = tmp_path / "run.jsonl"
    with TelemetrySession(log, run_id="run-1", experiment="t") as session:
        spec = session.worker_spec(0, walk_seed=100)
        assert spec.context.job_id == "job-0000"
        spool = TelemetrySpool(spec.spool_root)
        emitter = spool.emitter(spec)
        emitter.emit("job", "started", place="office", path="survey")
        worker = MetricsRegistry()
        worker.counter("fleet.walks").inc()
        worker.histogram("uniloc.step_ms").observe(2.0)
        emitter.emit_snapshot(worker.snapshot())
        spool.close()
        merged = session.drain()
        assert merged == 3
        assert session.drain() == 0  # offsets advance, no re-read
    meta, events = read_telemetry(log)
    assert [e["kind"] for e in events] == ["job", "metric", "metric"]
    assert all(e["worker_id"].startswith("worker-") for e in events)
    assert all(e["job_id"] == "job-0000" for e in events)
    # close() removed the spool directory.
    assert not (tmp_path / "run.jsonl.spool").exists()


def test_drain_leaves_partial_trailing_line_for_next_pass(tmp_path):
    log = tmp_path / "run.jsonl"
    with TelemetrySession(log, run_id="run-1") as session:
        spool_file = session.spool_root / "worker-1.jsonl"
        complete = json.dumps(make_event("log", "done", CONTEXT))
        spool_file.write_text(complete + "\n" + '{"type": "eve')
        assert session.drain() == 1
        # Finish the partial line; the next drain picks it up.
        with spool_file.open("a") as fh:
            fh.write('nt", "kind": "log", "name": "late"}\n')
        assert session.drain() == 1
    _, events = read_telemetry(log)
    assert [e["name"] for e in events] == ["done", "late"]


def test_telemetry_session_installs_and_restores_process_global(tmp_path):
    assert current_session() is None
    with telemetry_session(tmp_path / "run.jsonl", run_id="run-1") as session:
        assert current_session() is session
    assert current_session() is None
    # set_session returns the previous session for manual management.
    previous = set_session(None)
    assert previous is None


# -- follow (tail -f) -------------------------------------------------------


def test_follow_telemetry_yields_live_appends(tmp_path):
    log = tmp_path / "run.jsonl"
    writer = TelemetryWriter(log, run_id="run-1")
    sleeps = []

    def fake_sleep(seconds):
        sleeps.append(seconds)
        # Append one event on the first idle poll, then go quiet.
        if len(sleeps) == 1:
            writer.write_event(make_event("log", "late", CONTEXT))

    events = list(
        follow_telemetry(log, poll_s=0.25, sleep=fake_sleep, max_idle_polls=2)
    )
    writer.close()
    assert events[0]["type"] == "meta"
    assert [e["name"] for e in events[1:]] == ["late"]
    assert sleeps[0] == 0.25


def test_follow_leaves_partial_trailing_line_for_next_poll(tmp_path):
    log = tmp_path / "run.jsonl"
    with TelemetryWriter(log, run_id="run-1") as writer:
        writer.write_event(make_event("log", "done", CONTEXT))
    with log.open("a") as fh:
        fh.write('{"type": "eve')
    sleeps = []

    def fake_sleep(seconds):
        sleeps.append(seconds)
        # Finish the partial line on the first idle poll.
        if len(sleeps) == 1:
            with log.open("a") as fh:
                fh.write('nt", "kind": "log", "name": "late"}\n')

    events = list(follow_telemetry(log, sleep=fake_sleep, max_idle_polls=1))
    assert [e.get("name") for e in events[1:]] == ["done", "late"]
    assert len(sleeps) == 2


def test_follow_telemetry_rejects_wrong_format(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "step"}\n')
    with pytest.raises(UnsupportedFormatError):
        list(follow_telemetry(bad, sleep=lambda _s: None, max_idle_polls=0))


# -- rendering + the run summary --------------------------------------------


def test_format_event_renders_one_line():
    meta_line = format_event(
        {"type": "meta", "format": TELEMETRY_FORMAT, "version": 1,
         "run_id": "run-1", "experiment": "fig7"}
    )
    assert meta_line.startswith("# uniloc_telemetry v1")
    event = make_event(
        "fault", "inject", CONTEXT, time_s=12.0,
        data={"scheme": "wifi", "ratio": 0.5, "values": [1, 2, 3]},
    )
    line = format_event(event)
    assert "fault/inject" in line
    assert "scheme=wifi" in line
    assert "ratio=0.500" in line
    assert "[3 values]" in line
    assert "worker-9" in line


def _job_events():
    ctx_a = EventContext(run_id="r", job_id="job-0000", worker_id="worker-1")
    ctx_b = EventContext(run_id="r", job_id="job-0001", worker_id="worker-2")
    wifi_steps = [
        step_event(selected="wifi", outputs={"wifi": True, "gps": False},
                   failures={"gps": "exception"}, context=ctx_a)
        for _ in range(3)
    ]
    skipped_steps = [
        step_event(selected="wifi", outputs={"wifi": True, "gps": False},
                   quarantined=["gps"], context=ctx_a)
        for _ in range(8)
    ]
    events = [
        make_event("job", "started", ctx_a, data={"place": "office", "path": "survey"}),
        *wifi_steps,
        make_event("quarantine", "quarantine", ctx_a,
                   data={"scheme": "gps", "step": 2, "until": 10}),
        *skipped_steps,
        make_event("job", "finished", ctx_a, data={"steps": 11}),
        # Metric events are the registry's wire form; the summary
        # counts from the steps and ignores them.
        make_event("metric", "uniloc.selected.wifi", ctx_a,
                   data={"instrument": "counter", "value": 99}),
        make_event("job", "started", ctx_b, data={"place": "office", "path": "survey"}),
        step_event(selected=None, outputs={"wifi": False}, context=ctx_b),
    ]
    meta = {"type": "meta", "format": TELEMETRY_FORMAT, "version": 1,
            "run_id": "r", "experiment": "fig7"}
    return meta, events


def test_summarize_telemetry_rolls_up_jobs_and_schemes():
    from repro.obs.report import render_log, summarize_log

    meta, events = _job_events()
    summary = summarize_log(meta, events)
    assert summary.run_id == "r"
    assert summary.n_events == len(events)
    assert summary.workers == ["worker-1", "worker-2"]
    assert summary.unfinished == ["job-0001"]
    assert summary.schemes == {
        "wifi": {"selected": 11, "faults": 0, "quarantines": 0, "skipped": 0},
        "gps": {"selected": 0, "faults": 3, "quarantines": 1, "skipped": 8},
    }
    assert summary.places == {"office": {"jobs": 2, "steps": 12}}
    assert [trace.steps for trace in summary.traces] == [11, 1]
    rendered = render_log(summary)
    assert "run: r — fig7" in rendered
    assert "1 job(s) not finished: job-0001" in rendered
    assert rendered.count("trace: office/survey") == 2


def test_fault_timeline_orders_lifecycle_by_job_and_step():
    ctx = EventContext(run_id="r", job_id="job-0000")
    events = [
        make_event("quarantine", "quarantine", ctx,
                   data={"scheme": "gps", "step": 9, "until": 18}),
        make_event("fault", "inject", ctx,
                   data={"scheme": "gps", "step": 7, "fault_kind": "crash"}),
        make_event("fault", "contain", ctx,
                   data={"scheme": "gps", "step": 7, "failure": "exception"}),
        make_event("quarantine", "probe", ctx,
                   data={"scheme": "gps", "step": 18}),
        make_event("log", "noise", ctx),
    ]
    timeline = fault_timeline(events)
    assert [(r["event"], r["step"]) for r in timeline] == [
        ("inject", 7),
        ("contain", 7),
        ("quarantine", 9),
        ("probe", 18),
    ]
    assert timeline[0]["detail"] == "crash"
    assert timeline[1]["detail"] == "exception"
