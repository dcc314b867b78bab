"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_places_lists_worlds(capsys):
    assert main(["places"]) == 0
    out = capsys.readouterr().out
    assert "daily" in out
    assert "path1 (320 m)" in out
    assert "mall" in out


def test_tables_prints_energy_and_latency(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "motion" in out
    assert "Response time" in out


def test_unknown_place_errors(capsys):
    assert main(["survey", "atlantis", "--out", "/tmp/x.json"]) == 2
    assert "unknown place" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_survey_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "prints.json"
    assert main(["survey", "office", "--out", str(out_file)]) == 0
    from repro.persistence import load_fingerprints

    db = load_fingerprints(out_file)
    assert len(db) > 10


def test_record_trace(tmp_path, capsys):
    out_file = tmp_path / "trace.json"
    assert main(["record", "office", "survey", "--out", str(out_file)]) == 0
    from repro.persistence import load_trace

    trace = load_trace(out_file)
    assert len(trace) > 50


def test_record_unknown_path(tmp_path, capsys):
    assert main(["record", "office", "nopath", "--out", str(tmp_path / "x.json")]) == 2


def _write_synthetic_steps(path):
    from repro.core.framework import StepDecision
    from repro.geometry import Point
    from repro.obs.telemetry import TelemetrySession, decision_to_dict
    from repro.schemes.base import SchemeOutput

    decision = StepDecision(
        outputs={"wifi": SchemeOutput(position=Point(1.0, 2.0), spread=2.0)},
        predicted_errors={"wifi": 1.5},
        confidences={"wifi": 0.9},
        weights={"wifi": 1.0},
        tau=1.5,
        indoor=True,
        selected="wifi",
        uniloc1_position=Point(1.0, 2.0),
        uniloc2_position=Point(1.0, 2.0),
        gps_enabled=False,
        scheme_latency_ms={"wifi": 0.3},
    )
    with TelemetrySession(path, run_id="run-cli") as session:
        emitter = session.emitter(job_id=session.job_id(0))
        emitter.emit("job", "started", place="office", path="survey")
        for index in range(4):
            emitter.emit(
                "step",
                "decision",
                index=index,
                decision=decision_to_dict(decision),
                scheme_errors={"wifi": 1.1},
                uniloc1_error=None,
                uniloc2_error=1.0,
                oracle=None,
            )


def test_report_summarizes_trace(tmp_path, capsys):
    log = tmp_path / "steps.jsonl"
    _write_synthetic_steps(log)
    assert main(["report", str(log)]) == 0
    out = capsys.readouterr().out
    assert "office/survey" in out
    assert "4 steps" in out
    assert "wifi" in out
    assert "p50" in out
    assert "GPS duty cycle" in out


def test_report_rejects_non_trace(tmp_path, capsys):
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text('{"not": "a trace"}\n')
    assert main(["report", str(bogus)]) == 2
    assert "cannot read telemetry log" in capsys.readouterr().err
    assert main(["report", str(tmp_path / "missing.jsonl")]) == 2
    # A well-formed log without step events has nothing to report.
    stepless = tmp_path / "stepless.jsonl"
    _write_synthetic_telemetry(stepless)
    assert main(["report", str(stepless)]) == 2
    assert "no step events" in capsys.readouterr().err


def test_trace_unknown_place_errors(tmp_path, capsys):
    """A traced walk (`run PLACE PATH --telemetry`) at an unknown place."""
    log = tmp_path / "steps.jsonl"
    assert main(["run", "atlantis", "path1", "--telemetry", str(log)]) == 2
    assert "unknown place" in capsys.readouterr().err
    assert not log.exists()  # the stub log is not left behind


def test_trace_command_emits_reportable_stream(tmp_path, capsys):
    """End-to-end acceptance: a traced walk (`run PLACE PATH --telemetry`)
    -> telemetry log -> `repro report`."""
    log = tmp_path / "steps.jsonl"
    assert main(["run", "office", "survey", "--telemetry", str(log)]) == 0
    out = capsys.readouterr().out
    assert "telemetry events" in out
    assert "UniLoc1 scheme usage" in out  # the usual evaluation output
    from repro.obs import read_telemetry

    meta, events = read_telemetry(log)
    assert meta["experiment"] == "office/survey"
    kinds = [(e["kind"], e["name"]) for e in events]
    assert kinds[0] == ("job", "started")
    assert ("job", "finished") in kinds
    assert {e["job_id"] for e in events} == {"job-0000"}
    steps = [e["data"] for e in events if e["kind"] == "step"]
    assert len(steps) > 50
    assert steps[0]["decision"]["scheme_latency_ms"]
    metrics = {e["name"] for e in events if e["kind"] == "metric"}
    assert "uniloc.step_ms" in metrics
    assert main(["report", str(log)]) == 0
    report = capsys.readouterr().out
    assert "office/survey" in report
    assert "wifi" in report
    assert "GPS duty cycle" in report


def test_train_saves_models(tmp_path, capsys):
    out_file = tmp_path / "models.json"
    assert main(["train", "--out", str(out_file)]) == 0
    from repro.persistence import load_error_models

    models = load_error_models(out_file)
    assert "fusion" in models
    out = capsys.readouterr().out
    assert "sigma_e" in out


def test_run_list_prints_registry(capsys):
    assert main(["run", "--list"]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out
    assert "table3" in out


def test_run_without_args_errors(capsys):
    assert main(["run"]) == 2
    assert "experiment name or PLACE PATH" in capsys.readouterr().err


def test_run_unknown_experiment_errors(capsys):
    assert main(["run", "fig99"]) == 2
    assert "neither a registered experiment" in capsys.readouterr().err


def test_run_experiment_rejects_trace_flag(capsys):
    # `--telemetry` is the one output flag; `--trace` is no option at all.
    with pytest.raises(SystemExit) as exc:
        main(["run", "fig3", "--trace", "/tmp/x.jsonl"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trace" in capsys.readouterr().err


def test_run_table5_experiment(capsys):
    assert main(["run", "table5"]) == 0
    out = capsys.readouterr().out
    assert "table5" in out
    assert "ms" in out


def test_chaos_appears_in_run_list(capsys):
    assert main(["run", "--list"]) == 0
    assert "chaos" in capsys.readouterr().out


def test_chaos_rejects_unknown_fault_kind():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["chaos", "--kind", "meltdown"])


def test_chaos_unknown_place_errors(capsys):
    assert main(["chaos", "--place", "atlantis"]) == 2
    assert "atlantis" in capsys.readouterr().err


def test_chaos_parser_defaults():
    args = build_parser().parse_args(["chaos"])
    assert args.place == "daily"
    assert args.path == "path1"
    assert args.kind == "crash"
    assert args.workers == 1
    assert not args.strict and not args.json


def test_cache_key_is_config_hash(capsys):
    from repro.fleet import config_hash

    assert main(["cache", "key"]) == 0
    assert capsys.readouterr().out.strip() == config_hash()


def test_cache_ls_and_clear_empty_dir(tmp_path, capsys):
    assert main(["cache", "ls", "--dir", str(tmp_path)]) == 0
    assert "empty" in capsys.readouterr().out
    assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
    assert "removed 0" in capsys.readouterr().out


def test_cache_warm_rejects_unknown_place(tmp_path, capsys):
    assert main(["cache", "warm", "--dir", str(tmp_path), "--places", "atlantis"]) == 2
    assert "unknown places" in capsys.readouterr().err


def _write_synthetic_telemetry(path):
    from repro.obs import MetricsRegistry
    from repro.obs.telemetry import EventContext, EventEmitter, TelemetryWriter

    with TelemetryWriter(path, run_id="run-t", experiment="fig7") as writer:
        context = EventContext(run_id="run-t", job_id="job-0000", worker_id="worker-1")
        emitter = EventEmitter(writer.write_event, context)
        emitter.emit("job", "started", place="office", path="survey")
        registry = MetricsRegistry()
        registry.counter("uniloc.selected.wifi").inc(9)
        registry.histogram("uniloc.step_ms").observe(1.25)
        emitter.emit_snapshot(registry.snapshot())
        emitter.emit("job", "finished", steps=25)


def test_telemetry_tail_prints_recent_events(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    _write_synthetic_telemetry(log)
    assert main(["telemetry", "tail", str(log)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# uniloc_telemetry v1")
    assert "job/started" in out
    assert "job/finished" in out
    assert main(["telemetry", "tail", str(log), "--last", "1"]) == 0
    out = capsys.readouterr().out
    assert "job/finished" in out
    assert "job/started" not in out


def test_telemetry_summary_renders_rollups(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    _write_synthetic_telemetry(log)
    assert main(["telemetry", "summary", str(log)]) == 0
    out = capsys.readouterr().out
    assert "run-t" in out
    assert "wifi" in out
    assert "office" in out


def test_telemetry_export_prometheus_parses(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    _write_synthetic_telemetry(log)
    assert main(["telemetry", "export", str(log)]) == 0
    out = capsys.readouterr().out
    assert "# TYPE uniloc_selected_wifi_total counter" in out
    assert "uniloc_selected_wifi_total 9" in out
    assert 'uniloc_step_ms{quantile="0.5"} 1.25' in out


def test_telemetry_rejects_non_telemetry_file(tmp_path, capsys):
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text('{"not": "telemetry"}\n')
    assert main(["telemetry", "summary", str(bogus)]) == 2
    assert "cannot read telemetry log" in capsys.readouterr().err


def test_profile_unknown_experiment_errors(capsys):
    assert main(["profile", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_profile_table5_prints_hot_functions(tmp_path, capsys):
    stacks = tmp_path / "stacks.txt"
    assert main(["profile", "table5", "--interval-ms", "0.01", "--out", str(stacks)]) == 0
    out = capsys.readouterr().out
    assert "table5" in out
    assert "samples, interval" in out
    assert "function" in out
    collapsed = stacks.read_text()
    assert collapsed  # folded stacks were written
    assert all(line.rsplit(" ", 1)[1].isdigit() for line in collapsed.splitlines())


def _write_bench_history(tmp_path):
    from repro.bench import BenchReport, Timing

    for name, created_at, speedup in (
        ("BENCH_a.json", 100.0, 10.0),
        ("BENCH_b.json", 200.0, 4.0),  # injected regression
    ):
        BenchReport(
            place="office",
            seed=0,
            created_at=created_at,
            results={
                "shadowing.scalar": Timing(
                    p50_ms=speedup, p90_ms=speedup, n_iterations=3
                ),
                "shadowing.kernel": Timing(p50_ms=1.0, p90_ms=1.0, n_iterations=3),
            },
        ).save(tmp_path / name)
    return [str(tmp_path / "BENCH_a.json"), str(tmp_path / "BENCH_b.json")]


def test_bench_trend_flags_regression(tmp_path, capsys):
    reports = _write_bench_history(tmp_path)
    assert main(["bench", "trend", *reports]) == 0
    out = capsys.readouterr().out
    assert "| shadowing | 10.0x | 10.0x | 4.0x |" in out
    assert "regressed" in out
    # --strict turns the flagged regression into exit code 1.
    assert main(["bench", "trend", *reports, "--strict"]) == 1
    # A CSV render and a file sink.
    csv_path = tmp_path / "trend.csv"
    assert main(
        ["bench", "trend", *reports, "--format", "csv", "--out", str(csv_path)]
    ) == 0
    assert csv_path.read_text().startswith("bench,source,created_at,speedup")


def test_bench_trend_no_readable_history(tmp_path, capsys):
    bogus = tmp_path / "BENCH_x.json"
    bogus.write_text("{}")
    assert main(["bench", "trend", str(bogus)]) == 2
    err = capsys.readouterr().err
    assert "skipping" in err
    assert "no readable bench reports" in err
