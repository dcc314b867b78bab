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


def test_survey_and_record_read_the_warm_cache(tmp_path, capsys):
    """On a warm cache `survey` and `record` build nothing, and write the
    same bytes as a freshly surveyed setup."""
    from repro.eval import PlaceSetup
    from repro.fleet import ArtifactCache, set_default_cache
    from repro.obs import MetricsRegistry
    from repro.persistence import save_fingerprints, save_trace
    from repro.world import build_office_place

    fresh = PlaceSetup.create(build_office_place(), seed=3)
    save_fingerprints(fresh.wifi_db, tmp_path / "expected-prints.json")
    _, snaps = fresh.record_walk("survey", walk_seed=0, trace_seed=1)
    save_trace(snaps, tmp_path / "expected-trace.json")
    ArtifactCache(tmp_path / "cache").put_place_setup("office", fresh)

    warm = ArtifactCache(tmp_path / "cache", metrics=MetricsRegistry())
    previous = set_default_cache(warm)
    try:
        prints, trace = tmp_path / "prints.json", tmp_path / "trace.json"
        assert main(["survey", "office", "--out", str(prints)]) == 0
        assert main(["record", "office", "survey", "--out", str(trace)]) == 0
    finally:
        set_default_cache(previous)
    assert warm.metrics.counter("fleet.cache.miss").value == 0
    assert warm.metrics.counter("fleet.cache.hit").value == 2
    assert prints.read_bytes() == (tmp_path / "expected-prints.json").read_bytes()
    assert trace.read_bytes() == (tmp_path / "expected-trace.json").read_bytes()


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
                stage_ms={"iodetect": 0.01, "scheme.wifi": 0.3, "bma": 0.2, "step": 1.0},
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
    assert "Table V ms" in out


def test_report_rejects_non_trace(tmp_path, capsys):
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text('{"not": "a trace"}\n')
    assert main(["report", str(bogus)]) == 2
    assert "cannot read telemetry log" in capsys.readouterr().err
    assert main(["report", str(tmp_path / "missing.jsonl")]) == 2
    # A log with only its meta line has nothing to report.
    from repro.obs.telemetry import TelemetryWriter

    empty = tmp_path / "empty.jsonl"
    TelemetryWriter(empty, run_id="run-empty").close()
    capsys.readouterr()
    assert main(["report", str(empty)]) == 2
    assert "has no events" in capsys.readouterr().err
    # A log without step events still has its run block: the job table.
    stepless = tmp_path / "stepless.jsonl"
    _write_synthetic_telemetry(stepless)
    assert main(["report", str(stepless)]) == 0
    out = capsys.readouterr().out
    assert "office                  1        0" in out
    assert "trace:" not in out


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
    assert {"iodetect", "scheme.wifi", "error_prediction", "bma", "step"} <= set(
        steps[0]["stage_ms"]
    )
    metrics = {e["name"] for e in events if e["kind"] == "metric"}
    assert {"uniloc.step_ms", "uniloc.stage.bma_ms"} <= metrics
    assert main(["report", str(log)]) == 0
    report = capsys.readouterr().out
    assert "office/survey" in report
    assert "wifi" in report
    assert "GPS duty cycle" in report
    assert "error_prediction" in report and "Table V ms" in report


def _capture_cdf_errors(monkeypatch):
    """Record the per-estimator errors `run PLACE PATH` plots."""
    import repro.eval.plots as plots

    seen = {}
    render_cdf = plots.render_cdf

    def spy(errors_by_system, *args, **kwargs):
        seen.update(errors_by_system)
        return render_cdf(errors_by_system, *args, **kwargs)

    monkeypatch.setattr(plots, "render_cdf", spy)
    return seen


def _plotted_errors(result):
    from repro.eval import SCHEME_NAMES

    estimators = list(SCHEME_NAMES) + ["optsel", "uniloc1", "uniloc2"]
    return {e: result.errors(e) for e in estimators if result.errors(e)}


def test_run_place_path_is_the_engine_job(monkeypatch, capsys):
    from repro.fleet import WalkJob, run_walks

    seen = _capture_cdf_errors(monkeypatch)
    assert main(["run", "office", "survey"]) == 0
    job = WalkJob(
        "office", "survey", setup_seed=3, models_seed=0, walk_seed=0, trace_seed=1
    )
    (expected,) = run_walks([job])
    assert seen == _plotted_errors(expected)


def test_run_with_models_file_leaves_persistent_cache_alone(
    tmp_path, monkeypatch, capsys
):
    from repro.eval.setup import train_error_models
    from repro.fleet import ArtifactCache, WalkJob, run_walks
    from repro.persistence import load_error_models, save_error_models

    models_file = tmp_path / "models.json"
    save_error_models(train_error_models(seed=0, n_walks_per_place=1), models_file)
    cache_dir = tmp_path / "cache"
    ArtifactCache(cache_dir).place_setup("office", 3)

    def listing():
        return sorted(
            (p.name, p.stat().st_size, p.stat().st_mtime_ns)
            for p in cache_dir.iterdir()
        )

    before = listing()
    seen = _capture_cdf_errors(monkeypatch)
    argv = ["run", "office", "survey", "--models", str(models_file)]
    assert main(argv + ["--cache-dir", str(cache_dir)]) == 0
    assert listing() == before
    primed = ArtifactCache()
    primed.put_error_models(load_error_models(models_file), 0)
    (expected,) = run_walks([WalkJob("office", "survey")], cache=primed)
    assert seen == _plotted_errors(expected)


@pytest.mark.parametrize("fmt", [None, "fingerprints"], ids=["missing", "fingerprints"])
def test_run_with_unreadable_models_file_exits_2(fmt, tmp_path, capsys):
    import json

    from repro.formats import format_header
    from repro.persistence import FORMAT_VERSION

    models_file = tmp_path / "models.json"
    if fmt is not None:  # a readable artifact, but not error models
        header = format_header(fmt, FORMAT_VERSION)
        models_file.write_text(json.dumps({**header, "entries": []}))
    log = tmp_path / "t.jsonl"
    argv = ["run", "office", "survey", "--models", str(models_file)]
    assert main(argv + ["--telemetry", str(log)]) == 2
    assert "cannot read models file" in capsys.readouterr().err
    assert not log.exists()  # the file is read before the log is opened


@pytest.mark.parametrize("command", ["run", "profile", "sanitize"])
def test_n_walks_flag_is_gone(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "fig5", "--n-walks", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n-walks" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["run", "office", "survey"], ["run", "fig3"], ["chaos"]]
)
def test_unwritable_telemetry_log_exits_2(argv, tmp_path, capsys):
    log = tmp_path / "missing-dir" / "t.jsonl"
    assert main(argv + ["--telemetry", str(log)]) == 2
    assert "cannot write telemetry log" in capsys.readouterr().err


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
    assert "unknown experiment 'fig99'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "profile", "sanitize"])
def test_unknown_experiment_message_lists_known(command, capsys):
    from repro.eval.registry import EXPERIMENTS

    assert main([command, "nope"]) == 2
    err = capsys.readouterr().err
    assert f"unknown experiment 'nope'; known: {', '.join(EXPERIMENTS)}" in err


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


def test_chaos_unknown_place_leaves_no_telemetry_log(tmp_path, capsys):
    log = tmp_path / "chaos.jsonl"
    assert main(["chaos", "--place", "atlantis", "--telemetry", str(log)]) == 2
    assert "unknown place" in capsys.readouterr().err
    assert not log.exists()


def test_chaos_hang_exits_2_before_the_log_opens(tmp_path, capsys):
    """``hang`` is not a fault kind: argparse refuses it before any log opens."""
    log = tmp_path / "chaos.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--kind", "hang", "--telemetry", str(log)])
    assert exc.value.code == 2
    assert "invalid choice: 'hang'" in capsys.readouterr().err
    assert not log.exists()


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


def test_report_prints_the_run_block(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    _write_synthetic_telemetry(log)
    assert main(["report", str(log)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("run: run-t — fig7\n")
    assert "4 events from 1 worker(s): worker-1" in out
    assert "office" in out
    # Selections are counted from step events, not metric events.
    assert "wifi" not in out


@pytest.mark.parametrize(
    "argv",
    [["telemetry", "summary"], ["telemetry", "export", "--format", "jsonl"]],
)
def test_telemetry_summary_and_export_format_are_gone(argv, tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    _write_synthetic_telemetry(log)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + [str(log)])
    assert exc.value.code == 2


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
    assert main(["telemetry", "export", str(bogus)]) == 2
    assert "cannot read telemetry log" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["report"],
        ["telemetry", "tail"],
        ["telemetry", "tail", "--follow", "--poll-s", "0"],
        ["telemetry", "export"],
    ],
)
def test_every_log_reader_rejects_a_non_object_line(command, tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    _write_synthetic_telemetry(log)
    with log.open("a") as fh:
        fh.write("[1, 2]\n")
    assert main(command + [str(log)]) == 2
    err = capsys.readouterr().err
    assert "cannot read telemetry log" in err
    assert f"{log}:6: not a JSON object" in err


def test_chaos_kind_choices_are_the_scheme_fault_kinds():
    import argparse

    from repro.faults.plan import SCHEME_FAULT_KINDS

    (commands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    (kind,) = [a for a in commands.choices["chaos"]._actions if a.dest == "kind"]
    assert tuple(kind.choices) == SCHEME_FAULT_KINDS


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


def test_bench_compare_names_ungated_benches(tmp_path, capsys):
    from repro.bench import BenchReport, Timing

    def save(name, benches):
        results = {}
        for bench in benches:
            results[f"{bench}.scalar"] = Timing(p50_ms=4.0, p90_ms=4.0, n_iterations=3)
            results[f"{bench}.kernel"] = Timing(p50_ms=1.0, p90_ms=1.0, n_iterations=3)
        BenchReport(place="office", seed=0, created_at=1.0, results=results).save(
            tmp_path / name
        )
        return str(tmp_path / name)

    base = save("BENCH_base.json", ["shadowing"])
    cur = save("BENCH_cur.json", ["shadowing", "map_constraint", "bma_readout"])
    assert main(["bench", "compare", base, cur]) == 0  # the verdict is unchanged
    out = capsys.readouterr().out
    assert "ungated: bma_readout, map_constraint (not in the baseline)" in out
    assert "no regressions" in out
    assert main(["bench", "compare", base, base]) == 0
    assert "ungated" not in capsys.readouterr().out


@pytest.mark.parametrize("out", ["a_dir", "missing/BENCH_x.json"])
def test_bench_run_checks_out_before_timing(tmp_path, monkeypatch, capsys, out):
    """An ``--out`` that is a directory, or has no directory, exits 2
    with one line before a single bench is timed."""
    import repro.bench

    def no_timing(**kwargs):
        raise AssertionError("run_benches ran before --out was checked")

    monkeypatch.setattr(repro.bench, "run_benches", no_timing)
    (tmp_path / "a_dir").mkdir()
    path = str(tmp_path / out)
    assert main(["bench", "run", "--out", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"--out {path}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--place", "atlantis"], "unknown place 'atlantis'"),
        (["--repeats", "0"], "--repeats must be positive"),
        (["--repeats", "-3"], "--repeats must be positive"),
    ],
)
def test_bench_run_checks_arguments_before_work(monkeypatch, capsys, argv, message):
    """An unknown ``--place`` or a ``--repeats`` below 1 exits 2 with one
    line before any place is set up or bench timed."""
    import repro.bench

    def no_work(**kwargs):
        raise AssertionError("run_benches ran before its arguments were checked")

    monkeypatch.setattr(repro.bench, "run_benches", no_work)
    assert main(["bench", "run", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
