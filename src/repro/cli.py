"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's workflow:

``places``
    List the built-in worlds and their paths.
``train [--out models.json]``
    Run the one-time error-model training (§III) and optionally save
    the fitted models.
``run EXPERIMENT | run PLACE PATH``
    Either reproduce a registered paper artifact by name (``repro run
    fig7 --workers 4``; ``repro run --list`` shows the registry), or
    walk one path with UniLoc and print per-system error statistics,
    the scheme-usage bars, and a CDF plot.
``cache ls|clear|warm|key``
    Manage the persistent artifact cache (surveys, trained models)
    that the experiment engine reads; see README "Parallel execution
    & caching".
``survey PLACE --out prints.json``
    Deploy a place and dump its Wi-Fi fingerprint survey.
``record PLACE PATH --out trace.json``
    Record a raw sensor trace for offline experimentation.
``tables``
    Regenerate the paper's energy and response-time tables.
``report LOG``
    Aggregate the ``step`` events of a telemetry log into per-scheme
    usage, availability, latency percentiles, and duty-cycle stats, one
    table per walk.  One of three post-run analysis paths — see also
    ``telemetry`` for fleet rollups and ``bench trend`` for performance
    history.
``telemetry tail|summary|export``
    Inspect a fleet telemetry event log: ``tail`` prints recent events
    (or follows a live run with ``--follow``), ``summary`` renders
    per-place and per-scheme rollups, ``export`` serializes the merged
    metrics as Prometheus text or JSONL (see README "Observability").
``profile EXPERIMENT``
    Run a registered experiment under the deterministic sampling
    profiler and print the hot-function table; ``--out`` writes
    collapsed stacks for flamegraph renderers.
``chaos [--kind crash] [--workers N] [--strict]``
    Run the fault-matrix resilience experiment: one clean baseline walk
    plus one walk per scheme with that scheme at 100% failure, printing
    whether UniLoc2 still beats the best surviving single scheme (see
    README "Fault injection & resilience").
``lint [paths] [--rule ID] [--format text|json|sarif] [--baseline [FILE]]``
    Run the repo-specific static-analysis rules over the tree: the
    syntactic set (unseeded randomness, wall-clock reads,
    process-boundary purity, metric-name integrity, unit suffixes)
    plus the dataflow-aware set (DET101 seed lineage, PUR101 escape
    analysis, SHP001 shape contracts).  Exits 1 on any error-tier
    finding; ``--format sarif`` targets GitHub code scanning (see
    README "Static analysis").
``sanitize EXPERIMENT [--n-walks N] [--json]``
    Runtime determinism check: run a registered experiment twice under
    scripted clocks and a recording RNG constructor, then bisect the
    two telemetry streams for the first diverging event; exits 1 on
    divergence with the break localized to job/worker/walk seed.
``bench run|compare|trend``
    ``bench run`` times the radio kernels against their scalar
    baselines on one place and writes a versioned ``BENCH_<date>.json``
    report; ``bench compare BASELINE CURRENT`` diffs two reports and
    exits 1 when a speedup regressed past the threshold; ``bench trend
    FILES...`` computes per-benchmark speedup trajectories across a
    whole report history and flags best-ever regressions (see README
    "Performance").

Both forms of ``run`` accept ``--telemetry LOG``, which streams the
live ``uniloc_telemetry`` event log (job/step/span/fault/metric events
with correlated run/job/worker IDs) to ``LOG`` while the walks run;
``run PLACE PATH --telemetry LOG`` also records per-scheme latencies,
and ``repro report LOG`` aggregates the log's step events.  Offline
artifacts come from the fleet cache: set ``REPRO_CACHE_DIR`` (or pass
``--cache-dir``) and repeated invocations skip training and surveying.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np


def _builders():
    from repro.fleet import place_builders

    return place_builders()


def _cache(args: argparse.Namespace):
    """Return the cache the command should use (honoring ``--cache-dir``)."""
    from repro.fleet import ArtifactCache, default_cache

    root = getattr(args, "cache_dir", None)
    if root:
        return ArtifactCache(root)
    return default_cache()


def cmd_places(_: argparse.Namespace) -> int:
    """List built-in places and their paths."""
    for name, build in _builders().items():
        place = build()
        paths = ", ".join(
            f"{p.name} ({p.length():.0f} m)" for p in place.paths.values()
        )
        print(f"{name:18s} {paths}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    """Train the error models and optionally persist them."""
    models = _cache(args).error_models(args.seed)
    for name, model_set in models.items():
        for label, model in (
            ("indoor", model_set.indoor),
            ("outdoor", model_set.outdoor),
        ):
            if model.is_fitted:
                s = model.summary
                betas = ", ".join(f"{b:+.3f}" for b in s.coefficients)
                print(
                    f"{name:9s} {label:8s} beta=[{betas}] "
                    f"sigma_e={s.residual_std:.2f} R2={s.r_squared:.2f} n={s.n_samples}"
                )
    if args.out:
        from repro.persistence import save_error_models

        save_error_models(models, args.out)
        print(f"\nsaved to {args.out}")
    return 0


def _prepare_run(args: argparse.Namespace, metrics=None):
    """Setup for ``run PLACE PATH``.

    Returns ``(setup, framework, walk, snaps)`` or an exit code on a
    bad place/path.  When ``metrics`` is given it is attached to the
    cache for the duration of the setup, so artifact I/O during model
    loading and surveying is metered into it.
    """
    from repro.eval import build_framework

    cache = _cache(args)
    previous_metrics = cache.metrics
    if metrics is not None:
        cache.metrics = metrics
    try:
        if args.place not in _builders():
            print(
                f"unknown place {args.place!r}; see `repro places`",
                file=sys.stderr,
            )
            return 2
        if args.models:
            from repro.persistence import load_error_models

            models = load_error_models(args.models)
        else:
            models = cache.error_models(args.seed)
        setup = cache.place_setup(args.place, args.seed + 3)
        if args.path not in setup.place.paths:
            print(
                f"unknown path {args.path!r}; this place has: "
                + ", ".join(setup.place.paths),
                file=sys.stderr,
            )
            return 2
        walk, snaps = setup.record_walk(
            args.path, walk_seed=args.seed, trace_seed=args.seed + 1
        )
        framework = build_framework(setup, models, walk.moments[0].position)
        return setup, framework, walk, snaps
    finally:
        if metrics is not None:
            cache.metrics = previous_metrics


def _run_experiment(args: argparse.Namespace) -> int:
    """Dispatch ``repro run <experiment>`` through the registry."""
    from repro.eval.registry import get_experiment, render_result, run_experiment
    from repro.fleet import set_default_cache

    if args.cache_dir:
        set_default_cache(_cache(args))
    experiment = get_experiment(args.place)
    telemetry_log = getattr(args, "telemetry", None)
    if telemetry_log:
        from repro.obs.telemetry import telemetry_session

        with telemetry_session(telemetry_log, experiment=args.place) as session:
            session.emitter().emit(
                "log", "experiment", message=experiment.title
            )
            result = run_experiment(
                args.place,
                seed=args.seed if args.seed != 0 else None,
                n_walks=args.n_walks,
                workers=args.workers,
            )
        print(
            f"wrote {session.writer.n_events} telemetry events "
            f"to {telemetry_log}\n"
        )
    else:
        result = run_experiment(
            args.place,
            seed=args.seed if args.seed != 0 else None,
            n_walks=args.n_walks,
            workers=args.workers,
        )
    print(f"{experiment.name}: {experiment.title}\n")
    print(render_result(experiment, result))
    return 0


def _list_experiments() -> int:
    from repro.eval.registry import EXPERIMENTS

    for experiment in EXPERIMENTS.values():
        print(f"{experiment.name:8s} {experiment.title}")
    return 0


def _walk_path(args: argparse.Namespace, session=None):
    """Walk ``run PLACE PATH``'s path; returns a ``WalkResult`` or an exit code.

    With a telemetry ``session`` the walk is framed as its one job, like
    a serial engine job: per-scheme latencies are traced, and the step
    events land between ``job/started`` and ``job/finished`` plus the
    job's metric deltas (artifact I/O included).
    """
    from repro.eval import run_walk
    from repro.fleet.executor import emit_job_finished, emit_job_started
    from repro.obs import MetricsRegistry, Tracer

    if session is None:
        prepared = _prepare_run(args)
        if isinstance(prepared, int):
            return prepared
        setup, framework, walk, snaps = prepared
        return run_walk(framework, setup.place, args.path, walk, snaps)
    metrics = MetricsRegistry()
    emitter = session.emitter(job_id=session.job_id(0), walk_seed=args.seed)
    start_s = emit_job_started(emitter, args.place, args.path)
    prepared = _prepare_run(args, metrics=metrics)
    if isinstance(prepared, int):
        return prepared
    setup, framework, walk, snaps = prepared
    framework.tracer = Tracer()
    framework.metrics = metrics
    result = run_walk(
        framework, setup.place, args.path, walk, snaps, telemetry=emitter
    )
    emit_job_finished(emitter, start_s, len(result.records), metrics)
    return result


def cmd_run(args: argparse.Namespace) -> int:
    """Run a registered experiment, or UniLoc over one place/path."""
    from repro.eval.registry import EXPERIMENTS

    if args.list:
        return _list_experiments()
    if args.place is None:
        print("run needs an experiment name or PLACE PATH", file=sys.stderr)
        return 2
    if args.path is None:
        if args.place in EXPERIMENTS:
            return _run_experiment(args)
        print(
            f"{args.place!r} is neither a registered experiment "
            f"(see `repro run --list`) nor was a PATH given",
            file=sys.stderr,
        )
        return 2

    from repro.eval import SCHEME_NAMES
    from repro.eval.plots import render_bars, render_cdf

    session = None
    if args.telemetry is not None:
        from repro.obs.telemetry import TelemetrySession

        # Opened before the expensive setup: model training takes
        # minutes, and an unwritable log should fail in milliseconds.
        try:
            session = TelemetrySession(
                args.telemetry, experiment=f"{args.place}/{args.path}"
            )
        except OSError as exc:
            print(f"cannot write telemetry log: {exc}", file=sys.stderr)
            return 2
    try:
        result = _walk_path(args, session)
    finally:
        if session is not None:
            session.close()
    if isinstance(result, int):
        if session is not None:
            session.path.unlink(missing_ok=True)
        return result
    if session is not None:
        print(
            f"wrote {session.writer.n_events} telemetry events "
            f"to {args.telemetry}"
        )

    print(f"\n{args.place}/{args.path}: {len(result.records)} estimates\n")
    errors_by_system = {}
    for estimator in list(SCHEME_NAMES) + ["optsel", "uniloc1", "uniloc2"]:
        errors = result.errors(estimator)
        if errors:
            errors_by_system[estimator] = errors
            print(
                f"  {estimator:9s} mean {np.mean(errors):6.2f} m   "
                f"p50 {np.percentile(errors, 50):6.2f} m   "
                f"p90 {np.percentile(errors, 90):6.2f} m"
            )
    print("\nUniLoc1 scheme usage:")
    print(render_bars(result.usage("uniloc1")))
    print("\n" + render_cdf(errors_by_system))
    return 0


def _cache_root(args: argparse.Namespace) -> str:
    return args.dir or os.environ.get("REPRO_CACHE_DIR") or ".repro-cache"


def cmd_cache(args: argparse.Namespace) -> int:
    """Manage the persistent artifact cache."""
    from repro.fleet import ArtifactCache, config_hash, place_names

    if args.cache_command == "key":
        print(config_hash())
        return 0

    cache = ArtifactCache(_cache_root(args))
    if args.cache_command == "ls":
        entries = cache.entries()
        if not entries:
            print(f"cache at {cache.root} is empty")
            return 0
        for entry in entries:
            print(entry.describe())
        total = sum(e.size_bytes for e in entries)
        print(f"\n{len(entries)} entries, {total / 1024:.1f} KiB in {cache.root}")
        return 0
    if args.cache_command == "clear":
        removed = cache.clear(args.artifact)
        print(f"removed {removed} entries from {cache.root}")
        return 0
    if args.cache_command == "warm":
        places = args.places or None
        unknown = [p for p in (places or []) if p not in place_names()]
        if unknown:
            print(f"unknown places: {', '.join(unknown)}", file=sys.stderr)
            return 2
        warmed = cache.warm(places=places, seed=args.seed)
        for key in warmed:
            print(f"warm: {key}")
        print(f"\n{len(warmed)} artifacts ready in {cache.root}")
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def cmd_survey(args: argparse.Namespace) -> int:
    """Dump a place's Wi-Fi fingerprint survey to JSON."""
    from repro.eval import PlaceSetup
    from repro.persistence import save_fingerprints

    builders = _builders()
    if args.place not in builders:
        print(f"unknown place {args.place!r}", file=sys.stderr)
        return 2
    setup = PlaceSetup.create(builders[args.place](), seed=args.seed + 3)
    save_fingerprints(setup.wifi_db, args.out)
    print(f"saved {len(setup.wifi_db)} fingerprints to {args.out}")
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    """Record one walk's raw sensor trace to JSON."""
    from repro.eval import PlaceSetup
    from repro.persistence import save_trace

    builders = _builders()
    if args.place not in builders:
        print(f"unknown place {args.place!r}", file=sys.stderr)
        return 2
    setup = PlaceSetup.create(builders[args.place](), seed=args.seed + 3)
    if args.path not in setup.place.paths:
        print(f"unknown path {args.path!r}", file=sys.stderr)
        return 2
    _, snaps = setup.record_walk(
        args.path, walk_seed=args.seed, trace_seed=args.seed + 1
    )
    save_trace(snaps, args.out)
    print(f"saved {len(snaps)} snapshots to {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Aggregate a telemetry log's step events, one table per walk.

    ``repro report`` is the per-step view of a log; ``repro telemetry
    summary`` is its fleet-level sibling.
    """
    from repro.obs import read_telemetry, render_report, summarize_steps

    try:
        _, events = read_telemetry(args.log)
    except (OSError, ValueError) as exc:
        print(f"cannot read telemetry log: {exc}", file=sys.stderr)
        return 2
    summaries = summarize_steps(events)
    if not summaries:
        print(f"{args.log} has no step events", file=sys.stderr)
        return 2
    print("\n\n".join(render_report(summary) for summary in summaries))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the single-scheme-outage resilience matrix and report it."""
    import json

    from repro.faults.chaos import chaos_matrix
    from repro.fleet import set_default_cache
    from repro.obs import MetricsRegistry

    if args.cache_dir:
        set_default_cache(_cache(args))
    metrics = MetricsRegistry()
    telemetry_note = None
    try:
        if args.telemetry:
            from repro.obs.telemetry import telemetry_session

            with telemetry_session(
                args.telemetry, experiment=f"chaos-{args.kind}"
            ) as session:
                rows = chaos_matrix(
                    seed=args.seed,
                    workers=args.workers,
                    place_name=args.place,
                    path_name=args.path,
                    kind=args.kind,
                    metrics=metrics,
                )
            telemetry_note = (
                f"wrote {session.writer.n_events} telemetry events "
                f"to {args.telemetry}"
            )
        else:
            rows = chaos_matrix(
                seed=args.seed,
                workers=args.workers,
                place_name=args.place,
                path_name=args.path,
                kind=args.kind,
                metrics=metrics,
            )
    except ValueError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    if telemetry_note and not args.json:
        # Kept out of --json mode so stdout stays parseable.
        print(telemetry_note + "\n")

    if args.json:
        from dataclasses import asdict

        print(json.dumps({k: asdict(v) for k, v in rows.items()}, indent=2))
    else:
        print(
            f"chaos matrix: {args.place}/{args.path}, "
            f"fault kind {args.kind!r}, seed {args.seed}\n"
        )
        for name, row in rows.items():
            print(f"  {name:9s} {row.describe()}")
        fault_lines = [
            f"  {name:40s} {metric.value}"
            for name, metric in sorted(metrics)
            if name.startswith(("uniloc.faults.", "uniloc.quarantine."))
        ]
        if fault_lines:
            print("\nfault telemetry:")
            print("\n".join(fault_lines))

    degraded = [r for r in rows.values() if r.outage != "none"]
    losses = [r for r in degraded if not r.survived or r.margin <= 0]
    if losses:
        print(
            "\nresilience violated: "
            + ", ".join(r.outage for r in losses),
            file=sys.stderr,
        )
    if args.strict and losses:
        return 1
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    """Inspect a fleet telemetry event log (tail/summary/export)."""
    from repro.obs.telemetry import (
        follow_telemetry,
        format_event,
        read_telemetry,
        registry_from_events,
        render_telemetry_summary,
        summarize_telemetry,
    )

    if args.telemetry_command == "tail":
        try:
            if args.follow:
                for event in follow_telemetry(args.log, poll_s=args.poll_s):
                    print(format_event(event), flush=True)
                return 0
            meta, events = read_telemetry(args.log)
        except (OSError, ValueError) as exc:
            print(f"cannot read telemetry log: {exc}", file=sys.stderr)
            return 2
        except KeyboardInterrupt:
            return 0
        print(format_event(meta))
        shown = events[-args.last :] if args.last > 0 else events
        for event in shown:
            print(format_event(event))
        return 0
    try:
        meta, events = read_telemetry(args.log)
    except (OSError, ValueError) as exc:
        print(f"cannot read telemetry log: {exc}", file=sys.stderr)
        return 2
    if args.telemetry_command == "summary":
        print(render_telemetry_summary(summarize_telemetry(meta, events)))
        return 0
    if args.telemetry_command == "export":
        from pathlib import Path

        from repro.obs.exporters import get_exporter

        registry = registry_from_events(events)
        text = get_exporter(args.format).export(registry)
        if args.out:
            Path(args.out).write_text(text)
            print(f"wrote {args.format} metrics to {args.out}")
        else:
            print(text, end="")
        return 0
    raise AssertionError(
        f"unhandled telemetry command {args.telemetry_command!r}"
    )


def cmd_profile(args: argparse.Namespace) -> int:
    """Run an experiment under the sampling profiler."""
    from pathlib import Path

    from repro.eval.registry import EXPERIMENTS, get_experiment, run_experiment
    from repro.fleet import set_default_cache
    from repro.obs.profiler import SamplingProfiler

    if args.experiment not in EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"see `repro run --list`",
            file=sys.stderr,
        )
        return 2
    if args.cache_dir:
        set_default_cache(_cache(args))
    experiment = get_experiment(args.experiment)
    profiler = SamplingProfiler(interval_s=args.interval_ms / 1e3)
    with profiler:
        run_experiment(
            args.experiment,
            seed=args.seed if args.seed != 0 else None,
            n_walks=args.n_walks,
            workers=args.workers,
        )
    print(f"{experiment.name}: {experiment.title}\n")
    print(profiler.render_table(args.top))
    if args.out:
        Path(args.out).write_text(profiler.collapsed())
        print(f"\nwrote collapsed stacks to {args.out}")
    return 0


#: Where ``repro lint`` looks for a baseline when ``--baseline`` is
#: given without a path, and where ``--write-baseline`` writes one.
DEFAULT_BASELINE = "lint-baseline.json"

#: Default per-file result cache (keyed on content + rule versions).
DEFAULT_LINT_CACHE = ".repro-cache/lint-cache.json"


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static-analysis rules; exit 1 on error-tier findings."""
    import json

    from repro.analysis import LintEngine, default_rules, load_baseline, write_baseline

    rules = default_rules()
    if args.rule:
        wanted = {rule_id.upper() for rule_id in args.rule}
        known = {rule.id for rule in rules}
        unknown = wanted - known
        if unknown:
            print(
                f"unknown rule(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}",
                file=sys.stderr,
            )
            return 2
        rules = [rule for rule in rules if rule.id in wanted]

    baseline: frozenset[str] = frozenset()
    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except FileNotFoundError:
            print(f"no baseline at {args.baseline}", file=sys.stderr)
            return 2
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline: {exc}", file=sys.stderr)
            return 2

    engine = LintEngine(
        rules=rules,
        cache_path=None if args.no_cache else args.cache_path,
        baseline=baseline,
    )
    try:
        report = engine.lint_paths(args.paths)
    except FileNotFoundError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline is not None:
        n = write_baseline(args.write_baseline, report.findings)
        print(
            f"wrote baseline with {n} fingerprint(s) to {args.write_baseline}"
        )
        return 0
    fmt = "json" if args.json else args.format
    if fmt == "json":
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    elif fmt == "sarif":
        from repro.analysis.sarif import to_sarif

        print(json.dumps(to_sarif(report, rules), indent=1, sort_keys=True))
    else:
        print(report.render())
    return 1 if report.n_errors else 0


def cmd_sanitize(args: argparse.Namespace) -> int:
    """Run the determinism sanitizer; exit 1 when the runs diverge."""
    import json

    from repro.analysis.sanitizer import sanitize_experiment
    from repro.eval.registry import experiment_names

    if args.experiment not in experiment_names():
        print(
            f"unknown experiment {args.experiment!r}; "
            f"known: {', '.join(experiment_names())}",
            file=sys.stderr,
        )
        return 2
    report = sanitize_experiment(
        args.experiment,
        seed=args.seed,
        n_walks=args.n_walks,
        out_dir=args.out_dir,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.clean else 1


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the kernel microbenches, or compare two BENCH reports."""
    from repro.bench import compare_reports, load_report, run_benches
    from repro.bench.runner import default_bench_filename
    from repro.formats import UnsupportedFormatError

    if args.bench_command == "run":
        report = run_benches(
            place_name=args.place,
            seed=args.seed,
            repeats=args.repeats,
            include_walk_step=not args.no_walk_step,
            cache=_cache(args),
        )
        print(report.render())
        out = args.out or default_bench_filename(report.created_at)
        report.save(out)
        print(f"\nwrote {out}")
        return 0
    if args.bench_command == "compare":
        try:
            baseline = load_report(args.baseline)
            current = load_report(args.current)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot read bench report: {exc}", file=sys.stderr)
            return 2
        try:
            regressions = compare_reports(
                baseline, current, threshold=args.threshold, metric=args.metric
            )
        except UnsupportedFormatError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        print(
            f"baseline: {args.baseline} (place={baseline.place}, "
            f"seed={baseline.seed})"
        )
        print(
            f"current:  {args.current} (place={current.place}, "
            f"seed={current.seed})"
        )
        base_speedups, cur_speedups = baseline.speedups(), current.speedups()
        for bench in sorted(base_speedups.keys() | cur_speedups.keys()):
            print(
                f"  {bench:28s} baseline "
                f"{base_speedups.get(bench, float('nan')):8.1f}x   current "
                f"{cur_speedups.get(bench, float('nan')):8.1f}x"
            )
        if regressions:
            print(f"\n{len(regressions)} regression(s):", file=sys.stderr)
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"\nno regressions (threshold {args.threshold:.0%}, {args.metric})")
        return 0
    if args.bench_command == "trend":
        from pathlib import Path

        from repro.bench.trend import (
            compute_trends,
            flag_regressions,
            load_history,
            render_csv,
            render_markdown,
        )

        history, skipped = load_history(args.reports)
        for note in skipped:
            print(f"trend: skipping {note}", file=sys.stderr)
        if not history:
            print("no readable bench reports", file=sys.stderr)
            return 2
        trends = compute_trends(history)
        if args.format == "markdown":
            text = render_markdown(
                trends, threshold=args.threshold, skipped=skipped
            )
        else:
            text = render_csv(trends)
        if args.out:
            Path(args.out).write_text(text)
            print(f"wrote trend report to {args.out}")
        else:
            print(text, end="")
        regressions = flag_regressions(trends, args.threshold)
        if regressions and args.strict:
            return 1
        return 0
    raise AssertionError(f"unhandled bench command {args.bench_command!r}")


def cmd_tables(_: argparse.Namespace) -> int:
    """Print the modeled Table IV / Table V constants."""
    from repro.energy import response_time, scheme_energy

    print("Energy per system (230 s walk, 460 estimates):")
    for name in ("gps", "wifi", "cellular", "motion", "fusion", "uniloc"):
        report = scheme_energy(name, 230.0, 460, gps_duty=0.0)
        print(f"  {name:9s} {report.power_mw:6.0f} mW  {report.energy_j:7.1f} J")
    bt = response_time()
    print(
        f"\nResponse time: {bt.total_ms:.1f} ms total, "
        f"{bt.transmission_fraction:.0%} transmissions, "
        f"UniLoc adds {bt.uniloc_added_ms:.1f} ms"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="UniLoc reproduction command line"
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("places", help="list built-in worlds").set_defaults(func=cmd_places)

    p_train = sub.add_parser("train", help="train the error models")
    p_train.add_argument("--out", help="save fitted models to this JSON file")
    p_train.add_argument("--cache-dir", help="persistent artifact cache directory")
    p_train.set_defaults(func=cmd_train)

    p_run = sub.add_parser(
        "run", help="run a registered experiment, or UniLoc over a path"
    )
    p_run.add_argument(
        "place", nargs="?", help="experiment name (see --list) or place"
    )
    p_run.add_argument("path", nargs="?", help="path within the place")
    p_run.add_argument(
        "--list", action="store_true", help="list registered experiments"
    )
    p_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for multi-walk experiments",
    )
    p_run.add_argument(
        "--n-walks", type=int, default=None, help="walks to pool (pooled experiments)"
    )
    p_run.add_argument("--cache-dir", help="persistent artifact cache directory")
    p_run.add_argument("--models", help="load fitted models instead of training")
    p_run.add_argument(
        "--telemetry",
        metavar="LOG",
        help="stream the telemetry event log (job, step, fault and metric "
        "events) here; `repro report LOG` aggregates its steps",
    )
    p_run.set_defaults(func=cmd_run)

    p_cache = sub.add_parser("cache", help="manage the persistent artifact cache")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_ls = cache_sub.add_parser("ls", help="list cache entries")
    p_ls.add_argument(
        "--dir", help="cache directory (default: $REPRO_CACHE_DIR or .repro-cache)"
    )
    p_clear = cache_sub.add_parser("clear", help="delete cache entries")
    p_clear.add_argument("--dir", help="cache directory")
    p_clear.add_argument(
        "--artifact", choices=["error_models", "place_setup"],
        help="only clear one artifact kind",
    )
    p_warm = cache_sub.add_parser(
        "warm", help="pre-build every artifact the experiments need"
    )
    p_warm.add_argument("--dir", help="cache directory")
    p_warm.add_argument(
        "--places", nargs="*", help="only warm these places (default: all)"
    )
    cache_sub.add_parser(
        "key", help="print the config hash cache entries are keyed on"
    )
    p_cache.set_defaults(func=cmd_cache)

    p_report = sub.add_parser(
        "report",
        help="summarize a telemetry log's step events (usage, latency, "
        "duty cycle); see also `telemetry` and `bench trend`",
    )
    p_report.add_argument("log", help="telemetry event log (JSONL)")
    p_report.set_defaults(func=cmd_report)

    p_tel = sub.add_parser(
        "telemetry", help="inspect or follow a fleet telemetry event log"
    )
    tel_sub = p_tel.add_subparsers(dest="telemetry_command", required=True)
    p_tel_tail = tel_sub.add_parser(
        "tail", help="print recent events, or follow a live run"
    )
    p_tel_tail.add_argument("log", help="telemetry event log (JSONL)")
    p_tel_tail.add_argument(
        "--last",
        type=int,
        default=20,
        help="events to show (default: 20; 0 = all)",
    )
    p_tel_tail.add_argument(
        "--follow",
        action="store_true",
        help="keep polling for new events (Ctrl-C stops)",
    )
    p_tel_tail.add_argument(
        "--poll-s",
        type=float,
        default=0.5,
        help="poll interval while following (default: 0.5)",
    )
    p_tel_tail.set_defaults(func=cmd_telemetry)
    p_tel_sum = tel_sub.add_parser(
        "summary", help="render per-place and per-scheme rollups"
    )
    p_tel_sum.add_argument("log", help="telemetry event log (JSONL)")
    p_tel_sum.set_defaults(func=cmd_telemetry)
    p_tel_exp = tel_sub.add_parser(
        "export", help="export the merged metrics (prometheus/jsonl)"
    )
    p_tel_exp.add_argument("log", help="telemetry event log (JSONL)")
    p_tel_exp.add_argument(
        "--format",
        choices=["prometheus", "jsonl"],
        default="prometheus",
        help="wire format (default: prometheus)",
    )
    p_tel_exp.add_argument("--out", help="write here instead of stdout")
    p_tel_exp.set_defaults(func=cmd_telemetry)

    p_profile = sub.add_parser(
        "profile", help="run an experiment under the sampling profiler"
    )
    p_profile.add_argument(
        "experiment", help="registered experiment name (see `repro run --list`)"
    )
    p_profile.add_argument(
        "--interval-ms",
        type=float,
        default=5.0,
        help="sampling interval in milliseconds (default: 5)",
    )
    p_profile.add_argument(
        "--top", type=int, default=15, help="hot functions to list (default: 15)"
    )
    p_profile.add_argument(
        "--out", help="write collapsed (flamegraph-ready) stacks here"
    )
    p_profile.add_argument(
        "--workers", type=int, default=None, help="fleet worker processes"
    )
    p_profile.add_argument(
        "--n-walks", type=int, default=None, help="walks to pool"
    )
    p_profile.add_argument(
        "--cache-dir", help="persistent artifact cache directory"
    )
    p_profile.set_defaults(func=cmd_profile)

    p_survey = sub.add_parser("survey", help="dump a Wi-Fi fingerprint survey")
    p_survey.add_argument("place")
    p_survey.add_argument("--out", required=True)
    p_survey.set_defaults(func=cmd_survey)

    p_record = sub.add_parser("record", help="record a raw sensor trace")
    p_record.add_argument("place")
    p_record.add_argument("path")
    p_record.add_argument("--out", required=True)
    p_record.set_defaults(func=cmd_record)

    p_chaos = sub.add_parser(
        "chaos", help="run the single-scheme-outage resilience matrix"
    )
    p_chaos.add_argument(
        "--place", default="daily", help="place to walk (default: daily)"
    )
    p_chaos.add_argument(
        "--path", default="path1", help="path within the place (default: path1)"
    )
    p_chaos.add_argument(
        "--kind",
        default="crash",
        choices=["crash", "drop", "hang", "nan", "garbage"],
        help="scheme fault kind to inject (default: crash)",
    )
    p_chaos.add_argument(
        "--workers", type=int, default=1, help="fleet worker processes"
    )
    p_chaos.add_argument(
        "--json", action="store_true", help="emit the matrix as JSON"
    )
    p_chaos.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 if any outage breaks the UniLoc2-beats-survivors shape",
    )
    p_chaos.add_argument("--cache-dir", help="persistent artifact cache directory")
    p_chaos.add_argument(
        "--telemetry",
        metavar="LOG",
        help="stream the fault/quarantine event log here (replayable "
        "chaos record)",
    )
    p_chaos.set_defaults(func=cmd_chaos)

    p_lint = sub.add_parser(
        "lint", help="run the repo-specific static-analysis rules"
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files/directories to analyze (default: src tests)",
    )
    p_lint.add_argument(
        "--rule",
        action="append",
        metavar="ID",
        help="only run this rule (repeatable, e.g. --rule DET001)",
    )
    p_lint.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report (same as --format json)",
    )
    p_lint.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="output format; sarif targets GitHub code scanning "
        "(default: text)",
    )
    p_lint.add_argument(
        "--baseline",
        nargs="?",
        const=DEFAULT_BASELINE,
        help=f"suppress findings recorded in FILE (default: {DEFAULT_BASELINE})",
    )
    p_lint.add_argument(
        "--write-baseline",
        nargs="?",
        const=DEFAULT_BASELINE,
        metavar="FILE",
        help="record current findings as the baseline and exit 0",
    )
    p_lint.add_argument(
        "--cache-path",
        default=DEFAULT_LINT_CACHE,
        help=f"per-file result cache (default: {DEFAULT_LINT_CACHE})",
    )
    p_lint.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    p_lint.set_defaults(func=cmd_lint)

    p_san = sub.add_parser(
        "sanitize",
        help="run an experiment twice and bisect any determinism break",
    )
    p_san.add_argument(
        "experiment", help="registered experiment name (see `repro run --list`)"
    )
    p_san.add_argument(
        "--n-walks", type=int, default=None, help="walks to pool"
    )
    p_san.add_argument(
        "--out-dir",
        default=None,
        help="directory for the two telemetry logs "
        "(default: .repro-cache/sanitize)",
    )
    p_san.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable divergence report",
    )
    p_san.set_defaults(func=cmd_sanitize)

    p_bench = sub.add_parser(
        "bench", help="run or compare the kernel microbenchmarks"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_bench_run = bench_sub.add_parser(
        "run", help="time kernels vs scalar baselines, write BENCH_<date>.json"
    )
    p_bench_run.add_argument(
        "--place", default="office", help="place to bench on (default: office)"
    )
    p_bench_run.add_argument(
        "--repeats", type=int, default=20, help="iterations per bench"
    )
    p_bench_run.add_argument(
        "--out", help="report path (default: BENCH_<date>.json)"
    )
    p_bench_run.add_argument(
        "--no-walk-step",
        action="store_true",
        help="skip the end-to-end walk-step bench (no model training)",
    )
    p_bench_run.add_argument(
        "--cache-dir", help="persistent artifact cache directory"
    )
    p_bench_run.set_defaults(func=cmd_bench)
    p_bench_cmp = bench_sub.add_parser(
        "compare", help="diff two BENCH reports; exit 1 on regression"
    )
    p_bench_cmp.add_argument("baseline", help="baseline BENCH_*.json")
    p_bench_cmp.add_argument("current", help="current BENCH_*.json")
    p_bench_cmp.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fractional drop that counts as a regression (default: 0.25)",
    )
    p_bench_cmp.add_argument(
        "--metric",
        choices=["speedup", "p50"],
        default="speedup",
        help="speedup ratios (machine-independent) or raw p50 (same host)",
    )
    p_bench_cmp.set_defaults(func=cmd_bench)
    p_bench_trend = bench_sub.add_parser(
        "trend", help="speedup trajectories across a BENCH_*.json history"
    )
    p_bench_trend.add_argument(
        "reports",
        nargs="+",
        help="BENCH_*.json files (non-bench JSON is skipped with a note)",
    )
    p_bench_trend.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fractional drop below best-ever that flags a regression "
        "(default: 0.25)",
    )
    p_bench_trend.add_argument(
        "--format",
        choices=["markdown", "csv"],
        default="markdown",
        help="report format (default: markdown)",
    )
    p_bench_trend.add_argument("--out", help="write here instead of stdout")
    p_bench_trend.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any benchmark regressed",
    )
    p_bench_trend.set_defaults(func=cmd_bench)

    sub.add_parser("tables", help="print energy/latency tables").set_defaults(
        func=cmd_tables
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
