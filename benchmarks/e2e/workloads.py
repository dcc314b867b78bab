"""The four end-to-end workloads, run inside one measured process.

``run.py`` starts this file as a fresh subprocess for each workload run
and reads back the JSON record it writes.  Every workload is a closed
loop: a walker's next step starts when the previous one returns, and a
fleet tick waits for all of its lanes.

A *pass* is what a user of the framework does: load the warm artifact
cache into fresh objects, record the walks, build the frameworks, then
step every walk to its end.  Each pass starts from fresh objects, so the
memos a framework fills while walking start as cold as they do for a new
walker, and every pass replays exactly the same steps.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Any, Callable

import numpy as np

from calibration import CAL_REF_MS, Calibrator
from spans import (
    ErrorModelSetProxy,
    ExtractorProxy,
    PredictorProxy,
    SchemeProxy,
    SpanRecorder,
    self_times_ns,
    write_jsonl,
)
from stats import per_op_min, percentile, supports_percentile

from repro.core import SecondOrderHmm
from repro.core.population import PopulationFramework
from repro.eval.runner import score_step
from repro.eval.setup import SCHEME_NAMES, build_framework
from repro.faults.plan import FaultPlan, SchemeFault, SensorFault
from repro.fleet.cache import ArtifactCache
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TelemetrySession
from repro.schemes.particle_filter import ParticleFilter
from repro.schemes.pdr import compensate_steps

#: Survey seed of every place setup (the experiment suite's convention,
#: see ``ArtifactCache.warm``) and training seed of the error models.
#: Both are fixed so that one cache build serves every workload seed.
SETUP_SEED = 3
MODELS_SEED = 0
GRID_CELL_M = 2.0
CACHE_PLACES = ("office", "mall", "open-space", "urban-open-space", "daily")
#: ``run.py`` stores the cache's build time here, in the work dir, when it
#: builds the checkout's cache; the traced run reports it.
CACHE_BUILD_RECORD = "cache-build.json"

#: Timed passes run until ``--seconds`` is spent, but never fewer than this.
MIN_PASSES = 3
#: The warm-up pass walks only this far.  It fills the process-wide lazy
#: state; medians over passes and per-op minima absorb what it leaves.
WARMUP_LENGTH_M = 10.0


@dataclass(frozen=True)
class Lane:
    """One walk: what is recorded and how its framework is built."""

    place: str
    path: str
    walk_seed: int
    trace_seed: int
    max_length: float | None = None
    fault_plan: FaultPlan | None = None
    gps_duty_cycling: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    #: True: all lanes advance together through ``step_batch`` ticks.
    #: False: one walker steps its walks one after another with ``step()``.
    fleet: bool
    telemetry: bool
    #: ``(seed, max_length, n_lanes) -> lanes``; None keeps the full size.
    lanes: Callable[[int, float | None, int | None], list[Lane]]


def _lane(seed: int, i: int, place: str, path: str, max_length: float | None, **kw: Any) -> Lane:
    return Lane(place, path, seed * 1000 + i, seed * 1000 + 500 + i, max_length, **kw)


def _walker(places: tuple[str, str]) -> Callable[[int, float | None, int | None], list[Lane]]:
    """Two full ``survey`` walks in each of two places, stepped in turn."""

    def lanes(seed: int, max_length: float | None, n_lanes: int | None) -> list[Lane]:
        names = [place for place in places for _ in range(2)][: n_lanes or 4]
        return [_lane(seed, i, place, "survey", max_length) for i, place in enumerate(names)]

    return lanes


def _population(seed: int, max_length: float | None, n_lanes: int | None) -> list[Lane]:
    """Half office, half mall walkers, each 80 m into the ``survey`` path."""
    n = n_lanes or 12
    length = max_length or 80.0
    return [
        _lane(seed, i, "office" if i < n // 2 else "mall", "survey", length) for i in range(n)
    ]


def chaos_plan(seed: int) -> FaultPlan:
    """Three scheme fault processes and one radio blackout."""
    return FaultPlan(
        seed=seed,
        scheme_faults=(
            SchemeFault("wifi", "crash", probability=0.3),
            SchemeFault("fusion", "nan", probability=0.2, start_step=100, end_step=250),
            SchemeFault("motion", "garbage", probability=0.5, start_step=300),
        ),
        sensor_faults=(SensorFault("radio_blackout", start_step=150, end_step=200),),
    )


def _chaos(seed: int, max_length: float | None, n_lanes: int | None) -> list[Lane]:
    """Mixed indoor/outdoor walkers under faults; odd lanes keep GPS on."""
    return [
        _lane(
            seed,
            i,
            "daily",
            "path1",
            max_length,
            fault_plan=chaos_plan(seed * 1000 + i),
            gps_duty_cycling=i % 2 == 0,
        )
        for i in range(n_lanes or 3)
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("indoor-walker", False, False, _walker(("office", "mall"))),
        Workload("outdoor-walker", False, False, _walker(("open-space", "urban-open-space"))),
        Workload("fleet-population", True, False, _population),
        Workload("fleet-chaos", True, True, _chaos),
    )
}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


@dataclass
class Walker:
    lane: Lane
    framework: Any
    place: Any
    moments: tuple
    snaps: list
    schemes: list[SchemeProxy] = field(default_factory=list)


@dataclass
class Prepared:
    """One pass's fresh objects plus what setting them up cost."""

    walkers: list[Walker]
    population: PopulationFramework | None
    session: TelemetrySession | None
    calibration: Calibrator
    load_ns: int = 0
    record_ns: int = 0
    build_ns: int = 0
    recorded_steps: int = 0

    @property
    def setup_ns(self) -> int:
        return self.load_ns + self.record_ns + self.build_ns


def set_up(
    workload: Workload,
    lanes: list[Lane],
    cache_root: Path,
    work_dir: Path,
    rec: SpanRecorder | None = None,
    metrics: MetricsRegistry | None = None,
) -> Prepared:
    """Load the warm cache into fresh objects, record walks, build frameworks.

    Frameworks are built the way the fleet engine builds them.  With a
    span recorder, every layer the framework calls into is proxied (the
    schemes outermost, around any fault wrapper).  One calibration unit
    runs after each sub-step, outside the set-up time.
    """
    clock = time.perf_counter_ns
    cal = Calibrator(CAL_REF_MS[workload.name])

    def timed(name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, int]:
        if rec is not None:
            rec.begin(name)
        start = clock()
        try:
            return fn(*args, **kwargs), clock() - start
        finally:
            if rec is not None:
                rec.end()
            cal.run(1)

    def build(k: int, lane: Lane, setup: Any, walk: Any, snaps: list) -> Walker:
        framework = build_framework(
            setup,
            models,
            walk.moments[0].position,
            scheme_seed=lane.walk_seed + 11,
            gps_duty_cycling=lane.gps_duty_cycling,
            grid_cell_m=GRID_CELL_M,
        )
        if rec is not None:
            for bundle in framework.bundles.values():
                bundle.extractor = ExtractorProxy(bundle.extractor, rec, k)
                bundle.error_models = ErrorModelSetProxy(bundle.error_models, rec, k)
            hmm = PredictorProxy(SecondOrderHmm(framework.grid), rec, k)
            framework = replace(framework, location_predictor=hmm)
        framework.metrics = metrics
        if session is not None:
            framework.telemetry = session.emitter(
                job_id=session.job_id(k), walk_seed=lane.walk_seed
            )
        if lane.fault_plan is not None:
            lane.fault_plan.apply(framework)
            snaps = lane.fault_plan.corrupt(snaps)
        proxies = []
        if rec is not None:
            for bundle in framework.bundles.values():
                bundle.scheme = SchemeProxy(bundle.scheme, rec, k)
                proxies.append(bundle.scheme)
        framework.reset()
        return Walker(lane, framework, setup.place, walk.moments, snaps, proxies)

    session = None
    if workload.telemetry:
        session = TelemetrySession(work_dir / "telemetry.jsonl", run_id=f"bench-{workload.name}")
    prepared = Prepared([], None, session, cal)
    cache = ArtifactCache(cache_root)
    models, ns = timed("fleet.cache.load", cache.error_models, MODELS_SEED)
    prepared.load_ns += ns
    setups = {}
    for place in dict.fromkeys(lane.place for lane in lanes):
        setups[place], ns = timed("fleet.cache.load", cache.place_setup, place, SETUP_SEED)
        prepared.load_ns += ns
    for k, lane in enumerate(lanes):
        setup = setups[lane.place]
        (walk, snaps), ns = timed(
            "sensors.record_walk",
            setup.record_walk,
            lane.path,
            walk_seed=lane.walk_seed,
            trace_seed=lane.trace_seed,
            max_length=lane.max_length,
        )
        prepared.record_ns += ns
        prepared.recorded_steps += len(snaps)
        walker, ns = timed("bench.build_framework", build, k, lane, setup, walk, snaps)
        prepared.build_ns += ns
        prepared.walkers.append(walker)
    if workload.fleet:
        frameworks = [w.framework for w in prepared.walkers]
        prepared.population, ns = timed("bench.build_population", PopulationFramework, frameworks)
        prepared.build_ns += ns
    return prepared


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


def step_repr(decision: Any) -> str:
    """The digest line of one step: both UniLoc estimates and the selection."""
    if decision is None:
        return "raised"
    return repr((decision.uniloc1_position, decision.uniloc2_position, decision.selected))


@dataclass
class PassResult:
    op_ns: list[int]
    op_lanes: list[int]
    #: Per lane, one :func:`step_repr` line per step.
    reprs: list[list[str]]
    calibration: Calibrator
    raised: int = 0
    failures_contained: int = 0
    #: Per walker-step ``(uniloc1 error, uniloc2 error, gps powered)``.
    outcomes: list[tuple[float | None, float | None, bool]] = field(default_factory=list)
    telemetry_events: int = 0
    telemetry_bytes: int = 0

    @property
    def walker_steps(self) -> int:
        return sum(self.op_lanes)

    def digest(self) -> str:
        h = hashlib.sha256()
        for lane in self.reprs:
            for line in lane:
                h.update(line.encode() + b"\n")
        return h.hexdigest()


def run_pass(
    workload: Workload,
    prepared: Prepared,
    label: str,
    rec: SpanRecorder | None = None,
) -> PassResult:
    """Step every walk of a prepared set-up to its end, timing each op.

    Each op is followed, outside its timing, by one calibration unit per
    walker-step it advanced.
    """
    clock = time.perf_counter_ns
    walkers = prepared.walkers
    result = PassResult([], [], [[] for _ in walkers], Calibrator(CAL_REF_MS[workload.name]))
    if rec is not None:
        rec.prefix = f"{workload.name}:{label}"

    def timed_op(
        step: int, span: str, lane: int | str, n_lanes: int, fn: Callable[..., Any], *args: Any
    ) -> Any:
        if rec is not None:
            rec.step = step
            rec.begin(span, lane)
        start = clock()
        try:
            return fn(*args)
        except Exception:  # the run goes on; the op is counted as failed
            print(f"[bench] {workload.name} {span} raised at step {step}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            result.op_ns.append(clock() - start)
            result.op_lanes.append(n_lanes)
            if rec is not None:
                rec.end()
            result.calibration.run(n_lanes)

    def record(k: int, step: int, decision: Any) -> None:
        walker = walkers[k]
        result.reprs[k].append(step_repr(decision))
        if decision is None:
            result.raised += 1
            result.outcomes.append((None, None, False))
            return
        result.failures_contained += len(decision.failures)
        truth = walker.moments[step].position
        u1, u2 = decision.uniloc1_position, decision.uniloc2_position
        result.outcomes.append(
            (
                None if u1 is None else u1.distance_to(truth),
                None if u2 is None else u2.distance_to(truth),
                decision.gps_enabled,
            )
        )
        if rec is not None:
            rec.call("eval.score_step", k, score_step, walker.place, walker.moments[step], decision)

    if workload.fleet:
        for tick in range(max(len(w.snaps) for w in walkers)):
            active = [k for k, w in enumerate(walkers) if tick < len(w.snaps)]
            snaps = [walkers[k].snaps[tick] for k in active]
            lanes = [walkers[k].framework for k in active]
            decisions = timed_op(
                tick,
                "core.population.step_batch",
                "*",
                len(active),
                prepared.population.step_batch,
                snaps,
                lanes,
            )
            for k, decision in zip(active, decisions or [None] * len(active)):
                record(k, tick, decision)
    else:
        for k, walker in enumerate(walkers):
            for i, snap in enumerate(walker.snaps):
                decision = timed_op(i, "core.framework.step", k, 1, walker.framework.step, snap)
                record(k, i, decision)
    if prepared.session is not None:
        prepared.session.close()
        result.telemetry_events = prepared.session.writer.n_events
        result.telemetry_bytes = prepared.session.path.stat().st_size
        prepared.session.path.unlink()
    return result


# ---------------------------------------------------------------------------
# Standalone layer probes (traced run only) and the cache build
# ---------------------------------------------------------------------------


def probe_particle_filter(walkers: list[Walker], cal: Calibrator) -> tuple[float, int]:
    """Mean ms of ``ParticleFilter(place).predict`` along the walkers' recorded steps."""
    clock = time.perf_counter_ns
    total = calls = 0
    for walker in walkers:
        seed = walker.lane.walk_seed
        pf = ParticleFilter(walker.place, n_particles=300, seed=seed)
        pf.initialize(walker.moments[0].position, 1.0, np.random.default_rng(seed))
        for snap in walker.snaps:
            for length in compensate_steps(snap.imu.step_events):
                start = clock()
                pf.predict(length, snap.imu.heading_rad)
                total += clock() - start
                calls += 1
                cal.run(1)
    return (total / calls / 1e6 if calls else 0.0), calls


def probe_gaussian_posterior(walkers: list[Walker], cal: Calibrator) -> tuple[float, int]:
    """Mean ms of ``Grid.gaussian_posterior`` on each place's BMA grid."""
    clock = time.perf_counter_ns
    total = calls = 0
    for walker in walkers:
        grid = walker.place.grid(GRID_CELL_M)
        for moment in walker.moments:
            start = clock()
            grid.gaussian_posterior(moment.position, 4.0)
            total += clock() - start
            calls += 1
            cal.run(1)
    return total / calls / 1e6, calls


def build_cache(root: Path) -> float:
    """Train the error models and survey every workload place into a fresh
    ``root``; returns the build time in seconds."""
    start = time.perf_counter()
    cache = ArtifactCache(root)
    cache.error_models(MODELS_SEED)
    for place in CACHE_PLACES:
        cache.place_setup(place, SETUP_SEED)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


Metrics = dict[str, dict[str, Any]]


def _add(m: Metrics, name: str, value: float, unit: str, n: int | str) -> None:
    m[name] = {"value": float(value), "unit": unit, "n": n}


def op_ms(p: PassResult, normalized: bool = True) -> list[float]:
    """Each op's time in ms, normalized by the calibration units around it."""
    if not normalized:
        return [ns / 1e6 for ns in p.op_ns]
    return [ns * f / 1e6 for ns, f in zip(p.op_ns, p.calibration.local_factors())]


def per_step(p: PassResult, ops: list[float]) -> list[float]:
    """Each walker-step's share of its op: the op's time over its lanes."""
    return [t / k for t, k in zip(ops, p.op_lanes) for _ in range(k)]


def timing_metrics(m: Metrics, timed: list[PassResult], setups: list[Prepared]) -> None:
    """The gated end-to-end timings: medians over passes, tails over per-op minima."""
    n_passes, n_ops, steps = len(timed), len(timed[0].op_ns), timed[0].walker_steps
    per_pass, per_op = f"{n_passes}x{steps}", f"{n_passes}x{n_ops}"
    for prefix, normalized in (("", True), ("bench.raw.", False)):
        ops = [op_ms(p, normalized) for p in timed]
        setup = [
            s.setup_ns / 1e9 * (s.calibration.factor() if normalized else 1.0) for s in setups
        ]
        _add(m, f"{prefix}setup_s", median(setup), "s", len(setups))
        step_p50 = median([median(per_step(p, o)) for p, o in zip(timed, ops)])
        _add(m, f"{prefix}step_ms_p50", step_p50, "ms", per_pass)
        _add(m, f"{prefix}tick_ms_p50", median([median(o) for o in ops]), "ms", per_op)
        rate = median([steps / sum(o) * 1e3 for o in ops])
        _add(m, f"{prefix}walker_steps_per_s", rate, "1/s", per_pass)
    ops = [op_ms(p) for p in timed]
    step_mins = per_op_min([per_step(p, o) for p, o in zip(timed, ops)])
    _add(m, "step_ms_p99", percentile(step_mins, 99), "ms", steps)
    _add(m, "tick_ms_p90", percentile(per_op_min(ops), 90), "ms", n_ops)
    for name, n, q in (("step_ms_p99", steps, 99), ("tick_ms_p90", n_ops, 90)):
        if not supports_percentile(n, q):
            print(f"[bench] {name} rests on fewer than 10 of {n} samples", file=sys.stderr)
    units = sum(len(p.calibration.unit_ns) for p in timed)
    _add(m, "bench.calibration_ms", median([p.calibration.median_ms() for p in timed]), "ms", units)


def outcome_metrics(m: Metrics, ref: PassResult) -> None:
    """Accuracy and GPS energy outcomes, fixed by the seed."""
    n = len(ref.outcomes)
    u1 = [o[0] for o in ref.outcomes if o[0] is not None]
    u2 = [o[1] for o in ref.outcomes if o[1] is not None]
    _add(m, "uniloc1_error_m_mean", sum(u1) / len(u1), "m", len(u1))
    _add(m, "uniloc2_error_m_mean", sum(u2) / len(u2), "m", len(u2))
    _add(m, "uniloc2_error_m_p90", percentile(u2, 90), "m", len(u2))
    _add(m, "no_estimate_frac", (n - len(u2)) / n, "ratio", n)
    _add(m, "gps_on_frac", sum(1 for o in ref.outcomes if o[2]) / n, "ratio", n)


@dataclass
class TracedPass:
    result: PassResult
    #: Set-up timings only: the pass's objects are released after it ran.
    prepared: Prepared
    rec: SpanRecorder
    #: Scheme name -> (estimate calls, useful outputs), over all lanes.
    scheme_calls: dict[str, tuple[int, int]]
    quarantines: int


def traced_pass(
    workload: Workload, lanes: list[Lane], cache_root: Path, work_dir: Path, label: str
) -> TracedPass:
    """One pass with every layer proxied and a metrics registry attached."""
    rec, registry = SpanRecorder(), MetricsRegistry()
    rec.prefix = f"{workload.name}:{label}"
    prepared = set_up(workload, lanes, cache_root, work_dir, rec, registry)
    result = run_pass(workload, prepared, label, rec)
    calls: dict[str, tuple[int, int]] = {}
    for walker in prepared.walkers:
        for proxy in walker.schemes:
            n, useful = calls.get(proxy.name, (0, 0))
            calls[proxy.name] = (n + proxy.calls, useful + proxy.useful)
    quarantines = sum(
        spec["value"]
        for name, spec in registry.snapshot().items()
        if name.startswith("uniloc.quarantine.entered.")
    )
    prepared.walkers, prepared.population = [], None
    return TracedPass(result, prepared, rec, calls, quarantines)


def trace_metrics(
    m: Metrics, workload: Workload, traced: list[TracedPass], untraced: list[PassResult]
) -> None:
    """Per-layer metrics: mean self time per call from the traced passes' spans."""
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    for t in traced:
        f = t.result.calibration.factor()
        own = self_times_ns(t.rec.spans)
        for span in t.rec.spans:
            self_ms[span.name] = self_ms.get(span.name, 0.0) + own[span.span_id] * f / 1e6
            calls[span.name] = calls.get(span.name, 0) + 1

    def mean_ms(metric: str, span: str) -> None:
        n = calls.get(span, 0)
        _add(m, metric, self_ms[span] / n if n else 0.0, "ms", n)

    for name in SCHEME_NAMES:
        mean_ms(f"schemes.{name}.estimate_ms", f"schemes.{name}.estimate")
        c = sum(t.scheme_calls.get(name, (0, 0))[0] for t in traced)
        useful = sum(t.scheme_calls.get(name, (0, 0))[1] for t in traced)
        _add(m, f"schemes.{name}.available_frac", useful / c if c else 0.0, "ratio", c)
    mean_ms("core.features.extract_ms", "core.features.extract")
    mean_ms("core.error_model.predict_ms", "core.error_model.predict")
    mean_ms("core.hmm.predict_ms", "core.hmm.predict")
    mean_ms("core.hmm.observe_ms", "core.hmm.observe")
    mean_ms("eval.score_step_ms", "eval.score_step")
    n_traced = len(traced)
    steps = sum(t.result.walker_steps for t in traced)
    outer = "core.population.step_batch" if workload.fleet else "core.framework.step"
    _add(m, "core.framework.self_ms", self_ms[outer] / steps, "ms", steps)
    failures = sum(t.result.failures_contained for t in traced)
    _add(m, "core.framework.failures_contained", failures / n_traced, "count", n_traced)
    quarantines = sum(t.quarantines for t in traced)
    _add(m, "core.framework.quarantines_entered", quarantines / n_traced, "count", n_traced)
    events = sum(t.result.telemetry_events for t in traced)
    size = sum(t.result.telemetry_bytes for t in traced)
    _add(m, "obs.telemetry.events_per_step", events / steps, "count", steps)
    _add(m, "obs.telemetry.bytes_per_step", size / steps, "B", steps)
    setups = [t.prepared for t in traced]
    recorded = sum(s.recorded_steps for s in setups)
    record_ms = sum(s.record_ns * s.calibration.factor() / 1e6 for s in setups)
    _add(m, "sensors.record_walk_ms_per_step", record_ms / recorded, "ms", recorded)
    loads = [s.load_ns * s.calibration.factor() / 1e9 for s in setups]
    _add(m, "fleet.cache.load_s", median(loads), "s", len(setups))
    traced_p50 = median([median(op_ms(t.result)) for t in traced])
    overhead = traced_p50 / median([median(op_ms(p)) for p in untraced])
    _add(m, "bench.trace_overhead_frac", overhead - 1.0, "ratio", f"{n_traced}+{len(untraced)}")
    per_lane = median([sum(op_ms(p)) / p.walker_steps for p in untraced])
    _add(m, "core.population.step_batch_ms_per_lane", per_lane, "ms", len(untraced))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def reference_digest(
    name: str,
    seed: int,
    cache_root: Path,
    work_dir: Path,
    max_length: float | None = None,
    n_lanes: int | None = None,
) -> str:
    """Digest of one untimed pass (what ``run.py --write-expected`` stores)."""
    workload = WORKLOADS[name]
    lanes = workload.lanes(seed, max_length, n_lanes)
    return run_pass(workload, set_up(workload, lanes, cache_root, work_dir), "ref").digest()


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    cache_root: Path,
    work_dir: Path,
    max_length: float | None = None,
    n_lanes: int | None = None,
    min_passes: int = MIN_PASSES,
) -> dict[str, Any]:
    """Run one workload and return its record (see ``run.py``).

    Untraced: a short warm-up pass, then timed passes until ``seconds``
    is spent.  Traced: timed passes alternate with traced ones, and the
    standalone layer probes run at the end.  The first timed pass is the
    reference every later pass must reproduce.
    """
    workload = WORKLOADS[name]
    lanes = workload.lanes(seed, max_length, n_lanes)
    warmup = workload.lanes(seed, WARMUP_LENGTH_M, n_lanes)
    work_dir.mkdir(parents=True, exist_ok=True)
    run_pass(workload, set_up(workload, warmup, cache_root, work_dir), "warmup")
    timed: list[PassResult] = []
    setups: list[Prepared] = []
    traced: list[TracedPass] = []
    spent = 0.0
    while spent < seconds or len(timed) < (1 if trace else min_passes):
        start = time.perf_counter()
        # The last pass's frameworks hold reference cycles; left to the
        # collector they pile up in the old generation and slow each pass
        # more than the one before.
        gc.collect()
        prepared = set_up(workload, lanes, cache_root, work_dir)
        timed.append(run_pass(workload, prepared, f"p{len(timed)}"))
        prepared.walkers, prepared.population = [], None  # keep only the timings
        setups.append(prepared)
        if trace:
            gc.collect()
            traced.append(traced_pass(workload, lanes, cache_root, work_dir, f"t{len(traced)}"))
        spent += time.perf_counter() - start

    ref = timed[0]
    m: Metrics = {}
    timing_metrics(m, timed, setups)
    outcome_metrics(m, ref)
    _add(m, "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    trace_path = None
    if trace:
        trace_metrics(m, workload, traced, timed)
        cal = Calibrator(CAL_REF_MS[name])
        walkers = set_up(workload, lanes, cache_root, work_dir).walkers
        one_per_place = list({w.lane.place: w for w in walkers}.values())
        pf_ms, pf_n = probe_particle_filter(one_per_place, cal)
        grid_ms, grid_n = probe_gaussian_posterior(one_per_place, cal)
        _add(m, "schemes.particle_filter.predict_ms", pf_ms * cal.factor(), "ms", pf_n)
        _add(m, "geometry.grid.gaussian_posterior_ms", grid_ms * cal.factor(), "ms", grid_n)
        build_s = json.loads((work_dir / CACHE_BUILD_RECORD).read_text())
        _add(m, "fleet.cache.cold_build_s", build_s, "s", 1)
        trace_path = work_dir / f"trace-{name}-s{seed}.jsonl"
        write_jsonl([s for t in traced for s in t.rec.spans], trace_path)

    replays = timed[1:] + [t.result for t in traced]
    mismatched = sum(
        a != b
        for p in replays
        for ref_lane, lane in zip(ref.reprs, p.reprs)
        for a, b in zip(ref_lane, lane)
    )
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "digest": ref.digest(),
        "replay_digests": [p.digest() for p in replays],
        "attempted": ref.walker_steps + sum(p.walker_steps for p in replays),
        "failed": ref.raised + sum(p.raised for p in replays) + mismatched,
        "metrics": m,
        "trace_path": None if trace_path is None else str(trace_path),
        "stamp": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "cal_ref_ms": CAL_REF_MS[name],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run inside the process run.py starts.")
    parser.add_argument("task", choices=("run", "digest", "build-cache"))
    parser.add_argument("--spec", default="{}", help="JSON keyword arguments of the task")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads(args.spec)
    for key in ("cache_root", "work_dir", "root"):
        if key in spec:
            spec[key] = Path(spec[key])
    task = {"run": run_workload, "digest": reference_digest, "build-cache": build_cache}[args.task]
    args.out.write_text(json.dumps(task(**spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
