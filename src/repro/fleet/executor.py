"""Batched multi-process walk execution: the fleet engine.

UniLoc's evaluation is embarrassingly parallel — every walk job (one
path, one seed tuple, one device) is a pure function of its fields, so
eight campus paths or ten mall trajectories can run on as many cores as
the machine has without changing a single number.  This module provides
that engine:

* :class:`WalkJob` — a pickle-safe description of one walk;
* :func:`iter_walks` — fan jobs out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` and stream scored
  :class:`~repro.eval.runner.WalkResult`\\ s back as they finish;
* :func:`run_walks` — the same, collected in job order.

Determinism is a hard guarantee: every job carries its own explicit
seeds (no shared random stream crosses a process boundary), so
``workers=1`` and ``workers=8`` produce byte-identical per-step errors,
and results are independent of completion order.  Worker processes pull
the offline artifacts (place setups, error models) from the
:class:`~repro.fleet.cache.ArtifactCache` — with a persistent cache
directory a worker never trains or surveys anything.

The inline and pool paths frame each job the same way
(:class:`_JobFrame`): the job meters into its own fresh registry, which
is folded into the caller's registry when the job closes.  A pool
worker ships that registry back as a snapshot with its result, and the
parent folds only that.  With a
:class:`~repro.obs.telemetry.TelemetrySession` active — passed
explicitly or installed process-wide via
:func:`~repro.obs.telemetry.telemetry_session` — the frame also streams
the job's lifecycle, span and metric-delta events (workers through
per-worker spool files the parent tails and merges into one run log
live), so the log and the caller's registry tell the same story.

Worker death is survivable: when a worker process dies hard (OOM kill,
segfault, an injected :class:`~repro.faults.plan.FaultPlan` kill), the
pool is rebuilt and every in-flight job is re-queued once; a job whose
worker dies twice surfaces as a structured :class:`WalkFailure` instead
of a raw ``BrokenProcessPool`` — and every walk that completed before
the crash is preserved.  :func:`run_walks` raises :class:`FleetError`
(carrying the partial results *and* the failure records) by default, or
returns the failures in-band with ``on_failure="return"``.
"""

from __future__ import annotations

import os
import traceback as _traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.fleet.cache import ArtifactCache, default_cache, protocol_setup_seed
from repro.obs.clock import monotonic_s
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    EventEmitter,
    EventSinkLike,
    TelemetrySession,
    TelemetrySpool,
    WorkerTelemetry,
    current_session,
)
from repro.sensors import NEXUS_5X, DeviceProfile

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext

    from repro.faults.plan import FaultPlan

#: How many times a job whose worker died is re-queued before it is
#: surfaced as a :class:`WalkFailure` (the ISSUE contract: once).
MAX_WORKER_CRASH_RETRIES = 1


@dataclass(frozen=True)
class WalkJob:
    """Everything needed to run one walk, anywhere.

    A job is a pure value: two jobs with equal fields produce equal
    :class:`~repro.eval.runner.WalkResult`\\ s in any process, in any
    order.  Seed conventions match the historical serial runner exactly
    (scheme seed = ``walk_seed + 11``, start-noise stream =
    ``walk_seed + 777``) so engine results are bit-compatible with the
    pre-engine figures.

    Attributes:
        place_name: built-in world to run in (see ``repro places``).
        path_name: path within the place.
        setup_seed: deployment/survey seed of the place setup.
        models_seed: training seed of the shared error models.
        walk_seed: ground-truth walk randomness.
        trace_seed: sensor-measurement randomness.
        device: phone profile recording the walk.
        start_arc: arc length where the walk starts.
        max_length: stop after this many meters (None = full path).
        grid_cell_m: BMA grid resolution for the framework.
        start_noise_m: std-dev of the perturbation applied to the start
            position handed to the dead-reckoning schemes.
        compact: drop particle clouds / candidate lists from the returned
            step decisions (the figures only need errors and telemetry;
            the clouds are reproducible from the seeds and would multiply
            cross-process transfer by ~10x).
        gps_duty_cycling: forward the framework's §IV-C GPS power policy
            flag; the chaos matrix disables it so the gps scheme is
            actually queried (and can actually fail) at every step.
        fault_plan: optional :class:`~repro.faults.plan.FaultPlan`
            applied to the walk — scheme wrappers and sensor-trace
            corruption are installed after the framework is built, and
            the plan's stateless seeding keeps the chaos walk exactly as
            deterministic as a clean one.
    """

    place_name: str
    path_name: str
    setup_seed: int = 3
    models_seed: int = 0
    walk_seed: int = 0
    trace_seed: int = 1
    device: DeviceProfile = NEXUS_5X
    start_arc: float = 0.0
    max_length: float | None = None
    grid_cell_m: float = 2.0
    start_noise_m: float = 0.0
    compact: bool = True
    gps_duty_cycling: bool = True
    fault_plan: FaultPlan | None = None

    @classmethod
    def for_seed(
        cls, place_name: str, path_name: str, seed: int, **overrides: Any
    ) -> WalkJob:
        """Return the experiment protocol's job for master ``seed``.

        Setup :func:`~repro.fleet.cache.protocol_setup_seed` of ``seed``,
        models and walk ``seed``, trace ``seed + 1``; ``overrides``
        replace any field (multi-walk figures move the walk seeds).
        """
        job = cls(
            place_name,
            path_name,
            setup_seed=protocol_setup_seed(seed),
            models_seed=seed,
            walk_seed=seed,
            trace_seed=seed + 1,
        )
        return replace(job, **overrides)


@dataclass(frozen=True)
class WalkFailure:
    """Structured record of one job the engine could not complete.

    Attributes:
        index: the job's position in the submitted list.
        job: the job itself (re-runnable for debugging).
        kind: ``"worker_crash"`` (the hosting process died, retries
            exhausted) or ``"job_error"`` (the job raised; deterministic,
            so never retried).
        attempts: how many times the job was started.
        error: one-line description of the failure.
        traceback: remote traceback text for ``job_error`` failures.
    """

    index: int
    job: WalkJob
    kind: str
    attempts: int
    error: str = ""
    traceback: str = field(default="", repr=False)

    def describe(self) -> str:
        """Return a one-line human-readable summary."""
        return (
            f"job {self.index} ({self.job.place_name}/{self.job.path_name}) "
            f"{self.kind} after {self.attempts} attempt(s): {self.error}"
        )


class FleetError(RuntimeError):
    """Raised by :func:`run_walks` when jobs failed but others finished.

    Attributes:
        failures: every :class:`WalkFailure` (in job order).
        results: the full job-ordered result list; completed entries are
            real ``WalkResult``\\ s, failed entries are their
            :class:`WalkFailure` records — partial work is never lost.
    """

    def __init__(self, failures: list[WalkFailure], results: list[Any]) -> None:
        self.failures = failures
        self.results = results
        done = sum(
            1 for r in results if r is not None and not isinstance(r, WalkFailure)
        )
        super().__init__(
            f"{len(failures)} of {len(results)} walk jobs failed "
            f"({done} completed): {failures[0].describe()}"
        )


#: Set in the parent just before forking so fork-started workers inherit
#: the warm in-memory cache; spawn-started workers get a fresh cache
#: pointed at the same persistent root via the pool initializer.
_WORKER_CACHE: ArtifactCache | None = None


def _init_worker(cache_root: str | None) -> None:
    global _WORKER_CACHE
    if _WORKER_CACHE is None:  # spawn: fresh interpreter, rebuild from disk
        _WORKER_CACHE = ArtifactCache(cache_root)


def _compact_result(result: Any) -> Any:
    """Strip bulky per-step posterior shapes, keeping all telemetry."""
    for record in result.records:
        decision = record.decision
        decision.outputs = {
            name: (
                None
                if output is None
                else replace(
                    output, samples=None, sample_weights=None, candidates=None
                )
            )
            for name, output in decision.outputs.items()
        }
    return result


class _JobFrame:
    """One walk job's frame: how a job is opened, metered and closed.

    Used by the inline and pool paths of :func:`iter_walks`.  Entering
    emits ``job/started`` (when streaming to ``emitter``) and gives the
    job a fresh :attr:`metrics` registry; :meth:`walk` meters the cache
    into it while the job runs.  A clean exit counts ``fleet.walks`` and
    ``fleet.steps``, emits the ``fleet.walk`` span, ``job/finished`` and
    the registry as metric deltas, then folds the registry into
    ``into``.  An exception emits ``job/error`` with
    ``error="<Type>: <msg>"`` and propagates unchanged.
    """

    def __init__(
        self,
        place: str,
        path: str,
        cache: ArtifactCache,
        emitter: EventEmitter | None = None,
        into: MetricsRegistry | None = None,
    ) -> None:
        self.place = place
        self.path = path
        self.cache = cache
        self.emitter = emitter
        self.into = into
        self.metrics = MetricsRegistry()
        self.steps = 0
        self._start_s = 0.0

    def __enter__(self) -> _JobFrame:
        if self.emitter is not None:
            self.emitter.emit("job", "started", place=self.place, path=self.path)
        self._start_s = monotonic_s()
        return self

    def walk(self, job: WalkJob) -> Any:
        """Run ``job`` with :func:`execute_job` and record its steps."""
        previous = self.cache.metrics
        self.cache.metrics = self.metrics
        try:
            result = execute_job(job, self.cache, telemetry=self.emitter)
        finally:
            self.cache.metrics = previous
        self.steps = len(result.records)
        return result

    def __exit__(self, exc_type: Any, exc: BaseException | None, tb: Any) -> None:
        if exc is not None:
            if self.emitter is not None:
                self.emitter.emit(
                    "job", "error", error=f"{type(exc).__name__}: {exc}"
                )
            return
        self.metrics.counter("fleet.walks").inc()
        self.metrics.counter("fleet.steps").inc(self.steps)
        snapshot = self.metrics.snapshot()
        if self.emitter is not None:
            self.emitter.emit(
                "span", "fleet.walk",
                duration_ms=(monotonic_s() - self._start_s) * 1e3,
            )
            self.emitter.emit("job", "finished", steps=self.steps)
            self.emitter.emit_snapshot(snapshot)
        if self.into is not None:
            self.into.merge_snapshot(snapshot)


def _local_frame(
    session: TelemetrySession | None,
    index: int,
    job: WalkJob,
    cache: ArtifactCache,
    into: MetricsRegistry | None,
) -> _JobFrame:
    """Frame an in-process job, streaming to the session's run log if any."""
    emitter = None
    if session is not None:
        emitter = session.emitter(
            job_id=session.job_id(index), walk_seed=job.walk_seed
        )
    return _JobFrame(job.place_name, job.path_name, cache, emitter, into)


def execute_job(
    job: WalkJob,
    cache: ArtifactCache,
    telemetry: EventSinkLike | None = None,
) -> Any:
    """Run one walk job to a scored ``WalkResult`` (in this process).

    When ``telemetry`` is given, it is attached to the framework before
    the fault plan is applied, so both the framework's degradation
    lifecycle (contain/quarantine/probe/release) and the injectors'
    ``fault/inject`` events land in the stream.
    """
    from repro.eval.runner import run_walk
    from repro.eval.setup import build_framework
    from repro.geometry import Point

    setup = cache.place_setup(job.place_name, job.setup_seed)
    models = cache.error_models(job.models_seed)
    walk, snaps = setup.record_walk(
        job.path_name,
        device=job.device,
        walk_seed=job.walk_seed,
        trace_seed=job.trace_seed,
        start_arc=job.start_arc,
        max_length=job.max_length,
    )
    start = walk.moments[0].position
    if job.start_noise_m > 0.0:
        rng = np.random.default_rng(job.walk_seed + 777)
        start = Point(
            start.x + float(rng.normal(0.0, job.start_noise_m)),
            start.y + float(rng.normal(0.0, job.start_noise_m)),
        )
    framework = build_framework(
        setup,
        models,
        start,
        scheme_seed=job.walk_seed + 11,
        gps_duty_cycling=job.gps_duty_cycling,
        grid_cell_m=job.grid_cell_m,
    )
    # Degradation/fault telemetry flows into the registry the job's frame
    # attached to the cache while it loads.
    framework.metrics = cache.metrics
    result = run_walk(
        framework,
        setup.place,
        job.path_name,
        walk,
        snaps,
        telemetry=telemetry,
        fault_plan=job.fault_plan,
    )
    return _compact_result(result) if job.compact else result


def _die_once(marker: str) -> None:
    """Kill this worker process unless the tombstone already exists.

    The injected worker-death fault must be one-shot — the whole point
    of the retry path is that the re-queued attempt succeeds — so the
    first execution writes a marker file and dies without cleanup
    (``os._exit``, exactly like an OOM kill), and any later attempt
    finds the marker and runs normally.
    """
    path = Path(marker)
    if path.exists():
        return
    path.write_text(f"worker {os.getpid()} died here\n")
    os._exit(86)


def _execute_in_worker(
    job: WalkJob, spec: WorkerTelemetry | None = None
) -> tuple[Any, dict[str, Any]]:
    """Pool entry point: run one framed job and return its metric snapshot.

    The parent folds the returned snapshot into the caller's registry.
    With a telemetry ``spec`` the frame's events — job lifecycle edges,
    a ``fleet.walk`` span, fault/quarantine events from the framework,
    and the metric snapshot as per-name deltas — are also spooled for
    the parent to tail into the run log.
    """
    if job.fault_plan is not None and job.fault_plan.worker_death_marker:
        _die_once(job.fault_plan.worker_death_marker)
    cache = _WORKER_CACHE if _WORKER_CACHE is not None else default_cache()
    spool: TelemetrySpool | None = None
    emitter: EventEmitter | None = None
    if spec is not None:
        spool = TelemetrySpool(spec.spool_root)
        emitter = spool.emitter(spec)
    try:
        with _JobFrame(job.place_name, job.path_name, cache, emitter) as frame:
            result = frame.walk(job)
            frame.metrics.gauge("fleet.worker_pid").set(os.getpid())
    finally:
        if spool is not None:
            spool.close()
    return result, frame.metrics.snapshot()


def _pool_context() -> BaseContext:
    """Prefer fork (workers inherit warm in-memory artifacts) over spawn."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _job_failure(
    index: int, job: WalkJob, kind: str, attempts: int, exc: BaseException | None
) -> WalkFailure:
    """Build the structured failure record for one lost job."""
    if exc is None:
        error = "worker process died (BrokenProcessPool)"
        tb = ""
    else:
        error = f"{type(exc).__name__}: {exc}"
        tb = "".join(_traceback.format_exception(exc))
    return WalkFailure(
        index=index, job=job, kind=kind, attempts=attempts, error=error, traceback=tb
    )


def iter_walks(
    jobs: list[WalkJob],
    *,
    workers: int = 1,
    cache: ArtifactCache | None = None,
    metrics: MetricsRegistry | None = None,
    telemetry: TelemetrySession | None = None,
) -> Iterator[tuple[int, Any]]:
    """Execute jobs and yield ``(job_index, result)`` as walks finish.

    A yielded result is normally a ``WalkResult``; when a job cannot be
    completed on the pool path it is a :class:`WalkFailure` instead —
    a dead worker poisons only its in-flight jobs (each re-queued on a
    fresh pool up to :data:`MAX_WORKER_CRASH_RETRIES` times), never the
    walks that already finished.

    With ``workers <= 1`` (or a single job) everything runs inline in
    this process — no pool, no pickling, and no failure interception
    (exceptions propagate raw, which is what debugging wants) — which is
    also the reference stream the determinism suite compares parallel
    runs against.

    Args:
        jobs: walk jobs; the yielded index refers into this list.
        workers: worker processes (capped at ``len(jobs)``).
        cache: artifact cache; defaults to the process-wide cache.
        metrics: registry every job's own registry is folded into when
            the job closes (in the parent, for pool jobs).
        telemetry: session to stream job/span/fault/metric events
            through; defaults to the process-wide session installed by
            :func:`~repro.obs.telemetry.telemetry_session` (None = no
            streaming).
    """
    cache = cache if cache is not None else default_cache()
    session = telemetry if telemetry is not None else current_session()
    if workers <= 1 or len(jobs) <= 1:
        for index, job in enumerate(jobs):
            with _local_frame(session, index, job, cache, metrics) as frame:
                result = frame.walk(job)
            yield index, result
        return

    # Only a pool loads the process machinery; the inline path, and every
    # walker process, imports none of it.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    global _WORKER_CACHE
    _WORKER_CACHE = cache  # inherited by fork workers
    cache_root = str(cache.root) if cache.root is not None else None
    attempts = {index: 1 for index in range(len(jobs))}
    queue = list(range(len(jobs)))
    try:
        while queue:
            crashed: list[int] = []
            with ProcessPoolExecutor(
                max_workers=min(workers, len(queue)),
                mp_context=_pool_context(),
                initializer=_init_worker,
                initargs=(cache_root,),
            ) as pool:
                pending = {
                    pool.submit(
                        _execute_in_worker,
                        jobs[index],
                        None
                        if session is None
                        else session.worker_spec(index, jobs[index].walk_seed),
                    ): index
                    for index in queue
                }
                broken = False
                while pending:
                    if not broken:
                        done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    else:
                        # The pool is dead: every remaining future either
                        # finished before the crash (salvage it) or is
                        # poisoned (re-queue it).  No more waiting.
                        done = list(pending)
                    for future in done:
                        index = pending.pop(future)
                        try:
                            result, snapshot = future.result(
                                timeout=0 if broken else None
                            )
                        except (BrokenProcessPool, TimeoutError):
                            # TimeoutError: the pool broke but this future
                            # never got its exception set — same casualty.
                            broken = True
                            crashed.append(index)
                        except Exception as exc:  # deterministic job error
                            if metrics is not None:
                                metrics.counter("fleet.job_errors").inc()
                            yield (
                                index,
                                _job_failure(
                                    index, jobs[index], "job_error",
                                    attempts[index], exc,
                                ),
                            )
                        else:
                            if metrics is not None:
                                metrics.merge_snapshot(snapshot)
                            yield index, result
                    if session is not None:
                        # Live merge: tail the worker spools while other
                        # futures are still in flight.
                        session.drain()
            queue = []
            for index in sorted(crashed):
                if metrics is not None:
                    metrics.counter("fleet.worker_crashes").inc()
                if attempts[index] > MAX_WORKER_CRASH_RETRIES:
                    if metrics is not None:
                        metrics.counter("fleet.walk_failures").inc()
                    yield (
                        index,
                        _job_failure(
                            index, jobs[index], "worker_crash",
                            attempts[index], None,
                        ),
                    )
                else:
                    attempts[index] += 1
                    if metrics is not None:
                        metrics.counter("fleet.jobs_retried").inc()
                    queue.append(index)
        if session is not None:
            # Workers have exited; pick up whatever flushed after the
            # last in-loop drain.
            session.drain()
    finally:
        _WORKER_CACHE = None


def run_walks(
    jobs: list[WalkJob],
    *,
    workers: int = 1,
    cache: ArtifactCache | None = None,
    metrics: MetricsRegistry | None = None,
    on_failure: str = "raise",
    telemetry: TelemetrySession | None = None,
) -> list[Any]:
    """Execute jobs (optionally in parallel) and return results in job order.

    The aggregate is guaranteed identical for any ``workers`` value; see
    the module docstring for the determinism contract.

    Args:
        jobs: walk jobs to execute.
        workers: worker processes (capped at ``len(jobs)``).
        cache: artifact cache; defaults to the process-wide cache.
        metrics: registry every job's metrics are folded into (see
            :func:`iter_walks`).
        telemetry: session to stream events through; defaults to the
            process-wide session (see :func:`iter_walks`).
        on_failure: ``"raise"`` (default) raises :class:`FleetError`
            when any job failed — the exception still carries the full
            partial result list — while ``"return"`` leaves each
            :class:`WalkFailure` in-band in the returned list for
            callers (like the chaos experiment) that expect casualties.

    Raises:
        FleetError: under ``on_failure="raise"`` when any job failed.
        ValueError: for an unknown ``on_failure`` mode.
    """
    if on_failure not in ("raise", "return"):
        raise ValueError(f"unknown on_failure mode {on_failure!r}")
    results: list[Any] = [None] * len(jobs)
    failures: list[WalkFailure] = []
    for index, result in iter_walks(
        jobs,
        workers=workers,
        cache=cache,
        metrics=metrics,
        telemetry=telemetry,
    ):
        results[index] = result
        if isinstance(result, WalkFailure):
            failures.append(result)
    if failures and on_failure == "raise":
        raise FleetError(sorted(failures, key=lambda f: f.index), results)
    return results
