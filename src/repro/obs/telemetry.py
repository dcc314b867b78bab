"""Cross-process telemetry: a schema-versioned live event stream.

The metrics registry (:mod:`repro.obs.metrics`) answers "what happened
in this process"; this module answers "what is happening across the
whole fleet, right now".  Every observable moment — a metric delta, a
span, a fault injection, a quarantine transition, a job lifecycle edge,
a log-like annotation — becomes one JSON line in a telemetry event
stream that survives the process fan-out:

* line 1 — ``{"type": "meta", "format": "uniloc_telemetry",
  "version": 1, "run_id": ..., "experiment": ...}`` (the shared
  :mod:`repro.formats` header).
* every other line — ``{"type": "event", "kind": ..., "name": ...,
  "seq": ..., "time_s": ..., "run_id": ..., "job_id": ...,
  "worker_id": ..., "walk_seed": ..., "data": {...}}``.

The correlation IDs are the point: every event carries the ``run_id``
of the whole invocation, the ``job_id``/``walk_seed`` of the walk it
belongs to, and the ``worker_id`` of the process that emitted it, so a
city-scale run can be sliced per walk, per worker, or per scheme after
the fact — or while it is still running.

Cross-process flow
------------------

Fleet workers append events to per-worker **spool files** (one file per
worker pid, next to the run log in ``<log>.spool/``).  The parent's
:class:`TelemetrySession` *tails* those spools between future
completions — :meth:`TelemetrySession.drain` reads only complete new
lines (byte offsets per spool, partial lines wait for the next drain) —
and merges them into the single run log.  Draining only moves events:
the caller's registry is fed by the snapshot each worker returns with
its result, and the spooled metric deltas carry that same snapshot, so
:func:`registry_from_events` over the log rebuilds the caller's
registry.  Timestamps come from the injectable
:mod:`repro.obs.clock`, and nothing here touches a seed or a cache
key, keeping the DET002 determinism contract intact.

``kind="step"`` events are the per-step decision record: one
``step``/``decision`` event per scored step, emitted by the eval layer
(:func:`repro.eval.runner.run_walk`) where ground truth is known, and
summarized, with the rest of the log, by ``repro report``
(:mod:`repro.obs.report`).

``kind="metric"`` events mirror the registry snapshot format
(``instrument`` + ``value``/``values``) and are applied through
:func:`apply_metric_event`, which delegates to ``merge_snapshot`` so
streamed and snapshotted metrics can never diverge semantically; they
are the log's lossless form of the registry, which ``repro telemetry
export`` rebuilds with :func:`registry_from_events`.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Protocol

from repro.formats import UnsupportedFormatError, check_header, format_header
from repro.obs.clock import now_s
from repro.obs.metrics import MetricsRegistry

#: Artifact format tag / newest readable version for telemetry logs.
TELEMETRY_FORMAT = "uniloc_telemetry"
TELEMETRY_VERSION = 1

#: The event taxonomy.  ``metric`` lines are registry deltas; ``span``
#: lines are timed operations; ``fault``/``quarantine`` lines are the
#: degradation lifecycle; ``job`` lines are walk lifecycle edges;
#: ``step`` lines are scored framework decisions; ``log`` lines are
#: free-form annotations.
EVENT_KINDS = ("metric", "span", "fault", "quarantine", "job", "step", "log")


@dataclass(frozen=True)
class EventContext:
    """The correlation IDs stamped onto every event from one source.

    Attributes:
        run_id: identifies the whole CLI/engine invocation.
        job_id: identifies one walk job within the run (``""`` for
            run-scoped events).
        worker_id: identifies the emitting process (``"main"`` for the
            parent, ``"worker-<pid>"`` in the pool).
        walk_seed: the job's walk seed, when the event belongs to a walk.
    """

    run_id: str
    job_id: str = ""
    worker_id: str = "main"
    walk_seed: int | None = None


def new_run_id() -> str:
    """Return a fresh run ID (wall-clock ms + pid).

    Reads the injectable clock, so a frozen ``clock.override`` makes
    run IDs reproducible in tests.
    """
    return f"run-{int(now_s() * 1e3)}-{os.getpid()}"


def make_event(
    kind: str,
    name: str,
    context: EventContext,
    seq: int = 0,
    time_s: float | None = None,
    data: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Build one schema-v1 event dict (validated kind, stamped IDs).

    Raises:
        ValueError: on a kind outside :data:`EVENT_KINDS`.
    """
    if kind not in EVENT_KINDS:
        raise ValueError(
            f"unknown event kind {kind!r}; known: {', '.join(EVENT_KINDS)}"
        )
    event: dict[str, Any] = {
        "type": "event",
        "kind": kind,
        "name": name,
        "seq": seq,
        "time_s": now_s() if time_s is None else time_s,
        "run_id": context.run_id,
        "job_id": context.job_id,
        "worker_id": context.worker_id,
        "walk_seed": context.walk_seed,
    }
    if data:
        event["data"] = data
    return event


def _finite(value: float | None) -> float | None:
    """Map non-finite floats to None (JSON has no NaN/Inf)."""
    if value is None or not math.isfinite(value):
        return None
    return float(value)


def _finite_map(values: dict[str, float]) -> dict[str, float | None]:
    return {name: _finite(v) for name, v in values.items()}


def _xy(point: Any) -> dict[str, float] | None:
    return None if point is None else {"x": point.x, "y": point.y}


def decision_to_dict(decision: Any) -> dict[str, Any]:
    """Serialize a :class:`~repro.core.framework.StepDecision` to JSON-ready form.

    Scheme outputs are reduced to their point estimate and spread — the
    particle clouds and candidate lists are deliberately dropped (they
    are reproducible from the recorded sensor trace and would bloat the
    stream by orders of magnitude).  Non-finite floats (an unavailable
    step's ``tau`` is NaN) become ``null`` so the line stays strict JSON.
    """
    return {
        "outputs": {
            name: (
                None
                if out is None
                else {
                    "x": out.position.x,
                    "y": out.position.y,
                    "spread": _finite(out.spread),
                }
            )
            for name, out in decision.outputs.items()
        },
        "predicted_errors": _finite_map(decision.predicted_errors),
        "confidences": _finite_map(decision.confidences),
        "weights": _finite_map(decision.weights),
        "tau": _finite(decision.tau),
        "indoor": decision.indoor,
        "selected": decision.selected,
        "uniloc1": _xy(decision.uniloc1_position),
        "uniloc2": _xy(decision.uniloc2_position),
        "gps_enabled": decision.gps_enabled,
        "failures": dict(decision.failures),
        "quarantined": list(decision.quarantined),
    }


class EventSinkLike(Protocol):
    """Structural type of anything accepted as a ``telemetry=`` sink.

    Instrumented code guards on ``enabled`` so the disabled hot path
    costs one attribute lookup, and tests can substitute any object with
    an ``emit``.
    """

    enabled: bool

    def emit(self, kind: str, name: str, **data: Any) -> None:
        """Record one event (possibly a no-op)."""
        ...


class NoopEmitter:
    """The disabled sink: ``emit`` drops everything on the floor."""

    enabled: bool = False

    def emit(self, kind: str, name: str, **data: Any) -> None:
        """Discard the event."""


#: The shared disabled sink; the default for every instrumented object.
NOOP_EMITTER = NoopEmitter()


class EventEmitter:
    """Context-stamping event source: one per (process, job) pair.

    Binds an :class:`EventContext` to a write callback (a spool file in
    a worker, the run log in the parent) and numbers events with a
    monotonically increasing ``seq`` so intra-source order survives the
    merge.
    """

    enabled: bool = True

    def __init__(
        self, write: Callable[[dict[str, Any]], None], context: EventContext
    ) -> None:
        self.context = context
        self._write = write
        self._seq = 0

    def emit(self, kind: str, name: str, **data: Any) -> None:
        """Build and write one event in this emitter's context."""
        event = make_event(kind, name, self.context, seq=self._seq, data=data)
        self._seq += 1
        self._write(event)

    def emit_snapshot(self, snapshot: dict[str, dict[str, Any]]) -> None:
        """Stream a registry snapshot as one metric-delta event per name.

        The event payload mirrors the snapshot spec exactly, so
        :func:`apply_metric_event` can fold it back losslessly.
        """
        for name, spec in sorted(snapshot.items()):
            if spec["kind"] == "histogram":
                self.emit(
                    "metric", name,
                    instrument="histogram", values=list(spec["values"]),
                )
            else:
                self.emit(
                    "metric", name,
                    instrument=spec["kind"], value=spec["value"],
                )


def apply_metric_event(registry: MetricsRegistry, event: dict[str, Any]) -> None:
    """Fold one ``kind="metric"`` event into a registry.

    Delegates to :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`
    so streamed metrics obey exactly the snapshot-merge semantics
    (counters add, histogram values concatenate, gauges last-write-win).

    Raises:
        ValueError: if the event is not a well-formed metric event.
    """
    data = event.get("data", {})
    instrument = data.get("instrument")
    name = event.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError(f"metric event without a name: {event!r}")
    if instrument == "histogram":
        spec: dict[str, Any] = {
            "kind": "histogram", "values": data.get("values", []),
        }
    elif instrument in ("counter", "gauge"):
        spec = {"kind": instrument, "value": data.get("value", 0)}
    else:
        raise ValueError(
            f"metric event {name!r} has unknown instrument {instrument!r}"
        )
    registry.merge_snapshot({name: spec})


def registry_from_events(events: Iterable[dict[str, Any]]) -> MetricsRegistry:
    """Rebuild the merged registry from a stream's metric events."""
    registry = MetricsRegistry()
    for event in events:
        if event.get("type") == "event" and event.get("kind") == "metric":
            apply_metric_event(registry, event)
    return registry


# ---------------------------------------------------------------------------
# Writers: the merged run log and the per-worker spool files.
# ---------------------------------------------------------------------------


class TelemetryWriter:
    """Appends flushed ``json.dumps(event, sort_keys=True)`` lines to a file.

    The run log is one of these, opened fresh with the meta line first;
    a worker's :class:`TelemetrySpool` is another, opened for appending
    with no meta line.  Every line is flushed immediately so ``repro
    telemetry tail --follow`` and :meth:`TelemetrySession.drain` see it
    while the run is still going.  :attr:`n_events` counts event lines,
    not the meta line.
    """

    def __init__(
        self,
        path: str | Path,
        run_id: str = "",
        experiment: str = "",
        *,
        meta: bool = True,
    ) -> None:
        self.path = Path(path)
        self.n_events = 0
        self._fh: IO[str] | None = self.path.open("w" if meta else "a")
        if meta:
            self._write_line(
                {
                    "type": "meta",
                    **format_header(TELEMETRY_FORMAT, TELEMETRY_VERSION),
                    "run_id": run_id,
                    "experiment": experiment,
                }
            )

    def _write_line(self, record: dict[str, Any]) -> None:
        if self._fh is None:
            raise ValueError(f"telemetry file {self.path} is closed")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def write_event(self, event: dict[str, Any]) -> None:
        """Append one event line (flushed).

        Raises:
            ValueError: if the writer was already closed.
        """
        self._write_line(event)
        self.n_events += 1

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> TelemetryWriter:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass(frozen=True)
class WorkerTelemetry:
    """The pickle-safe spec a worker needs to join a telemetry session.

    A frozen pure value (like :class:`~repro.fleet.executor.WalkJob`):
    it crosses the process boundary on the submit call and tells the
    worker where to spool and which IDs to stamp.  The worker replaces
    ``context.worker_id`` with its own.
    """

    spool_root: str
    context: EventContext


class TelemetrySpool(TelemetryWriter):
    """A worker's spool: a :class:`TelemetryWriter` on its own pid file.

    Each worker appends only to its own pid-named file, so no
    cross-process write interleaving can corrupt a line.
    """

    def __init__(self, spool_root: str | Path) -> None:
        self.worker_id = f"worker-{os.getpid()}"
        root = Path(spool_root)
        root.mkdir(parents=True, exist_ok=True)
        super().__init__(root / f"{self.worker_id}.jsonl", meta=False)

    def emitter(self, spec: WorkerTelemetry) -> EventEmitter:
        """Return an emitter stamping this worker's IDs for one job."""
        return EventEmitter(
            self.write_event, replace(spec.context, worker_id=self.worker_id)
        )


class TelemetrySession:
    """Parent-side pipeline: run log + live spool tailing.

    One session per engine invocation.  The serial path emits straight
    into the run log via :meth:`emitter`; the pool path hands each
    worker a :class:`WorkerTelemetry` spec (:meth:`worker_spec`) and the
    parent calls :meth:`drain` between future completions to tail the
    spools and merge complete lines into the log — live, not at end of
    run.
    """

    def __init__(
        self,
        path: str | Path,
        run_id: str | None = None,
        experiment: str = "",
    ) -> None:
        self.path = Path(path)
        self.run_id = run_id if run_id is not None else new_run_id()
        self.writer = TelemetryWriter(
            self.path, run_id=self.run_id, experiment=experiment
        )
        self.spool_root = Path(f"{self.path}.spool")
        self.spool_root.mkdir(parents=True, exist_ok=True)
        self._tails: dict[str, _LineTail] = {}
        self._closed = False

    @staticmethod
    def job_id(index: int) -> str:
        """Return the canonical job ID for a job-list index."""
        return f"job-{index:04d}"

    def emitter(
        self,
        job_id: str = "",
        worker_id: str = "main",
        walk_seed: int | None = None,
    ) -> EventEmitter:
        """Return an in-process emitter writing straight to the run log."""
        context = EventContext(
            run_id=self.run_id,
            job_id=job_id,
            worker_id=worker_id,
            walk_seed=walk_seed,
        )
        return EventEmitter(self.writer.write_event, context)

    def worker_spec(
        self, index: int, walk_seed: int | None = None
    ) -> WorkerTelemetry:
        """Return the pickle-safe spec for one pool-submitted job."""
        return WorkerTelemetry(
            spool_root=str(self.spool_root),
            context=EventContext(
                run_id=self.run_id, job_id=self.job_id(index), walk_seed=walk_seed
            ),
        )

    def drain(self) -> int:
        """Tail every spool file and merge complete new lines into the log.

        Each spool is read from where the last drain stopped; a
        partially written trailing line is left for the next drain.
        Returns the number of events merged.
        """
        merged = 0
        for spool_path in sorted(self.spool_root.glob("*.jsonl")):
            tail = self._tails.setdefault(spool_path.name, _LineTail(spool_path))
            for _, line in tail.poll():
                self.writer.write_event(json.loads(line))
                merged += 1
        return merged

    def close(self) -> None:
        """Final-drain the spools, remove them, close the log (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.drain()
        if self.spool_root.is_dir():
            for spool_path in self.spool_root.glob("*.jsonl"):
                spool_path.unlink(missing_ok=True)
            try:
                self.spool_root.rmdir()
            except OSError:
                pass  # a straggler wrote after the final drain; keep it
        self.writer.close()

    def __enter__(self) -> TelemetrySession:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# -- the process-wide current session ---------------------------------------

_SESSION: TelemetrySession | None = None


def current_session() -> TelemetrySession | None:
    """Return the process-wide telemetry session, if one is active.

    The fleet executor checks this (like :func:`repro.fleet.default_cache`)
    so experiments that call ``run_walks`` deep inside the registry
    stream telemetry without any parameter threading.
    """
    return _SESSION


def set_session(session: TelemetrySession | None) -> TelemetrySession | None:
    """Swap the process-wide session; returns the previous one."""
    global _SESSION
    previous = _SESSION
    _SESSION = session
    return previous


@contextmanager
def telemetry_session(
    path: str | Path, run_id: str | None = None, experiment: str = ""
) -> Iterator[TelemetrySession]:
    """Open a session, install it process-wide, close it on exit."""
    session = TelemetrySession(path, run_id=run_id, experiment=experiment)
    previous = set_session(session)
    try:
        yield session
    finally:
        set_session(previous)
        session.close()


# ---------------------------------------------------------------------------
# Readers: whole-file, streaming, and follow (tail -f).
# ---------------------------------------------------------------------------


class _LineTail:
    """The complete lines appended to one file since the last poll.

    Remembers a byte offset and a line count, so :meth:`poll` returns
    only new lines, numbered as in the file; a partially written
    trailing line is left for the next poll.  A missing file reads as
    empty.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.offset = 0
        self.lineno = 0

    def poll(self) -> list[tuple[int, bytes]]:
        """Return ``(line number, line)`` for each new non-blank line."""
        try:
            with self.path.open("rb") as fh:
                fh.seek(self.offset)
                chunk = fh.read()
        except FileNotFoundError:
            return []
        end = chunk.rfind(b"\n") + 1
        self.offset += end
        lines = []
        for line in chunk[:end].splitlines():
            self.lineno += 1
            if line.strip():
                lines.append((self.lineno, line))
        return lines


def _log_events(
    path: str | Path, lines: Iterable[tuple[int, str | bytes]]
) -> Iterator[dict[str, Any]]:
    """Decode a log's numbered lines; the first must be a compatible meta.

    Blank lines are skipped.

    Raises:
        ValueError: ``"PATH:N: ..."`` for a line that is not a JSON
            object; :class:`~repro.formats.UnsupportedFormatError` (a
            ``ValueError``) when the first line is not a compatible meta.
    """
    checked = False
    for lineno, line in lines:
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not JSON ({exc.msg})") from exc
        if not isinstance(event, dict):
            raise ValueError(f"{path}:{lineno}: not a JSON object")
        if not checked:
            if event.get("type") != "meta":
                raise UnsupportedFormatError(
                    f"{path} does not start with a {TELEMETRY_FORMAT} meta line"
                )
            check_header(event, TELEMETRY_FORMAT, TELEMETRY_VERSION, source=path)
            checked = True
        yield event


def iter_telemetry(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield every line of a telemetry log, meta line included.

    Raises:
        ValueError: on an empty log, a line that is not a JSON object,
            or a first line that is not a compatible meta line.
    """
    with Path(path).open() as fh:
        events = _log_events(path, enumerate(fh, start=1))
        meta = next(events, None)
        if meta is None:
            raise ValueError(f"{path} is empty, not a telemetry log")
        yield meta
        yield from events


def read_telemetry(
    path: str | Path,
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read a whole log; returns ``(meta, events)``.

    Raises:
        ValueError: as :func:`iter_telemetry`.
    """
    stream = iter_telemetry(path)
    meta = next(stream)
    return meta, [e for e in stream if e.get("type") == "event"]


def follow_telemetry(
    path: str | Path,
    poll_s: float = 0.5,
    sleep: Callable[[float], None] = time.sleep,
    max_idle_polls: int | None = None,
) -> Iterator[dict[str, Any]]:
    """Yield events as they are appended (``tail -f`` for a run log).

    Polls the file for complete new lines every ``poll_s`` seconds; the
    meta line is validated and yielded first.  ``sleep`` is injectable
    so tests follow a live file with a scripted no-op clock, and
    ``max_idle_polls`` bounds how many consecutive empty polls to
    tolerate before returning (``None`` = follow forever).

    Raises:
        ValueError: as :func:`iter_telemetry` (an empty log is waited on).
    """

    def lines() -> Iterator[tuple[int, bytes]]:
        tail = _LineTail(Path(path))
        idle = 0
        while True:
            new = tail.poll()
            if new:
                idle = 0
                yield from new
                continue
            idle += 1
            if max_idle_polls is not None and idle > max_idle_polls:
                return
            sleep(poll_s)

    yield from _log_events(path, lines())


def format_event(event: dict[str, Any]) -> str:
    """Render one event as a single human-readable tail line."""
    if event.get("type") == "meta":
        return (
            f"# {event.get('format')} v{event.get('version')} "
            f"run={event.get('run_id')} experiment={event.get('experiment')}"
        )
    data = event.get("data", {})
    detail = " ".join(f"{k}={_compact(v)}" for k, v in sorted(data.items()))
    return (
        f"{event.get('time_s', 0.0):14.3f} "
        f"{event.get('worker_id', ''):12s} "
        f"{event.get('job_id', ''):9s} "
        f"{event.get('kind', '')}/{event.get('name', '')}"
        + (f"  {detail}" if detail else "")
    )


def _compact(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, list):
        return f"[{len(value)} values]"
    return str(value)


# ---------------------------------------------------------------------------
# Fault-timeline reconstruction.
# ---------------------------------------------------------------------------


def fault_timeline(events: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Reconstruct the degradation lifecycle from a run's event stream.

    Returns one record per ``fault``/``quarantine`` event —
    ``{"job_id", "step", "scheme", "event", "detail"}`` — ordered by
    job then step (emit order breaks ties), which is exactly the
    replayable chaos narrative: inject → contain → quarantine → probe →
    release.
    """
    timeline = []
    for event in events:
        if event.get("kind") not in ("fault", "quarantine"):
            continue
        data = event.get("data", {})
        timeline.append(
            {
                "job_id": event.get("job_id", ""),
                "step": data.get("step"),
                "scheme": data.get("scheme", ""),
                "event": event.get("name", ""),
                "detail": data.get("failure", data.get("fault_kind", "")),
            }
        )
    timeline.sort(
        key=lambda record: (
            record["job_id"],
            record["step"] if record["step"] is not None else -1,
        )
    )
    return timeline
