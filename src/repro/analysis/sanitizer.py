"""Runtime determinism sanitizer: run twice, bisect the first divergence.

The static rules (``DET001``/``DET101``/``DET002``) prove seed lineage
and clock discipline *about the source*; this module checks the same
property *about a run*.  ``sanitize_experiment`` executes a registered
experiment twice under identical instrumentation and compares the two
recorded event streams record-for-record:

1. **Warm-up.**  One uncounted run fills the on-disk artifact cache
   (surveys, trained models), so run A filling the cache and run B
   reading it back cannot masquerade as nondeterminism.  The
   ``functools.lru_cache`` memos on the experiment *results* are then
   cleared before each recorded run — otherwise the second run would
   return the memoized object without executing anything.
2. **Scripted clocks.**  Both recorded runs execute under
   :func:`repro.obs.clock.override` with *ramp* clocks — each read
   returns the previous value plus a fixed tick.  Timestamps therefore
   encode the clock-read *count*, so a scheme that consults the clock a
   different number of times on the second run shows up as a diverging
   ``time_s`` even though real time never leaks in.
3. **RNG construction recording.**  ``numpy.random.default_rng`` is
   wrapped so every generator construction appends an ``rng`` record
   (with a stable repr of its seed argument) to the stream.  A walk
   that seeds differently between runs diverges at the exact
   construction, not at some downstream metric.
4. **Normalization.**  Fields that are honestly nondeterministic and
   allowlisted as such — ``run_id``, span ``duration_ms``, the step
   events' ``stage_ms`` timings, and ``_ms``/``_s``-suffixed metric
   values (measured durations) — are scrubbed before comparison.
5. **Bisection.**  :func:`first_divergence` binary-searches cumulative
   prefix hashes of the two streams for the first index where they
   disagree, and the report localizes that record to its job, worker,
   walk seed, and walk step (from the ``step`` events) with surrounding
   context.

Exit semantics are wired in :mod:`repro.cli` (``repro sanitize``):
0 = streams identical, 1 = divergence found, 2 = usage error.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.formats import check_header, format_header

#: On-disk version of the ``sanitize_report`` artifact.
SANITIZE_REPORT_VERSION = 1

#: Epoch base for the scripted wall clock: far enough from zero that
#: file-age arithmetic stays positive, stable so reports are comparable.
WALL_BASE_S = 1_600_000_000.0

#: Seconds added per scripted clock read.  Coarse enough to survive
#: float rounding at WALL_BASE_S, fine enough to order dense events.
CLOCK_TICK_S = 1e-3

#: Keys scrubbed from every event before hashing (allowlisted
#: nondeterminism: ids and measured durations).
_SCRUBBED_KEYS = frozenset({"run_id", "duration_ms", "stage_ms"})

#: Metric-name suffixes whose values are measured durations and are
#: therefore scrubbed, not compared.
_TIMING_SUFFIXES = ("_ms", "_s")


def _ramp(start: float, tick: float = CLOCK_TICK_S) -> Callable[[], float]:
    """Return a scripted clock: each call advances by ``tick``."""
    state = {"now": start}

    def read() -> float:
        state["now"] += tick
        return state["now"]

    return read


def _stable_seed_repr(value: Any) -> str:
    """Render an RNG seed argument deterministically (and compactly)."""
    try:
        import numpy as np

        if isinstance(value, np.ndarray):
            return f"ndarray{value.shape}:{value.tolist()!r}"
        if isinstance(value, np.generic):
            return repr(value.item())
    except Exception:  # pragma: no cover - numpy always importable here
        pass
    if isinstance(value, (tuple, list)):
        inner = ", ".join(_stable_seed_repr(v) for v in value)
        return f"({inner})" if isinstance(value, tuple) else f"[{inner}]"
    return repr(value)


class _RngRecorder:
    """Wrap ``numpy.random.default_rng`` and log every construction."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self._original: Any = None

    def __enter__(self) -> _RngRecorder:
        import numpy as np

        self._original = np.random.default_rng
        original = self._original
        records = self.records

        def recording_default_rng(seed: Any = None) -> Any:
            records.append(
                {
                    "type": "rng",
                    "kind": "rng",
                    "name": "numpy.random.default_rng",
                    "seed": _stable_seed_repr(seed),
                    "index": len(records),
                }
            )
            return original(seed)

        np.random.default_rng = recording_default_rng  # type: ignore[assignment]
        return self

    def __exit__(self, *exc: object) -> None:
        import numpy as np

        np.random.default_rng = self._original  # type: ignore[assignment]


def normalize_event(event: dict[str, Any]) -> dict[str, Any]:
    """Return a comparison-safe copy of one telemetry event.

    Drops :data:`_SCRUBBED_KEYS` at the top level and inside ``data``,
    and replaces the values of ``_ms``/``_s``-suffixed metrics — they
    are measured durations, so their magnitudes are not compared,
    though their *presence* and order still must match.
    """
    out = {k: v for k, v in event.items() if k not in _SCRUBBED_KEYS}
    data = out.get("data")
    if isinstance(data, dict):
        data = {k: v for k, v in data.items() if k not in _SCRUBBED_KEYS}
        if event.get("kind") == "metric" and str(
            data.get("metric", event.get("name", ""))
        ).endswith(_TIMING_SUFFIXES):
            for key in ("value", "sum", "values", "delta"):
                if key in data:
                    data[key] = "<timing>"
        out["data"] = data
    return out


def _record_hash(record: dict[str, Any]) -> bytes:
    payload = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).digest()


def first_divergence(
    a: list[dict[str, Any]], b: list[dict[str, Any]]
) -> int | None:
    """Return the index of the first differing record, or ``None``.

    Binary-searches cumulative prefix hashes rather than scanning:
    ``prefix[i]`` chains the hashes of records ``0..i``, so the
    predicate "prefixes of length *i* agree" is monotone and
    :func:`bisect.bisect_left` lands on the first disagreement.  A pure
    length difference (one stream is a prefix of the other) diverges at
    ``min(len(a), len(b))``.
    """

    def prefixes(stream: list[dict[str, Any]]) -> list[bytes]:
        acc = b""
        out = []
        for record in stream:
            acc = hashlib.sha256(acc + _record_hash(record)).digest()
            out.append(acc)
        return out

    pa, pb = prefixes(a), prefixes(b)
    n = min(len(pa), len(pb))
    # bisect over the monotone predicate: key(i) = 1 once prefixes differ.
    split = bisect_left(range(n), 1, key=lambda i: int(pa[i] != pb[i]))
    if split < n:
        return split
    if len(a) != len(b):
        return n
    return None


@dataclass(frozen=True)
class Divergence:
    """The first diverging record, localized to its execution context."""

    index: int
    record_a: dict[str, Any] | None
    record_b: dict[str, Any] | None
    job_id: str
    worker_id: str
    walk_seed: int | None
    context: list[str] = field(default_factory=list)
    #: The walk step the diverging record belongs to, when known.
    step: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "record_a": self.record_a,
            "record_b": self.record_b,
            "job_id": self.job_id,
            "worker_id": self.worker_id,
            "walk_seed": self.walk_seed,
            "step": self.step,
            "context": list(self.context),
        }


@dataclass(frozen=True)
class SanitizeReport:
    """Outcome of one double-run determinism check."""

    experiment: str
    seed: int
    n_records: tuple[int, int]
    n_rng_constructions: tuple[int, int]
    divergence: Divergence | None

    @property
    def clean(self) -> bool:
        return self.divergence is None

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            **format_header("sanitize_report", SANITIZE_REPORT_VERSION),
            "experiment": self.experiment,
            "seed": self.seed,
            "records": list(self.n_records),
            "rng_constructions": list(self.n_rng_constructions),
            "clean": self.clean,
        }
        payload["divergence"] = (
            self.divergence.to_dict() if self.divergence else None
        )
        return payload

    def render(self) -> str:
        lines = [
            f"sanitize {self.experiment} --seed {self.seed}",
            f"  run A: {self.n_records[0]} record(s), "
            f"{self.n_rng_constructions[0]} rng construction(s)",
            f"  run B: {self.n_records[1]} record(s), "
            f"{self.n_rng_constructions[1]} rng construction(s)",
        ]
        if self.clean:
            lines.append("  verdict: DETERMINISTIC (streams identical)")
            return "\n".join(lines)
        div = self.divergence
        assert div is not None
        where = f"record #{div.index}"
        if div.job_id:
            where += f", job {div.job_id}"
        if div.worker_id:
            where += f", worker {div.worker_id}"
        if div.walk_seed is not None:
            where += f", walk_seed {div.walk_seed}"
        if div.step is not None:
            where += f", step {div.step}"
        lines.append(f"  verdict: DIVERGED at {where}")
        for label, record in (("A", div.record_a), ("B", div.record_b)):
            rendered = (
                json.dumps(record, sort_keys=True, default=repr)
                if record is not None
                else "<stream ended>"
            )
            lines.append(f"    run {label}: {rendered}")
        if div.context:
            lines.append("  preceding events:")
            lines.extend(f"    {line}" for line in div.context)
        return "\n".join(lines)


def load_sanitize_report(path: str | Path) -> dict[str, Any]:
    """Read a saved sanitize report, validating the format header.

    Raises:
        UnsupportedFormatError: wrong ``format``/``version`` header.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    check_header(payload, "sanitize_report", SANITIZE_REPORT_VERSION, path)
    return payload


def _describe(record: dict[str, Any]) -> str:
    kind = record.get("kind", "?")
    name = record.get("name", "?")
    bits = [f"{kind}:{name}"]
    if record.get("job_id"):
        bits.append(str(record["job_id"]))
    if record.get("walk_seed") is not None:
        bits.append(f"walk_seed={record['walk_seed']}")
    return " ".join(bits)


def _localize(
    index: int, a: list[dict[str, Any]], b: list[dict[str, Any]]
) -> Divergence:
    record_a = a[index] if index < len(a) else None
    record_b = b[index] if index < len(b) else None
    anchor = record_a or record_b or {}
    job_id = str(anchor.get("job_id", ""))
    worker_id = str(anchor.get("worker_id", ""))
    walk_seed = anchor.get("walk_seed")
    # Walk back through run A for the nearest records that name a job:
    # those are the step/scheme context the diverging record executed in.
    context = [
        _describe(a[i]) for i in range(max(0, index - 3), min(index, len(a)))
    ]
    if not job_id:
        for i in range(min(index, len(a)) - 1, -1, -1):
            if a[i].get("job_id"):
                job_id = str(a[i]["job_id"])
                worker_id = worker_id or str(a[i].get("worker_id", ""))
                if walk_seed is None:
                    walk_seed = a[i].get("walk_seed")
                break
    return Divergence(
        index=index,
        record_a=record_a,
        record_b=record_b,
        job_id=job_id,
        worker_id=worker_id,
        walk_seed=walk_seed if isinstance(walk_seed, int) else None,
        context=context,
        step=_step_of(anchor, index, a, job_id),
    )


def _step_of(
    record: dict[str, Any], index: int, a: list[dict[str, Any]], job_id: str
) -> int | None:
    """Return the walk step a diverging record belongs to, if any.

    A record that names its step (``data.index`` on a ``step`` event,
    ``data.step`` on fault/quarantine events) answers directly;
    otherwise the nearest preceding ``step`` event of the same job in
    run A does.
    """
    data = record.get("data")
    if isinstance(data, dict):
        for key in ("index", "step"):
            if isinstance(data.get(key), int):
                return int(data[key])
    for i in range(min(index, len(a)) - 1, -1, -1):
        if a[i].get("kind") == "step" and a[i].get("job_id", "") == job_id:
            step = a[i].get("data", {}).get("index")
            return step if isinstance(step, int) else None
    return None


def _clear_result_memos() -> None:
    """Drop the experiment result memos (their ``lru_cache`` wrappers).

    Without this, the warmed-up recorded runs would both return the
    memoized result object and record zero events — a vacuously clean
    report.  The offline artifacts stay warm in the artifact cache, as
    do the exact-float memos (wave banks, corridor widths, fingerprint
    spatial densities): they construct no RNGs, read no clocks, and emit
    no telemetry, so their temperature cannot alter the stream.
    """
    from repro.eval import experiments

    for value in vars(experiments).values():
        cache_clear = getattr(value, "cache_clear", None)
        if callable(cache_clear):
            cache_clear()


def _recorded_run(
    name: str,
    run_label: str,
    log_path: Path,
    runner: Callable[..., Any],
    seed: int,
) -> list[dict[str, Any]]:
    """Execute one instrumented run; return its normalized record stream."""
    from repro.obs import clock
    from repro.obs.telemetry import read_telemetry, telemetry_session

    with _RngRecorder() as rng:
        with clock.override(
            wall=_ramp(WALL_BASE_S), monotonic=_ramp(0.0)
        ):
            with telemetry_session(
                log_path, run_id=f"sanitize-{run_label}", experiment=name
            ):
                runner(name, seed=seed, workers=1)
    _, events = read_telemetry(log_path)
    stream = [normalize_event(event) for event in events]
    # RNG records follow the telemetry block; each sub-stream is in
    # program order, so any cross-run difference still lands on the
    # first genuinely differing record within its sub-stream.
    stream.extend(rng.records)
    return stream


def sanitize_experiment(
    name: str,
    seed: int = 0,
    out_dir: str | Path | None = None,
    runner: Callable[..., Any] | None = None,
    warmup: bool = True,
) -> SanitizeReport:
    """Run ``name`` twice under instrumentation and diff the streams.

    Args:
        name: registered experiment name (``repro run --list``).
        seed: master seed forwarded to the runner.
        out_dir: where the two telemetry logs land (default: a
            ``.repro-cache/sanitize`` directory next to the cwd).
        runner: the experiment runner; injectable for tests.  Defaults
            to :func:`repro.eval.registry.run_experiment`.  Always
            invoked with ``workers=1`` — the sanitizer certifies the
            serial stream; serial/parallel equivalence has its own
            tests.
        warmup: run once uncounted first (fills the disk artifact
            cache) and clear the experiment-result memos before each
            recorded run.  Disable for injected test runners that have
            neither caches nor memos.

    Returns:
        A :class:`SanitizeReport`; ``report.clean`` is the verdict.
    """
    if runner is None:
        from repro.eval.registry import run_experiment

        runner = run_experiment

    root = Path(out_dir) if out_dir else Path(".repro-cache") / "sanitize"
    root.mkdir(parents=True, exist_ok=True)

    if warmup:
        runner(name, seed=seed, workers=1)

    streams: list[list[dict[str, Any]]] = []
    for label in ("a", "b"):
        if warmup:
            _clear_result_memos()
        log_path = root / f"{name}-{label}.telemetry.jsonl"
        streams.append(
            _recorded_run(name, label, log_path, runner, seed)
        )
    stream_a, stream_b = streams

    def rng_count(stream: list[dict[str, Any]]) -> int:
        return sum(1 for r in stream if r.get("type") == "rng")

    index = first_divergence(stream_a, stream_b)
    divergence = (
        _localize(index, stream_a, stream_b) if index is not None else None
    )
    return SanitizeReport(
        experiment=name,
        seed=seed,
        n_records=(len(stream_a), len(stream_b)),
        n_rng_constructions=(rng_count(stream_a), rng_count(stream_b)),
        divergence=divergence,
    )
