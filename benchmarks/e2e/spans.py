"""Outside-in tracing: spans recorded around calls into each layer.

Nothing in ``src/`` is edited.  Proxies defined here wrap the objects a
:class:`~repro.core.framework.UniLocFramework` calls into -- each scheme
(the ``Scheme`` protocol), each ``FeatureExtractor``, each
``ErrorModelSet`` and the ``location_predictor`` -- and ``workloads.py``
opens spans around ``step``/``step_batch``, ``record_walk``, the cache
loads and ``score_step``.  Spans are kept in memory and written as
JSONL when the run ends.

The proxies change which code runs: ``PopulationFramework`` primes only
the concrete scheme classes it recognizes, so a proxied lane runs the
scalar path.  The traced run therefore reports ``bench.trace_overhead_frac``
instead of hiding it.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    """One finished span; times are clock nanoseconds."""

    span_id: int
    parent_id: int | None
    name: str
    start_ns: int
    end_ns: int
    request: str

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Records nested spans; the open span stack gives each span its parent.

    ``workloads.py`` sets ``prefix`` and ``step`` before each op, so a
    span's request id is ``workload:pass:lane:step``.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.prefix = ""
        self.step: int | str = 0
        self._stack: list[tuple[int, str, int, str]] = []
        self._next_id = 1

    def begin(self, name: str, lane: int | str = "*") -> None:
        span_id = self._next_id
        self._next_id += 1
        request = f"{self.prefix}:{lane}:{self.step}"
        self._stack.append((span_id, name, self.clock(), request))

    def end(self) -> None:
        end_ns = self.clock()
        span_id, name, start_ns, request = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(Span(span_id, parent, name, start_ns, end_ns, request))

    def call(self, name: str, lane: int | str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` inside a span (closed even if ``fn`` raises)."""
        self.begin(name, lane)
        try:
            return fn(*args)
        finally:
            self.end()


def write_jsonl(spans: list[Span], path: Path) -> None:
    """Write every span as one JSON line."""
    with path.open("w") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s)) + "\n")


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Return each span's self time: its duration minus the union of the
    intervals its direct children cover (clipped to the span)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start_ns, s.end_ns))
    result: dict[int, int] = {}
    for s in spans:
        covered = 0
        cursor = s.start_ns
        for start, end in sorted(children.get(s.span_id, [])):
            start, end = max(start, cursor), min(end, s.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        result[s.span_id] = s.duration_ns - covered
    return result


# ---------------------------------------------------------------------------
# Proxies.  Attribute reads fall through to the wrapped object, so code that
# inspects a scheme's index or an extractor's database sees the real one.
# ---------------------------------------------------------------------------


class _Proxy:
    def __init__(self, inner: Any, recorder: SpanRecorder, lane: int) -> None:
        self._inner = inner
        self._rec = recorder
        self._lane = lane

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)


class SchemeProxy(_Proxy):
    """Times ``estimate`` and counts useful (non-None) outputs."""

    def __init__(self, inner: Any, recorder: SpanRecorder, lane: int) -> None:
        super().__init__(inner, recorder, lane)
        self.name = inner.name
        self._span = f"schemes.{inner.name}.estimate"
        self.calls = 0
        self.useful = 0

    def estimate(self, snapshot: Any) -> Any:
        self.calls += 1
        output = self._rec.call(self._span, self._lane, self._inner.estimate, snapshot)
        if output is not None:
            self.useful += 1
        return output

    def estimate_batch(self, snapshots: Any) -> list[Any]:
        return [self.estimate(snapshot) for snapshot in snapshots]

    def reset(self) -> None:
        self._inner.reset()


class ExtractorProxy(_Proxy):
    def extract(self, ctx: Any) -> Any:
        return self._rec.call("core.features.extract", self._lane, self._inner.extract, ctx)


class _ModelProxy(_Proxy):
    def predict(self, features: Any) -> Any:
        return self._rec.call(
            "core.error_model.predict", self._lane, self._inner.predict, features
        )


class ErrorModelSetProxy(_Proxy):
    def __init__(self, inner: Any, recorder: SpanRecorder, lane: int) -> None:
        super().__init__(inner, recorder, lane)
        self._models = {
            True: _ModelProxy(inner.for_context(True), recorder, lane),
            False: _ModelProxy(inner.for_context(False), recorder, lane),
        }

    def for_context(self, indoor: bool) -> Any:
        return self._models[indoor]


class PredictorProxy(_Proxy):
    """Wraps the framework's ``location_predictor`` (the HMM)."""

    def observe(self, location: Any) -> None:
        self._rec.call("core.hmm.observe", self._lane, self._inner.observe, location)

    def predict(self) -> Any:
        return self._rec.call("core.hmm.predict", self._lane, self._inner.predict)

    def reset(self) -> None:
        self._inner.reset()
