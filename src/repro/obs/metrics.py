"""In-process metrics: counters, gauges, histograms, and timers.

UniLoc's selling point is *why* it picks a scheme at each step; this
module gives the pipeline a place to record those decisions as numbers
that survive aggregation — how often each scheme was available, how long
its ``estimate()`` took, how often the GPS chip was powered.  The design
goals, in order:

1. **Dependency-free.**  Nothing here imports outside the standard
   library but :mod:`repro.obs.clock` (itself standard-library only),
   so every layer (schemes, core, eval, CLI) can depend on it without
   cycles.
2. **Cheap.**  A counter increment is one dict lookup and an integer
   add; a histogram observation is a ``list.append``.  Percentiles are
   computed lazily, only when a report is rendered.
3. **Inspectable.**  ``MetricsRegistry.as_dict()`` flattens everything
   into plain JSON-ready values for export or assertion in tests.

Histogram percentiles use the same linear-interpolation definition as
``numpy.percentile(..., method="linear")`` so report numbers match the
evaluation code's conventions without importing numpy here.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterator

from repro.obs.clock import monotonic_s


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter.

        Raises:
            ValueError: if ``amount`` is negative.
        """
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    @property
    def value(self) -> int:
        """Return the current count."""
        return self._value


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        """Record the gauge's current value."""
        self._value = float(value)

    def add(self, delta: float) -> None:
        """Shift the gauge by ``delta``."""
        self._value += delta

    @property
    def value(self) -> float:
        """Return the last recorded value."""
        return self._value


def percentile(values: list[float], p: float) -> float:
    """Return the ``p``-th percentile of ``values`` (linear interpolation).

    Matches ``numpy.percentile(values, p, method="linear")``.

    Raises:
        ValueError: if ``values`` is empty or ``p`` outside [0, 100].
    """
    if not values:
        raise ValueError("percentile of an empty series is undefined")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (p / 100.0)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return ordered[lower]
    frac = rank - lower
    return ordered[lower] * (1.0 - frac) + ordered[upper] * frac


class Histogram:
    """A series of observations with lazy percentile readout.

    Observations are kept verbatim (a walk produces hundreds of steps,
    not millions), so any percentile is exact.  ``summary()`` emits the
    p50/p90/p99 trio the paper's latency tables report.
    """

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._values.append(float(value))

    @property
    def count(self) -> int:
        """Return the number of observations."""
        return len(self._values)

    @property
    def total(self) -> float:
        """Return the sum of all observations."""
        return sum(self._values)

    @property
    def mean(self) -> float:
        """Return the mean observation.

        Raises:
            ValueError: if nothing was observed.
        """
        if not self._values:
            raise ValueError("mean of an empty histogram is undefined")
        return self.total / len(self._values)

    @property
    def min(self) -> float:
        """Return the smallest observation (``nan`` when empty)."""
        return min(self._values) if self._values else float("nan")

    @property
    def max(self) -> float:
        """Return the largest observation (``nan`` when empty)."""
        return max(self._values) if self._values else float("nan")

    def percentile(self, p: float) -> float:
        """Return the ``p``-th percentile of the observations.

        Raises:
            ValueError: if nothing was observed.
        """
        return percentile(self._values, p)

    def values(self) -> list[float]:
        """Return a copy of the raw observations."""
        return list(self._values)

    def summary(self) -> dict[str, float]:
        """Return count/mean/p50/p90/p99/min/max as a plain dict."""
        if not self._values:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "min": self.min,
            "max": self.max,
        }


class Timer:
    """Context manager recording elapsed wall time into a histogram.

    The observation unit is milliseconds — the natural scale of one
    localization step.  Time is read through
    :func:`repro.obs.clock.monotonic_s`, so ``clock.override`` scripts
    it.
    """

    __slots__ = ("_histogram", "_start", "elapsed_ms")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0
        self.elapsed_ms = 0.0

    def __enter__(self) -> Timer:
        self._start = monotonic_s()
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed_ms = (monotonic_s() - self._start) * 1e3
        self._histogram.observe(self.elapsed_ms)


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Instruments are created on first access, so call sites never have to
    pre-declare what they record::

        registry.counter("uniloc.steps").inc()
        with registry.timer("uniloc.step_ms"):
            framework.step(snapshot)

    Creation is guarded by a lock so concurrent walkers sharing one
    registry cannot race two instruments onto the same name; recording on
    an existing instrument is a plain append/add under the GIL.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind: type) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.setdefault(name, kind())
        if not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """Return (creating if needed) the counter called ``name``."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Return (creating if needed) the gauge called ``name``."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Return (creating if needed) the histogram called ``name``."""
        return self._get(name, Histogram)

    def timer(self, name: str) -> Timer:
        """Return a timer feeding the histogram called ``name``."""
        return Timer(self.histogram(name))

    def __iter__(self) -> Iterator[tuple[str, Counter | Gauge | Histogram]]:
        return iter(sorted(self._instruments.items()))

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Export every instrument in a lossless, mergeable, pickle-safe form.

        Unlike :meth:`as_dict` (which summarizes histograms down to
        percentiles), a snapshot keeps raw histogram observations so two
        registries can be combined exactly — the fleet executor ships one
        snapshot per worker process back to the parent and folds them into
        a single registry with :meth:`merge_snapshot`.
        """
        out: dict[str, dict[str, Any]] = {}
        for name, instrument in self:
            if isinstance(instrument, Histogram):
                out[name] = {"kind": "histogram", "values": instrument.values()}
            elif isinstance(instrument, Counter):
                out[name] = {"kind": "counter", "value": instrument.value}
            else:
                out[name] = {"kind": "gauge", "value": instrument.value}
        return out

    def merge_snapshot(self, snapshot: dict[str, dict[str, Any]]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters add, histogram observations concatenate, gauges take the
        incoming value (last write wins, as always).

        Raises:
            TypeError: if a name is already registered as a different kind.
        """
        for name, spec in snapshot.items():
            kind = spec["kind"]
            if kind == "counter":
                self.counter(name).inc(spec["value"])
            elif kind == "histogram":
                histogram = self.histogram(name)
                for value in spec["values"]:
                    histogram.observe(value)
            elif kind == "gauge":
                self.gauge(name).set(spec["value"])
            else:
                raise TypeError(f"unknown instrument kind {kind!r} for {name!r}")

    def as_dict(self) -> dict[str, Any]:
        """Flatten every instrument into JSON-ready values."""
        out: dict[str, Any] = {}
        for name, instrument in self:
            if isinstance(instrument, Histogram):
                out[name] = instrument.summary()
            else:
                out[name] = instrument.value
        return out

    def render(self) -> str:
        """Return a compact human-readable dump, one metric per line."""
        lines = []
        for name, instrument in self:
            if isinstance(instrument, Histogram):
                s = instrument.summary()
                if s["count"] == 0:
                    lines.append(f"{name:40s} (empty)")
                else:
                    lines.append(
                        f"{name:40s} n={s['count']:<6d} mean={s['mean']:8.3f} "
                        f"p50={s['p50']:8.3f} p90={s['p90']:8.3f} p99={s['p99']:8.3f}"
                    )
            elif isinstance(instrument, Counter):
                lines.append(f"{name:40s} {instrument.value}")
            else:
                lines.append(f"{name:40s} {instrument.value:g}")
        return "\n".join(lines)
