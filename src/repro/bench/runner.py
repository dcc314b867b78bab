"""The microbench runner behind ``repro bench``.

Each bench times one radio hot path, or the particle map constraint,
in two variants on identical inputs: ``scalar`` (the reference from
:mod:`repro.bench.baselines`, or the scalar per-point API where that
*is* the current implementation) and ``kernel`` (the batched
:mod:`repro.radio.kernels` path, or the culled
:class:`~repro.schemes.ParticleFilter` constraint).  The ``walk_step``
bench has no scalar twin — it times the full ``UniLocFramework.step``
as shipped, as an end-to-end canary.

Reports are schema-versioned JSON (``format: "bench"``) so CI can
compare a fresh run against a committed baseline.  Cross-machine
comparisons must use the ``speedups`` section (ratios cancel the host
speed); same-machine comparisons may use raw ``p50_ms``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.formats import check_header, format_header
from repro.obs.clock import monotonic_s, now_s

#: Artifact format tag / newest readable version for BENCH files.
BENCH_FORMAT = "bench"
BENCH_VERSION = 1

#: Speedup-ratio drop (fraction) that counts as a regression by default.
DEFAULT_THRESHOLD = 0.25


@dataclass(frozen=True)
class Timing:
    """Percentile timings of one bench variant over its iterations."""

    p50_ms: float
    p90_ms: float
    n_iterations: int

    def to_payload(self) -> dict[str, Any]:
        return {
            "p50_ms": self.p50_ms,
            "p90_ms": self.p90_ms,
            "n_iterations": self.n_iterations,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Timing":
        return cls(
            p50_ms=float(payload["p50_ms"]),
            p90_ms=float(payload["p90_ms"]),
            n_iterations=int(payload["n_iterations"]),
        )


def time_callable(fn: Callable[[], object], repeats: int = 20) -> Timing:
    """Time ``fn`` ``repeats`` times and summarize as p50/p90 (ms).

    One untimed warmup call precedes the loop so lazy caches (wave
    banks, compiled databases) are charged to setup, not to the first
    sample.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    fn()
    samples = np.empty(repeats)
    for i in range(repeats):
        start = monotonic_s()
        fn()
        samples[i] = (monotonic_s() - start) * 1e3
    return Timing(
        p50_ms=float(np.percentile(samples, 50)),
        p90_ms=float(np.percentile(samples, 90)),
        n_iterations=repeats,
    )


@dataclass
class BenchReport:
    """One ``repro bench run`` invocation's results."""

    place: str
    seed: int
    created_at: float
    #: ``"<bench>.<variant>"`` -> timing, e.g. ``"shadowing.kernel"``.
    results: dict[str, Timing] = field(default_factory=dict)

    def speedups(self) -> dict[str, float]:
        """Return ``scalar p50 / kernel p50`` per two-variant bench."""
        out: dict[str, float] = {}
        for key, scalar in self.results.items():
            bench, _, variant = key.rpartition(".")
            if variant != "scalar":
                continue
            kernel = self.results.get(f"{bench}.kernel")
            if kernel is not None and kernel.p50_ms > 0.0:
                out[bench] = scalar.p50_ms / kernel.p50_ms
        return out

    def to_payload(self) -> dict[str, Any]:
        payload = format_header(BENCH_FORMAT, BENCH_VERSION)
        payload.update(
            {
                "created_at": self.created_at,
                "place": self.place,
                "seed": self.seed,
                "results": {
                    key: timing.to_payload()
                    for key, timing in sorted(self.results.items())
                },
                "speedups": {
                    key: round(value, 3)
                    for key, value in sorted(self.speedups().items())
                },
            }
        )
        return payload

    @classmethod
    def from_payload(
        cls, payload: dict[str, Any], source: object = "bench report"
    ) -> "BenchReport":
        check_header(payload, BENCH_FORMAT, BENCH_VERSION, source=source)
        return cls(
            place=str(payload["place"]),
            seed=int(payload["seed"]),
            created_at=float(payload["created_at"]),
            results={
                key: Timing.from_payload(value)
                for key, value in payload["results"].items()
            },
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_payload(), indent=1, sort_keys=True) + "\n"
        )

    def render(self) -> str:
        """Return the human-readable results table."""
        lines = [f"bench: place={self.place} seed={self.seed}"]
        for key, timing in sorted(self.results.items()):
            lines.append(
                f"  {key:28s} p50 {timing.p50_ms:9.3f} ms   "
                f"p90 {timing.p90_ms:9.3f} ms   (n={timing.n_iterations})"
            )
        speedups = self.speedups()
        if speedups:
            lines.append("speedups (scalar p50 / kernel p50):")
            for key, value in sorted(speedups.items()):
                lines.append(f"  {key:28s} {value:8.1f}x")
        return "\n".join(lines)


def load_report(path: str | Path) -> BenchReport:
    """Load a ``BENCH_*.json`` report, validating its header."""
    payload = json.loads(Path(path).read_text())
    return BenchReport.from_payload(payload, source=path)


def default_bench_filename(created_at: float) -> str:
    """Return the conventional ``BENCH_<date>.json`` name for a report."""
    day = datetime.fromtimestamp(created_at, tz=timezone.utc).date()
    return f"BENCH_{day.isoformat()}.json"


def compare_reports(
    baseline: BenchReport,
    current: BenchReport,
    threshold: float = DEFAULT_THRESHOLD,
    metric: str = "speedup",
) -> list[str]:
    """Return regression descriptions (empty when ``current`` is fine).

    ``metric="speedup"`` (the default) compares the machine-independent
    kernel-vs-scalar ratios: a regression is a bench whose speedup fell
    more than ``threshold`` (fractional) below the baseline's.
    ``metric="p50"`` compares raw per-variant medians and is only
    meaningful when both reports ran on the same host.
    """
    if threshold < 0.0:
        raise ValueError("threshold must be non-negative")
    regressions: list[str] = []
    if metric == "speedup":
        base, cur = baseline.speedups(), current.speedups()
        for bench in sorted(base.keys() & cur.keys()):
            floor = base[bench] * (1.0 - threshold)
            if cur[bench] < floor:
                regressions.append(
                    f"{bench}: speedup {cur[bench]:.1f}x fell below "
                    f"{floor:.1f}x (baseline {base[bench]:.1f}x "
                    f"- {threshold:.0%})"
                )
    elif metric == "p50":
        for key in sorted(baseline.results.keys() & current.results.keys()):
            ceiling = baseline.results[key].p50_ms * (1.0 + threshold)
            if current.results[key].p50_ms > ceiling:
                regressions.append(
                    f"{key}: p50 {current.results[key].p50_ms:.3f} ms "
                    f"exceeds {ceiling:.3f} ms (baseline "
                    f"{baseline.results[key].p50_ms:.3f} ms "
                    f"+ {threshold:.0%})"
                )
    else:
        raise ValueError(f"unknown metric {metric!r}; use 'speedup' or 'p50'")
    return regressions


# -- the bench workloads ---------------------------------------------------


def _shadowing_bench(setup: Any, seed: int, repeats: int) -> dict[str, Timing]:
    """Batched shadowing field vs the pre-kernel per-point reference."""
    from repro.bench import baselines
    from repro.geometry import Point
    from repro.radio.kernels import ShadowingBank

    model = setup.radio.wifi_model
    tx_seeds = tuple(ap.seed for ap in setup.radio.access_points[:8])
    rng = np.random.default_rng(seed + 41)
    points = rng.uniform(0.0, 120.0, size=(256, 2))
    point_objs = [Point(float(x), float(y)) for x, y in points]

    def scalar() -> None:
        for tx_seed in tx_seeds:
            for p in point_objs:
                baselines.shadowing_db_reference(
                    model.shadowing_sigma_db,
                    model.shadowing_scale_m,
                    p,
                    tx_seed,
                )

    bank = ShadowingBank.stack(model, tx_seeds)

    def kernel() -> None:
        bank.shadowing_db(points)

    return {
        "shadowing.scalar": time_callable(scalar, repeats),
        "shadowing.kernel": time_callable(kernel, repeats),
    }


def _fingerprint_bench(
    setup: Any, scans: list[dict[str, float]], repeats: int
) -> dict[str, Timing]:
    """Compiled nearest-k vs the pre-kernel per-entry union loop."""
    from repro.bench import baselines
    from repro.radio.kernels import compile_fingerprints

    compiled = compile_fingerprints(setup.wifi_db)
    entries = setup.wifi_db.entries

    def scalar() -> None:
        for scan in scans:
            baselines.nearest_reference(entries, scan, 3)

    def kernel() -> None:
        for scan in scans:
            compiled.nearest(scan, k=3)

    return {
        "fingerprint_nearest.scalar": time_callable(scalar, repeats),
        "fingerprint_nearest.kernel": time_callable(kernel, repeats),
    }


def _scan_bench(setup: Any, seed: int, repeats: int) -> dict[str, Timing]:
    """Noise-free mean-RSSI generation: per-point API vs one batch."""
    from repro.radio import kernels

    model = setup.radio.wifi_model
    aps = setup.radio.access_points
    rng = np.random.default_rng(seed + 43)
    rx_xy = rng.uniform(0.0, 120.0, size=(128, 2))
    from repro.geometry import Point

    rx_points = [Point(float(x), float(y)) for x, y in rx_xy]
    tx_xy = np.array([[ap.position.x, ap.position.y] for ap in aps])
    tx_seeds = tuple(ap.seed for ap in aps)
    # Wall counts are a floorplan question, not a kernel one: give both
    # variants the same precomputed matrix.
    walls = np.zeros((len(rx_points), len(aps)))

    def scalar() -> None:
        for rx in rx_points:
            for ap in aps:
                model.mean_rssi_dbm(ap.position, rx, walls=0, tx_seed=ap.seed)

    def kernel() -> None:
        kernels.mean_rssi_dbm(model, tx_xy, tx_seeds, rx_xy, walls=walls)

    return {
        "scan_generation.scalar": time_callable(scalar, repeats),
        "scan_generation.kernel": time_callable(kernel, repeats),
    }


def _map_constraint_bench(
    setup: Any, walk: Any, seed: int, repeats: int
) -> dict[str, Timing]:
    """Culled particle map constraint vs the pre-cull reference.

    Both variants test one recorded cloud: a 300-particle filter walked
    20 steps down the recorded walk, and its next proposed move, through
    ``walkable_mask`` plus the wall-crossing test.
    """
    from repro.bench import baselines
    from repro.schemes import ParticleFilter

    rng = np.random.default_rng(seed + 47)
    moments = walk.moments[:21]
    pf = ParticleFilter(setup.place)
    pf.initialize(moments[0].position, 1.0, rng)
    for moment in moments[1:-1]:
        pf.predict(moment.step_length, moment.heading)
    old = pf.positions
    last = moments[-1]
    step = last.step_length * np.array([np.cos(last.heading), np.sin(last.heading)])
    new = old + step + rng.normal(0.0, pf.position_noise_std, old.shape)

    def scalar() -> None:
        baselines.walkable_mask_reference(pf, new)
        baselines.crosses_wall_reference(pf, old, new)

    def kernel() -> None:
        pf.walkable_mask(new)
        pf._crosses_wall(old, new)

    return {
        "map_constraint.scalar": time_callable(scalar, repeats),
        "map_constraint.kernel": time_callable(kernel, repeats),
    }


def _walk_step_bench(
    setup: Any, snapshots: list[Any], framework: Any, repeats: int
) -> dict[str, Timing]:
    """End-to-end ``UniLocFramework.step`` over a walk prefix."""
    steps = snapshots[:40]

    def run() -> None:
        framework.reset()
        for snapshot in steps:
            framework.step(snapshot)

    timing = time_callable(run, repeats)
    per_step = 1.0 / max(len(steps), 1)
    return {
        "walk_step.uniloc": Timing(
            p50_ms=timing.p50_ms * per_step,
            p90_ms=timing.p90_ms * per_step,
            n_iterations=timing.n_iterations,
        )
    }


def run_benches(
    place_name: str = "office",
    seed: int = 0,
    repeats: int = 20,
    include_walk_step: bool = True,
    cache: Any = None,
) -> BenchReport:
    """Run the microbench suite on one place and return the report.

    Offline artifacts (the surveyed place and, for the walk-step bench,
    the trained error models) come from the fleet cache, so a warmed
    cache makes this cheap enough for a CI smoke job.
    """
    from repro.eval.setup import build_framework
    from repro.fleet import default_cache

    cache = cache if cache is not None else default_cache()
    setup = cache.place_setup(place_name, seed + 3)
    walk, snapshots = setup.record_walk(
        "survey" if "survey" in setup.place.paths else next(iter(setup.place.paths)),
        walk_seed=seed,
        trace_seed=seed + 1,
    )
    scans = [s.wifi_scan for s in snapshots if s.wifi_scan][:32]

    results: dict[str, Timing] = {}
    results.update(_shadowing_bench(setup, seed, repeats))
    results.update(_fingerprint_bench(setup, scans, repeats))
    results.update(_scan_bench(setup, seed, repeats))
    results.update(_map_constraint_bench(setup, walk, seed, repeats))
    if include_walk_step:
        models = cache.error_models(seed)
        framework = build_framework(setup, models, walk.moments[0].position)
        results.update(
            _walk_step_bench(setup, snapshots, framework, max(repeats // 4, 3))
        )
    return BenchReport(
        place=place_name, seed=seed, created_at=now_s(), results=results
    )
