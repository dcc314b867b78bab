"""The microbench runner behind ``repro bench``.

Each bench times one radio hot path, the particle map constraint, the
BMA readout, one of the sensor trace's queries, or the fusion scheme's
nearest-fingerprint lookup, in two variants on identical inputs:
``scalar`` (the reference from :mod:`repro.bench.baselines`) and
``kernel`` (the code that runs: the dense
``FingerprintDatabase.nearest``, the compiled
:class:`~repro.schemes.particle_filter.MapConstraint`, the
temporary-free :class:`~repro.geometry.Grid` readout, the box-culled
``Place.environment_at``, the paired ``FloorPlan.walls_crossed``, the
radio pass of :class:`~repro.radio.RadioEnvironment`, or the
box-culled :func:`~repro.schemes.fusion.nearest_fingerprint`).
The two variants are timed interleaved (:func:`time_interleaved`), so
host drift during a run moves both alike, not their ratio.  The
``walk_step`` bench has no scalar twin — it times the full
``UniLocFramework.step`` as shipped, as an end-to-end canary.

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
from typing import Any, Callable, Sequence

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


def time_interleaved(
    fns: Sequence[Callable[[], object]], repeats: int = 20
) -> list[Timing]:
    """Time each of ``fns`` ``repeats`` times, round-robin, as p50/p90 (ms).

    One untimed warmup call of each precedes the loop so lazy caches
    (wave banks, density buckets) are charged to setup, not to the first
    sample.  Each round times every function once, starting one later
    each round, so the variants of a bench see the same host moments and
    neither always runs first: drift in host speed lands on every
    variant alike instead of in the ratio between them.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    for fn in fns:
        fn()
    samples = np.empty((len(fns), repeats))
    for i in range(repeats):
        for k in range(len(fns)):
            j = (i + k) % len(fns)
            start = monotonic_s()
            fns[j]()
            samples[j, i] = (monotonic_s() - start) * 1e3
    return [
        Timing(
            p50_ms=float(np.percentile(row, 50)),
            p90_ms=float(np.percentile(row, 90)),
            n_iterations=repeats,
        )
        for row in samples
    ]


def time_callable(fn: Callable[[], object], repeats: int = 20) -> Timing:
    """Time ``fn`` alone (:func:`time_interleaved` with one function)."""
    return time_interleaved([fn], repeats)[0]


@dataclass
class BenchReport:
    """One ``repro bench run`` invocation's results."""

    place: str
    seed: int
    created_at: float
    #: ``"<bench>.<variant>"`` -> timing, e.g. ``"radio_moment.kernel"``.
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


def ungated_benches(
    baseline: BenchReport, current: BenchReport, metric: str = "speedup"
) -> list[str]:
    """Return what ``current`` measures but ``compare_reports`` cannot gate.

    Comparison covers only keys both reports carry, so a bench added
    after the baseline was recorded is silently unchecked; this names
    those keys (bench names for ``speedup``, ``bench.variant`` for
    ``p50``).
    """
    if metric == "speedup":
        base, cur = baseline.speedups().keys(), current.speedups().keys()
    elif metric == "p50":
        base, cur = baseline.results.keys(), current.results.keys()
    else:
        raise ValueError(f"unknown metric {metric!r}; use 'speedup' or 'p50'")
    return sorted(cur - base)


# -- the bench workloads ---------------------------------------------------


def _pair(
    bench: str,
    scalar: Callable[[], object],
    kernel: Callable[[], object],
    repeats: int,
) -> dict[str, Timing]:
    """Time a bench's reference and shipped variants, interleaved."""
    scalar_timing, kernel_timing = time_interleaved([scalar, kernel], repeats)
    return {f"{bench}.scalar": scalar_timing, f"{bench}.kernel": kernel_timing}


def _fingerprint_bench(
    setup: Any, scans: list[dict[str, float]], repeats: int
) -> dict[str, Timing]:
    """Dense ``FingerprintDatabase.nearest`` vs the per-entry union loop."""
    from repro.bench import baselines

    database = setup.wifi_db
    entries = database.entries

    def scalar() -> None:
        for scan in scans:
            baselines.nearest_reference(entries, scan, 3)

    def kernel() -> None:
        for scan in scans:
            database.nearest(scan, k=3)

    return _pair("fingerprint_nearest", scalar, kernel, repeats)


def _map_constraint_bench(
    setup: Any, walk: Any, seed: int, repeats: int
) -> dict[str, Timing]:
    """Compiled particle map constraint vs the pre-cull reference.

    Both variants test the clouds a 300-particle filter proposes over
    the walk's first 60 steps, exactly as ``ParticleFilter.predict``
    passes them to ``MapConstraint.allows``.
    """
    from repro.bench import baselines
    from repro.schemes import ParticleFilter

    pf = ParticleFilter(setup.place)
    constraint = pf._constraint
    calls: list[tuple[np.ndarray, ...]] = []

    class Recorder:
        """Keeps every call ``predict`` makes and forwards it."""

        def allows(self, *columns: np.ndarray) -> np.ndarray:
            calls.append(columns)
            return constraint.allows(*columns)

    pf._constraint = Recorder()  # type: ignore[assignment]
    moments = walk.moments[:61]
    pf.initialize(moments[0].position, 1.0, np.random.default_rng(seed + 47))
    for moment in moments[1:]:
        pf.predict(moment.step_length, moment.heading)
        pf.resample_if_needed()
    arrays = baselines.map_arrays(setup.place)
    clouds = [
        (np.column_stack((old_x, old_y)), np.column_stack((new_x, new_y)))
        for old_x, old_y, new_x, new_y in calls
    ]

    def scalar() -> None:
        for old, new in clouds:
            baselines.walkable_mask_reference(arrays, new)
            baselines.crosses_wall_reference(arrays, old, new)

    def kernel() -> None:
        for columns in calls:
            constraint.allows(*columns)

    return _pair("map_constraint", scalar, kernel, repeats)


def _bma_readout_bench(
    setup: Any, walk: Any, snapshots: list[Any], seed: int, repeats: int
) -> dict[str, Timing]:
    """BMA mixture plus Eq. 4 mean vs the ``(I, 2)`` reference.

    Both variants read out one recorded step on the framework's 2 m
    grid: the five schemes run over the walk's first 21 snapshots, and
    the last step's outputs are mixed with equal weights.
    """
    from repro.bench import baselines
    from repro.core.framework import bma_mixture

    schemes = setup.make_schemes(walk.moments[0].position, scheme_seed=seed)
    for snapshot in snapshots[:21]:
        outputs = {name: scheme.estimate(snapshot) for name, scheme in schemes.items()}
    available = [name for name, output in outputs.items() if output is not None]
    weights = {name: 1.0 / len(available) for name in available}
    grid = setup.place.grid(2.0)

    def scalar() -> None:
        mixture = baselines.bma_mixture_reference(grid, outputs, weights)
        baselines.expected_point_reference(grid, mixture)

    def kernel() -> None:
        grid.expected_point(bma_mixture(grid, outputs, weights))

    return _pair("bma_readout", scalar, kernel, repeats)


def _place_query_benches(setup: Any, walk: Any, repeats: int) -> dict[str, Timing]:
    """The sensor trace's two place queries, over the walk's first 120 moments.

    ``environment_at`` looks each moment's environment up: the box-culled
    ``Place.environment_at`` against the full region loop.
    ``wall_count`` counts the walls between every AP and each moment:
    one paired ``FloorPlan.walls_crossed`` call over every (moment, AP)
    pair against one single-ray reference call per pair, as
    ``wifi_mean_rssi`` used to make.
    """
    from repro.bench import baselines
    from repro.world.place import compile_place_index

    place = setup.place
    points = [moment.position for moment in walk.moments[:120]]
    aps = [ap.position for ap in setup.radio.access_points]
    starts = np.array([[ap.x, ap.y] for _ in points for ap in aps]).reshape(-1, 2)
    ends = np.array([[p.x, p.y] for p in points for _ in aps]).reshape(-1, 2)
    plan = place.floorplan
    packed = compile_place_index(place).walls
    wall_arrays = baselines.map_arrays(place).walls

    def env_scalar() -> None:
        for p in points:
            baselines.environment_at_reference(place, p)

    def env_kernel() -> None:
        for p in points:
            place.environment_at(p)

    def walls_scalar() -> None:
        for p in points:
            for ap in aps:
                baselines.walls_crossed_reference(plan.walls, wall_arrays, ap, p)

    def walls_kernel() -> None:
        plan.walls_crossed(packed, starts, ends)

    return {
        **_pair("environment_at", env_scalar, env_kernel, repeats),
        **_pair("wall_count", walls_scalar, walls_kernel, repeats),
    }


def _radio_moment_bench(setup: Any, walk: Any, repeats: int) -> dict[str, Timing]:
    """The radio part of recording the walk's first 120 moments.

    Each moment needs the Wi-Fi and cellular mean readings and the
    satellite geometry: one radio pass over all 120 moments (walls
    counted only where an AP can still be heard) plus the sky-view
    memo, against one reference call per moment, AP and tower plus a
    fresh ``(H^T H)^{-1}`` solve per moment, as ``record_walk`` used to
    make.
    """
    from repro.bench import baselines
    from repro.world import profile_of

    radio = setup.radio
    points = [moment.position for moment in walk.moments[:120]]
    profiles = [profile_of(setup.place.environment_at(p)) for p in points]
    ap_xy = np.array(
        [[ap.position.x, ap.position.y] for ap in radio.access_points]
    ).reshape(-1, 2)

    def scalar() -> None:
        for p, profile in zip(points, profiles):
            baselines.radio_moment_reference(radio, ap_xy, p, profile)

    def kernel() -> None:
        radio.wifi_means(points, profiles)
        radio.cell_means(points, profiles)
        for profile in profiles:
            radio.sky_geometry(profile)

    return _pair("radio_moment", scalar, kernel, repeats)


def _nearest_fingerprint_bench(
    setup: Any, walk: Any, snapshots: list[Any], seed: int, repeats: int
) -> dict[str, Timing]:
    """Fusion's box-culled nearest-fingerprint lookup vs one ``cKDTree`` query.

    Both variants look up the clouds a fusion scheme holds over the
    walk's first 60 steps, the kernel over the surveyed spots as the
    scheme does; the reference's tree is built once, outside the
    timing, as the scheme built it.
    """
    from repro.bench import baselines
    from repro.schemes.fusion import nearest_fingerprint, surveyed_spots

    fusion = setup.make_schemes(walk.moments[0].position, scheme_seed=seed)["fusion"]
    clouds = [fusion.estimate(snapshot).samples for snapshot in snapshots[:60]]
    positions = setup.wifi_db.positions()
    query = baselines.nearest_fingerprint_reference(positions)
    spots_xy, _ = surveyed_spots(positions)

    def scalar() -> None:
        for cloud in clouds:
            query(cloud)

    def kernel() -> None:
        for cloud in clouds:
            nearest_fingerprint(spots_xy, cloud)

    return _pair("nearest_fingerprint", scalar, kernel, repeats)


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
    from repro.fleet import default_cache, protocol_setup_seed

    cache = cache if cache is not None else default_cache()
    setup = cache.place_setup(place_name, protocol_setup_seed(seed))
    walk, snapshots = setup.record_walk(
        "survey" if "survey" in setup.place.paths else next(iter(setup.place.paths)),
        walk_seed=seed,
        trace_seed=seed + 1,
    )
    scans = [s.wifi_scan for s in snapshots if s.wifi_scan][:32]

    results: dict[str, Timing] = {}
    results.update(_fingerprint_bench(setup, scans, repeats))
    results.update(_map_constraint_bench(setup, walk, seed, repeats))
    results.update(_bma_readout_bench(setup, walk, snapshots, seed, repeats))
    results.update(_place_query_benches(setup, walk, repeats))
    results.update(_radio_moment_bench(setup, walk, repeats))
    results.update(_nearest_fingerprint_bench(setup, walk, snapshots, seed, repeats))
    if include_walk_step:
        models = cache.error_models(seed)
        framework = build_framework(setup, models, walk.moments[0].position)
        results.update(
            _walk_step_bench(setup, snapshots, framework, max(repeats // 4, 3))
        )
    return BenchReport(
        place=place_name, seed=seed, created_at=now_s(), results=results
    )
