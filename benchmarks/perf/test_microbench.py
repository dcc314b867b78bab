"""Microbenchmarks: the kernel layer must actually be fast.

Unlike the paper-shape benchmarks one directory up, these assert the
*speed* claims the kernel layer (:mod:`repro.radio.kernels`) was built
on: batched shadowing evaluation at >= 10x the per-point reference and
compiled fingerprint matching at >= 5x the per-entry union loop, on
identical inputs (the pre-kernel baselines live in
:mod:`repro.bench.baselines`).  The particle map constraint's
bounding-box cull must keep >= 1.5x over the full per-primitive test.
``repro bench run`` records the same numbers into a versioned
``BENCH_<date>.json`` for CI comparison.

The floors are deliberately below the observed speedups (~7x, >100x
and ~1.7-2.4x on a 2-vCPU dev host) so they fail on a real regression
— a kernel silently falling back to a Python loop, a cull that keeps
every primitive — not on scheduler noise.
"""

import pytest

from repro.bench import run_benches

#: Acceptance floors, in multiples of the scalar baseline.
MIN_NEAREST_SPEEDUP = 5.0
MIN_SHADOWING_SPEEDUP = 10.0
MIN_MAP_CONSTRAINT_SPEEDUP = 1.5


@pytest.fixture(scope="module")
def bench_report():
    """One bench run shared by every assertion in this module."""
    return run_benches("office", seed=0, repeats=10, include_walk_step=False)


def test_all_benches_ran(bench_report):
    for bench in (
        "shadowing",
        "fingerprint_nearest",
        "scan_generation",
        "map_constraint",
    ):
        assert f"{bench}.scalar" in bench_report.results
        assert f"{bench}.kernel" in bench_report.results
        for variant in ("scalar", "kernel"):
            timing = bench_report.results[f"{bench}.{variant}"]
            assert timing.p50_ms > 0.0
            assert timing.p90_ms >= timing.p50_ms


def test_fingerprint_nearest_speedup(bench_report):
    speedup = bench_report.speedups()["fingerprint_nearest"]
    print(f"fingerprint nearest: {speedup:.1f}x over the per-entry loop")
    assert speedup >= MIN_NEAREST_SPEEDUP


def test_batched_shadowing_speedup(bench_report):
    speedup = bench_report.speedups()["shadowing"]
    print(f"batched shadowing: {speedup:.1f}x over the per-point reference")
    assert speedup >= MIN_SHADOWING_SPEEDUP


def test_scan_generation_is_faster_batched(bench_report):
    """The batched mean-RSSI path must at least beat the scalar loop."""
    assert bench_report.speedups()["scan_generation"] > 1.0


def test_map_constraint_cull_speedup(bench_report):
    speedup = bench_report.speedups()["map_constraint"]
    print(f"map constraint: {speedup:.1f}x over the full per-primitive test")
    assert speedup >= MIN_MAP_CONSTRAINT_SPEEDUP


def test_report_roundtrips_through_disk(bench_report, tmp_path):
    from repro.bench import load_report

    path = tmp_path / "BENCH_test.json"
    bench_report.save(path)
    loaded = load_report(path)
    assert loaded.place == bench_report.place
    assert loaded.results == bench_report.results
