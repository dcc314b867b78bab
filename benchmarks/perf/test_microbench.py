"""Microbenchmarks: the rewritten hot paths must actually be fast.

Unlike the paper-shape benchmarks one directory up, these assert the
*speed* claims the radio stack was rewritten for: dense fingerprint
matching (``FingerprintDatabase.nearest``) at >= 5x the per-entry union
loop on identical inputs (the pre-rewrite baselines live in
:mod:`repro.bench.baselines`).  The compiled particle map constraint
must keep >= 2x over the full per-primitive test on the clouds of
office's first 60 survey steps, and the BMA readout (mixture plus
Eq. 4 mean) >= 1.2x over its ``(I, 2)`` reference on office's 448-cell
grid.  The sensor trace's queries, over office's first 120 survey
moments, must keep >= 2x over the full region loop (the box-culled
``Place.environment_at``), >= 12x over one single-ray call per AP and
moment (one paired ``FloorPlan.walls_crossed`` call over every pair)
and >= 3.5x over one call per AP and tower plus a fresh satellite
solve per moment (the radio pass: ``wifi_means`` and ``cell_means``
over all 120 moments, and ``sky_geometry``).  The
fusion scheme's box-culled nearest-fingerprint lookup must keep >= 1.1x
over one SciPy ``cKDTree`` query on the clouds of office's first 60
survey steps.
``repro bench run`` records the same numbers into a versioned
``BENCH_<date>.json`` for CI comparison.  Each bench times its two
variants interleaved, so host drift lands on both alike.

The floors are deliberately below the observed speedups (mean +- std
over ten runs on a 2-vCPU dev host: 7.1 +- 0.7x, 3.3 +- 0.1x,
1.48 +- 0.04x, 2.86 +- 0.10x and 1.42 +- 0.10x; over twelve runs
40.7 +- 4.8x for ``wall_count`` and 7.2 +- 0.4x for ``radio_moment``,
which read 6.9x and 1.97x with one batched call per moment) so they
fail on a real regression — a database silently falling back to a
Python loop, a cull that keeps every primitive, a readout back on
``(I, 2)`` temporaries, a lookup testing every region, a count back
to one call per moment, a radio pass back to one query per moment, a
nearest-fingerprint lookup slower than the tree it replaced — not on
scheduler noise.
"""

import pytest

from repro.bench import run_benches

#: Acceptance floors, in multiples of the scalar baseline.
MIN_NEAREST_SPEEDUP = 5.0
MIN_MAP_CONSTRAINT_SPEEDUP = 2.0
MIN_BMA_READOUT_SPEEDUP = 1.2
MIN_ENVIRONMENT_AT_SPEEDUP = 2.0
MIN_WALL_COUNT_SPEEDUP = 12.0
MIN_RADIO_MOMENT_SPEEDUP = 3.5
MIN_NEAREST_FINGERPRINT_SPEEDUP = 1.1


@pytest.fixture(scope="module")
def bench_report():
    """One bench run shared by every assertion in this module."""
    return run_benches("office", seed=0, repeats=10, include_walk_step=False)


def test_all_benches_ran(bench_report):
    for bench in (
        "fingerprint_nearest",
        "map_constraint",
        "bma_readout",
        "environment_at",
        "wall_count",
        "radio_moment",
        "nearest_fingerprint",
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


def test_map_constraint_cull_speedup(bench_report):
    speedup = bench_report.speedups()["map_constraint"]
    print(f"map constraint: {speedup:.1f}x over the full per-primitive test")
    assert speedup >= MIN_MAP_CONSTRAINT_SPEEDUP


def test_bma_readout_speedup(bench_report):
    speedup = bench_report.speedups()["bma_readout"]
    print(f"BMA readout: {speedup:.1f}x over the (I, 2) reference")
    assert speedup >= MIN_BMA_READOUT_SPEEDUP


def test_environment_at_cull_speedup(bench_report):
    speedup = bench_report.speedups()["environment_at"]
    print(f"environment_at: {speedup:.1f}x over the full region loop")
    assert speedup >= MIN_ENVIRONMENT_AT_SPEEDUP


def test_wall_count_batch_speedup(bench_report):
    speedup = bench_report.speedups()["wall_count"]
    print(f"wall_count: {speedup:.1f}x over one single-ray call per AP and moment")
    assert speedup >= MIN_WALL_COUNT_SPEEDUP


def test_radio_moment_batch_speedup(bench_report):
    speedup = bench_report.speedups()["radio_moment"]
    print(f"radio_moment: {speedup:.1f}x over one call per moment and transmitter")
    assert speedup >= MIN_RADIO_MOMENT_SPEEDUP


def test_nearest_fingerprint_speedup(bench_report):
    speedup = bench_report.speedups()["nearest_fingerprint"]
    print(f"nearest_fingerprint: {speedup:.2f}x over one cKDTree query")
    assert speedup >= MIN_NEAREST_FINGERPRINT_SPEEDUP


def test_report_roundtrips_through_disk(bench_report, tmp_path):
    from repro.bench import load_report

    path = tmp_path / "BENCH_test.json"
    bench_report.save(path)
    loaded = load_report(path)
    assert loaded.place == bench_report.place
    assert loaded.results == bench_report.results
