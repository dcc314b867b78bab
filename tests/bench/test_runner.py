"""Tests for the BENCH report format, timing helper, and comparison."""

import itertools
import json

import pytest

from repro.bench import (
    BENCH_FORMAT,
    BENCH_VERSION,
    BenchReport,
    Timing,
    compare_reports,
    default_bench_filename,
    load_report,
    time_callable,
    time_interleaved,
    ungated_benches,
)
from repro.formats import UnsupportedFormatError
from repro.obs import clock


def report(**speedup_shapes) -> BenchReport:
    """Build a report whose speedups equal the given per-bench ratios."""
    results = {}
    for bench, speedup in speedup_shapes.items():
        results[f"{bench}.scalar"] = Timing(
            p50_ms=float(speedup), p90_ms=float(speedup) * 1.2, n_iterations=5
        )
        results[f"{bench}.kernel"] = Timing(p50_ms=1.0, p90_ms=1.2, n_iterations=5)
    return BenchReport(place="office", seed=0, created_at=100.0, results=results)


class TestTimeCallable:
    def test_percentiles_from_scripted_clock(self):
        # Each call advances the monotonic clock 1 ms; the warmup call is
        # untimed, so every sample is exactly 1 ms.
        ticks = itertools.count(step=1e-3)
        with clock.override(monotonic=lambda: next(ticks)):
            timing = time_callable(lambda: None, repeats=8)
        assert timing.p50_ms == pytest.approx(1.0)
        assert timing.p90_ms == pytest.approx(1.0)
        assert timing.n_iterations == 8

    def test_rejects_nonpositive_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            time_callable(lambda: None, repeats=0)


class TestTimeInterleaved:
    def test_variants_alternate_and_keep_their_own_samples(self):
        # Each variant advances a fake clock by its own cost; rounds
        # alternate which variant goes first, after one warmup of each.
        now = [0.0]
        order = []

        def variant(name, cost_s):
            def run():
                order.append(name)
                now[0] += cost_s

            return run

        with clock.override(monotonic=lambda: now[0]):
            scalar, kernel = time_interleaved(
                [variant("s", 3e-3), variant("k", 1e-3)], repeats=4
            )
        assert order == ["s", "k", "s", "k", "k", "s", "s", "k", "k", "s"]
        assert scalar.p50_ms == pytest.approx(3.0)
        assert kernel.p50_ms == pytest.approx(1.0)
        assert scalar.n_iterations == kernel.n_iterations == 4

    def test_host_drift_cancels_in_the_ratio(self):
        # The host slows 10% after every timed call.  Timed in blocks,
        # the later variant would absorb the slowdown; interleaved,
        # both see it alike and the 2x ratio survives.
        now = [0.0]
        speed = [1.0]

        def variant(cost_s):
            def run():
                now[0] += cost_s * speed[0]
                speed[0] *= 1.1

            return run

        with clock.override(monotonic=lambda: now[0]):
            scalar, kernel = time_interleaved(
                [variant(2e-3), variant(1e-3)], repeats=10
            )
        assert scalar.p50_ms / kernel.p50_ms == pytest.approx(2.0, rel=0.15)

    def test_rejects_nonpositive_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            time_interleaved([lambda: None], repeats=0)


class TestReportFormat:
    def test_roundtrip_preserves_results(self, tmp_path):
        original = report(shadowing=12.0, fingerprint_nearest=6.0)
        path = tmp_path / "BENCH_x.json"
        original.save(path)
        loaded = load_report(path)
        assert loaded.place == original.place
        assert loaded.seed == original.seed
        assert loaded.created_at == original.created_at
        assert loaded.results == original.results

    def test_payload_carries_versioned_header_and_speedups(self):
        payload = report(shadowing=12.0).to_payload()
        assert payload["format"] == BENCH_FORMAT
        assert payload["version"] == BENCH_VERSION
        assert payload["created_by"].startswith("repro ")
        assert payload["speedups"] == {"shadowing": 12.0}

    def test_wrong_format_tag_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "trace", "version": 1}))
        with pytest.raises(UnsupportedFormatError):
            load_report(path)

    def test_newer_version_rejected(self, tmp_path):
        payload = report(shadowing=2.0).to_payload()
        payload["version"] = BENCH_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(UnsupportedFormatError):
            load_report(path)

    def test_default_filename_is_dated(self):
        # 2026-08-05T00:00:00Z epoch seconds.
        assert default_bench_filename(1785888000.0) == "BENCH_2026-08-05.json"

    def test_walk_step_variant_has_no_speedup_entry(self):
        r = report(shadowing=4.0)
        r.results["walk_step.uniloc"] = Timing(5.0, 6.0, 3)
        assert set(r.speedups()) == {"shadowing"}


class TestCompare:
    def test_no_regression_within_threshold(self):
        base = report(shadowing=10.0, fingerprint_nearest=6.0)
        cur = report(shadowing=8.0, fingerprint_nearest=6.0)
        assert compare_reports(base, cur, threshold=0.25) == []

    def test_regression_past_threshold_is_reported(self):
        base = report(shadowing=10.0, fingerprint_nearest=6.0)
        cur = report(shadowing=7.0, fingerprint_nearest=6.0)
        regressions = compare_reports(base, cur, threshold=0.25)
        assert len(regressions) == 1
        assert "shadowing" in regressions[0]

    def test_improvement_is_never_a_regression(self):
        base = report(shadowing=10.0)
        cur = report(shadowing=40.0)
        assert compare_reports(base, cur, threshold=0.0) == []

    def test_benches_missing_from_either_side_are_ignored(self):
        base = report(shadowing=10.0, scan_generation=5.0)
        cur = report(shadowing=10.0, fingerprint_nearest=6.0)
        assert compare_reports(base, cur) == []

    def test_p50_metric_compares_raw_timings(self):
        base = report(shadowing=10.0)
        cur = report(shadowing=10.0)
        cur.results["shadowing.kernel"] = Timing(p50_ms=2.0, p90_ms=2.4, n_iterations=5)
        regressions = compare_reports(base, cur, threshold=0.25, metric="p50")
        assert len(regressions) == 1
        assert "shadowing.kernel" in regressions[0]

    def test_benches_the_baseline_lacks_are_named_ungated(self):
        base = report(shadowing=10.0, scan_generation=5.0)
        cur = report(shadowing=10.0, map_constraint=2.0, bma_readout=1.5)
        cur.results["walk_step.uniloc"] = Timing(5.0, 6.0, 3)
        assert ungated_benches(base, cur) == ["bma_readout", "map_constraint"]
        assert ungated_benches(base, cur, metric="p50") == [
            "bma_readout.kernel",
            "bma_readout.scalar",
            "map_constraint.kernel",
            "map_constraint.scalar",
            "walk_step.uniloc",
        ]
        assert ungated_benches(cur, cur) == []
        with pytest.raises(ValueError, match="metric"):
            ungated_benches(base, cur, metric="mean")

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            compare_reports(report(a=1.0), report(a=1.0), metric="mean")

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_reports(report(a=1.0), report(a=1.0), threshold=-0.1)
