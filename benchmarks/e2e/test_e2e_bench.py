"""Tests of the end-to-end benchmark harness (``pytest benchmarks/e2e``).

The smoke runs use the real program on tiny workloads, so the first one
in a checkout builds the artifact cache (about 10 s).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibration
import compare
import run
from spans import Span, SpanRecorder, self_times_ns
from stats import per_op_min, percentile, supports_percentile

TINY = {"max_length": 6.0, "n_lanes": 2, "min_passes": 2}
#: Not in expected.json, so the smoke runs check replay determinism only.
SMOKE_SEED = 12345


def scripted_clock(*ticks: int):
    it = iter(ticks)
    return lambda: next(it)


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    # step [0, 100] with children [10, 30], [20, 50] (overlapping) and
    # [60, 70]; the first child has a grandchild [12, 18].
    rec = SpanRecorder(clock=scripted_clock(0, 10, 12, 18, 30, 20, 50, 60, 70, 100))
    rec.begin("step")
    rec.begin("a")
    rec.begin("a.inner")
    rec.end()
    rec.end()
    rec.begin("b")
    rec.end()
    rec.begin("c")
    rec.end()
    rec.end()
    times = self_times_ns(rec.spans)
    own = {s.name: times[s.span_id] for s in rec.spans}
    assert own == {"a.inner": 6, "a": 14, "b": 30, "c": 10, "step": 100 - 40 - 10}


def test_self_time_clips_children_to_parent():
    spans = [Span(1, None, "p", 0, 10, "r"), Span(2, 1, "c", 5, 15, "r")]
    assert self_times_ns(spans)[1] == 5


def test_span_request_ids():
    rec = SpanRecorder(clock=scripted_clock(0, 1))
    rec.prefix, rec.step = "indoor-walker:p0", 7
    rec.begin("x", lane=2)
    rec.end()
    assert rec.spans[0].request == "indoor-walker:p0:2:7"


# -- host normalization --------------------------------------------------------


def test_normalization_scales_by_reference_over_window_median():
    # Three units taking 0.1, 0.2 and 0.1 ms: the median is 0.1 ms, so
    # this host runs at half the reference speed.
    cal = calibration.Calibrator(0.05, clock=scripted_clock(0, 100_000, 0, 200_000, 0, 100_000))
    cal.run(3)
    assert cal.median_ms() == pytest.approx(0.1)
    assert cal.factor() == pytest.approx(0.5)


def test_local_factors_follow_a_slowdown():
    # 20 ops on a host at reference speed (1 ms units), then 20 ops at
    # half speed; each op is followed by a group of 3 units.
    durations = [1_000_000] * 60 + [2_000_000] * 60
    cal = calibration.Calibrator(1.0, clock=scripted_clock(*[t for d in durations for t in (0, d)]))
    for _ in range(40):
        cal.run(3)
    factors = cal.local_factors(radius=5)
    assert len(factors) == 40
    assert factors[0] == pytest.approx(1.0)
    assert factors[-1] == pytest.approx(0.5)
    assert cal.factor() == pytest.approx(1.0 / 1.5)


def test_calibration_unit_is_deterministic():
    assert calibration.calibration_unit() == calibration.calibration_unit()


# -- percentiles and tails -----------------------------------------------------


@pytest.mark.parametrize(
    "n, q, ok",
    [(1000, 99, True), (999, 99, False), (1233, 99, True), (100, 90, True), (99, 90, False)],
)
def test_ten_samples_beyond_rule(n, q, ok):
    assert supports_percentile(n, q) is ok


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile([5.0], 50) == 5.0


def test_tail_uses_per_step_minimum_across_passes():
    # Step 2 is slow in every pass; step 0 only once (host noise).
    passes = [[9.0, 1.0, 5.0], [1.0, 1.1, 5.2], [1.2, 0.9, 5.1]]
    assert per_op_min(passes) == [1.0, 0.9, 5.0]
    assert percentile(per_op_min(passes), 90) == 5.0
    with pytest.raises(ValueError):
        per_op_min([[1.0], [1.0, 2.0]])


# -- smoke runs ----------------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_prints_every_metric(workload, trace, capsys):
    code = run.run(workload, SMOKE_SEED, 0, trace, sizes=TINY)
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    declared = run.load_benchmark()["per_layer" if trace else "end_to_end"]
    lines = {line.split()[0]: line.split() for line in out[:-1] if not line.startswith("#")}
    for metric in declared:
        assert lines[metric["name"]][2] == metric["unit"], metric["name"]
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]


def test_digest_mismatch_exits_nonzero(tmp_path, monkeypatch, capsys):
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps({"digests": {"indoor-walker": {str(SMOKE_SEED): "0" * 64}}}))
    monkeypatch.setattr(run, "EXPECTED_PATH", expected)
    code = run.run("indoor-walker", SMOKE_SEED, 0, False, sizes=TINY)
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert json.loads(out[-1])["correct"] is False
    assert any("differs from expected.json" in line for line in out)


def test_fails_without_result_when_only_the_benchmark_is_present(tmp_path):
    """A tree holding just BENCHMARK.json and benchmarks/e2e has no program."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.BENCH_DIR,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "indoor-walker"]
        + ["--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- compare.py ----------------------------------------------------------------


PARENT = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


@pytest.mark.parametrize(
    "change, expected",
    [
        ([v * 0.8 for v in PARENT], "better"),
        ([v * 1.2 for v in PARENT], "worse"),
        (list(PARENT), "unchanged"),
        ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 9.95], "unchanged"),
        ([5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 10.0, 10.0], "unresolved"),
    ],
)
def test_compare_verdicts(change, expected):
    pairs = list(zip(PARENT, change))
    assert compare.verdict(PARENT, change, pairs, "lower", 0.1) == expected


def test_compare_higher_is_better():
    change = [v * 1.2 for v in PARENT]
    assert compare.verdict(PARENT, change, list(zip(PARENT, change)), "higher", 0.1) == "better"


def test_compare_gain_needs_nine_of_ten_pairs():
    # Median 3% better, but only 8 of 10 pairs won.
    change = [v * 0.97 for v in PARENT[:8]] + [v * 1.01 for v in PARENT[8:]]
    assert compare.verdict(PARENT, change, list(zip(PARENT, change)), "lower", 0.1) != "better"


def _write_side(directory: Path, rate: float, failed: int = 0) -> None:
    directory.mkdir()
    bench = run.load_benchmark()
    for seed in range(10):
        metrics = {
            m["name"]: {"value": 1.0 + 0.001 * seed, "unit": m["unit"]}
            for m in bench["end_to_end"]
        }
        metrics["walker_steps_per_s"]["value"] = rate + seed
        record = {
            "workload": "indoor-walker",
            "seed": seed,
            "trace": False,
            "attempted": 1000,
            "failed": failed,
            "metrics": metrics,
        }
        (directory / f"run-{seed}.json").write_text(json.dumps(record))


def test_compare_exit_codes(tmp_path, capsys):
    _write_side(tmp_path / "a", rate=300.0)
    _write_side(tmp_path / "same", rate=300.0)
    _write_side(tmp_path / "slow", rate=240.0)
    _write_side(tmp_path / "failing", rate=300.0, failed=1)
    assert compare.compare(tmp_path / "a", tmp_path / "same") == 0
    assert compare.compare(tmp_path / "a", tmp_path / "slow") == 1
    assert compare.compare(tmp_path / "a", tmp_path / "failing") == 1
    assert "walker_steps_per_s" in capsys.readouterr().out
