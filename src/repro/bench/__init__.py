"""Microbenchmarks: kernel hot paths timed against scalar baselines.

The radio, map-constraint, BMA, sensor-trace place-query and fusion
nearest-fingerprint hot paths were each rewritten for speed, and speed
claims rot silently.  This package keeps them honest:

* :mod:`repro.bench.baselines` — verbatim pre-rewrite scalar
  implementations of those hot paths (the golden references).
* :mod:`repro.bench.runner` — times kernels against those baselines on
  real place data and writes a schema-versioned ``BENCH_<date>.json``
  report; ``repro bench compare`` diffs two reports with a regression
  threshold.
* :mod:`repro.bench.trend` — per-benchmark speedup trajectories across
  a whole ``BENCH_*.json`` history; ``repro bench trend`` renders them
  and flags benchmarks that fell below their best-ever speedup.

Comparisons across machines use the *speedup* ratios (kernel vs scalar
on the same box), which are machine-independent; absolute ``p50``
timings are only comparable within one host.
"""

from repro.bench.runner import (
    BENCH_FORMAT,
    BENCH_VERSION,
    BenchReport,
    Timing,
    compare_reports,
    default_bench_filename,
    load_report,
    run_benches,
    time_callable,
    time_interleaved,
    ungated_benches,
)
from repro.bench.trend import (
    BenchTrend,
    TrendPoint,
    compute_trends,
    flag_regressions,
    load_history,
    render_csv,
    render_markdown,
)

__all__ = [
    "BENCH_FORMAT",
    "BENCH_VERSION",
    "BenchReport",
    "BenchTrend",
    "Timing",
    "TrendPoint",
    "compare_reports",
    "compute_trends",
    "default_bench_filename",
    "flag_regressions",
    "load_history",
    "load_report",
    "render_csv",
    "render_markdown",
    "run_benches",
    "time_callable",
    "time_interleaved",
    "ungated_benches",
]
