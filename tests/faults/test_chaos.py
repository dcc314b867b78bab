"""The chaos suite: paper-shape targets must survive single-scheme outages.

This is the acceptance gate of the fault-injection work: with any single
scheme forced into 100% failure on the daily Path 1, the framework must
complete the walk without exception, quarantine the faulty scheme
(visibly in metrics), and keep UniLoc2's mean error below the best
surviving single scheme.
"""

import math

import pytest

from repro.eval.setup import SCHEME_NAMES
from repro.obs import MetricsRegistry


@pytest.fixture(scope="module")
def chaos(office_system):
    """Run the full outage matrix once; every test asserts on it.

    ``office_system`` is requested only to reuse the already-trained
    error models (``shared_models`` is process-cached); the matrix
    itself runs the paper's daily Path 1.
    """
    from repro.faults.chaos import chaos_matrix
    from repro.fleet import ArtifactCache, default_cache, set_default_cache

    cache = ArtifactCache()
    cache.put_error_models(office_system["models"], 0)
    previous = default_cache()
    set_default_cache(cache)
    metrics = MetricsRegistry()
    try:
        rows = chaos_matrix(seed=0, metrics=metrics)
    finally:
        set_default_cache(previous)
    return rows, metrics


def test_matrix_covers_baseline_and_every_scheme(chaos):
    rows, _ = chaos
    assert list(rows) == ["none", *SCHEME_NAMES]


def test_every_outage_walk_completes(chaos):
    rows, _ = chaos
    for name, row in rows.items():
        assert row.survived, f"walk under {name} outage did not survive"
        assert row.n_steps > 0
        assert row.n_estimated == row.n_steps


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_uniloc2_beats_best_surviving_scheme(chaos, scheme):
    rows, _ = chaos
    row = rows[scheme]
    assert row.best_surviving and row.best_surviving != scheme
    assert row.uniloc2_mean < row.best_surviving_mean, (
        f"{scheme} outage: uniloc2 {row.uniloc2_mean:.2f} m not below "
        f"best surviving {row.best_surviving} {row.best_surviving_mean:.2f} m"
    )


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_faulty_scheme_is_quarantined_visibly(chaos, scheme):
    rows, metrics = chaos
    row = rows[scheme]
    assert row.n_failures >= 3  # at least one full failure streak
    assert row.quarantine_entries >= 1
    assert row.n_quarantined_steps > row.n_steps // 2
    assert metrics.counter(f"uniloc.quarantine.entered.{scheme}").value >= 1
    assert metrics.counter(f"uniloc.faults.{scheme}.exception").value >= 3


def test_baseline_row_is_clean(chaos):
    rows, _ = chaos
    baseline = rows["none"]
    assert baseline.n_failures == 0
    assert baseline.quarantine_entries == 0
    assert baseline.n_quarantined_steps == 0
    assert math.isfinite(baseline.uniloc2_mean)


def test_degradation_costs_accuracy_but_not_much(chaos):
    rows, _ = chaos
    baseline = rows["none"].uniloc2_mean
    for scheme in SCHEME_NAMES:
        degraded = rows[scheme].uniloc2_mean
        assert degraded >= baseline - 0.25  # losing a scheme should not help
        assert degraded < 2.0 * baseline  # ...and must not blow up


def test_describe_renders_the_verdict(chaos):
    rows, _ = chaos
    line = rows["wifi"].describe()
    assert "uniloc2" in line and "beats" in line and "quarantine" in line




def test_hang_matrix_is_refused():
    """``hang`` is not a fault kind: the matrix refuses it before a walk runs."""
    from repro.faults.chaos import chaos_matrix

    with pytest.raises(ValueError, match="unknown scheme fault kind 'hang'"):
        chaos_matrix(kind="hang")
