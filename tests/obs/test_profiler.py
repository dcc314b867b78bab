"""Tests for the sampling profiler (scripted-tick determinism)."""

import gc

import pytest

from repro.obs.profiler import SamplingProfiler, profile_callable
from repro.obs.profiler import frame_label


def _ramp(step_s):
    """Return a tick source advancing ``step_s`` per read."""
    state = {"now": 0.0}

    def tick():
        state["now"] += step_s
        return state["now"]

    return tick


def _leaf(n):
    return sum(range(n))


def _middle(n):
    return _leaf(n) + _leaf(n)


def _work():
    total = 0
    for _ in range(50):
        total += _middle(10)
    return total


def _profile_work_without_gc():
    """Profile ``_work`` with the collector paused.

    A collection that lands inside the profiled block runs every
    ``gc.callbacks`` hook (hypothesis installs one), which the profiler
    rightly records as call edges; when it lands depends on what ran
    before, not on ``_work``.
    """
    profiler = SamplingProfiler(interval_s=0.001, tick=_ramp(1.0))
    gc.disable()
    try:
        with profiler:
            _work()
    finally:
        gc.enable()
    return profiler


def test_scripted_tick_samples_every_call_edge():
    # Each tick read advances past the interval, so EVERY call edge
    # samples — the output is a pure function of the call sequence.
    profiler = _profile_work_without_gc()
    assert profiler.n_samples > 0
    collapsed = profiler.collapsed()
    assert collapsed.endswith("\n")
    # Deterministic: a second identical run collapses identically.
    assert _profile_work_without_gc().collapsed() == collapsed


def test_collapsed_stacks_are_root_first():
    profiler = SamplingProfiler(interval_s=0.001, tick=_ramp(1.0))
    with profiler:
        _work()
    stacks = [line.rsplit(" ", 1)[0] for line in profiler.collapsed().splitlines()]
    deepest = max(stacks, key=lambda s: s.count(";"))
    frames = deepest.split(";")
    # The leaf-most helper appears after its caller, never before.
    assert frames.index("test_profiler._middle") < frames.index("test_profiler._leaf")


def test_hot_functions_ranking_and_table():
    profiler = SamplingProfiler(interval_s=0.001, tick=_ramp(1.0))
    with profiler:
        _work()
    hot = profiler.hot_functions()
    names = [h.function for h in hot]
    assert "test_profiler._leaf" in names
    assert "test_profiler._work" in names
    # self <= total for every row; ranking is by self descending.
    for row in hot:
        assert row.self_samples <= row.total_samples
    selfs = [h.self_samples for h in hot]
    assert selfs == sorted(selfs, reverse=True)
    leaf = next(h for h in hot if h.function == "test_profiler._leaf")
    assert leaf.share(profiler.n_samples) == pytest.approx(
        leaf.self_samples / profiler.n_samples
    )
    table = profiler.render_table(top=5)
    assert "samples, interval 1 ms" in table
    assert "function" in table
    assert len(table.splitlines()) <= 3 + 5


def test_interval_gates_sampling():
    # A tick that advances 1s per read with a 10s interval samples
    # roughly one in ten call edges.
    dense = SamplingProfiler(interval_s=0.001, tick=_ramp(1.0))
    with dense:
        _work()
    sparse = SamplingProfiler(interval_s=10.0, tick=_ramp(1.0))
    with sparse:
        _work()
    assert 0 < sparse.n_samples < dense.n_samples


def test_max_depth_truncates_from_the_root_side():
    profiler = SamplingProfiler(interval_s=0.001, tick=_ramp(1.0), max_depth=2)
    with profiler:
        _work()
    for line in profiler.collapsed().splitlines():
        stack = line.rsplit(" ", 1)[0]
        assert stack.count(";") <= 1


def test_lifecycle_and_validation():
    with pytest.raises(ValueError, match="interval_s"):
        SamplingProfiler(interval_s=0.0)
    with pytest.raises(ValueError, match="max_depth"):
        SamplingProfiler(max_depth=0)
    profiler = SamplingProfiler(tick=_ramp(1.0))
    profiler.start()
    with pytest.raises(RuntimeError, match="already running"):
        profiler.start()
    profiler.stop()
    profiler.stop()  # idempotent


def test_profile_callable_returns_result_and_profiler():
    result, profiler = profile_callable(_work, interval_s=0.001, tick=_ramp(1.0))
    assert result == _work()
    assert profiler.n_samples > 0


def test_frame_label_uses_module_stem():
    class FakeCode:
        co_filename = "/some/where/module.py"
        co_name = "fn"

    assert frame_label(FakeCode()) == "module.fn"
