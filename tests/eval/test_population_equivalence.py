"""Acceptance: stepping walkers together changes nothing about walk results.

The contract for ``repro.core.population`` is *behavioural identity* at
the byte level:

* a walker stepped on its own (:meth:`~repro.core.UniLocFramework.step`,
  the one step path every population lane also takes) still produces
  the exact :class:`WalkResult` pickles pinned in
  ``tests/data/walk_goldens.json`` (regenerated only via
  ``tools/make_walk_goldens.py``), replayed through ``run_walks``;
* a multi-lane :class:`~repro.core.population.PopulationFramework`
  matches the same walkers stepped alone, decision-by-decision —
  property-tested over random seeds;
* an unwrapped scheme that raises inside a population is contained,
  charged, and quarantined like any other scheme failure.
"""

import json
import pickle
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import QUARANTINE_THRESHOLD
from repro.core.population import PopulationFramework
from repro.eval import build_framework
from repro.eval.experiments import shared_models
from repro.fleet import ArtifactCache, run_walks
from repro.sensors.imu import StepEvent

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "walk_goldens.json"


def _goldens():
    import sys

    tools = str(Path(__file__).resolve().parents[2] / "tools")
    if tools not in sys.path:
        sys.path.insert(0, tools)
    from make_walk_goldens import golden_jobs, result_hash

    return golden_jobs, result_hash


@pytest.fixture(scope="module")
def warm_cache():
    cache = ArtifactCache()
    cache.put_error_models(shared_models(0), 0)
    cache.place_setup("office", 3)
    cache.place_setup("open-space", 3)
    return cache


@pytest.mark.slow
class TestGoldenScalarHashes:
    """The scalar pipeline still produces the pre-redesign bytes."""

    @pytest.mark.parametrize(
        "name",
        ["office-clean", "open-space-clean", "office-faulted", "open-space-faulted"],
    )
    def test_walk_pickle_matches_golden(self, name, warm_cache):
        golden_jobs, result_hash = _goldens()
        expected = json.loads(GOLDEN_PATH.read_text())["hashes"]
        job = golden_jobs()[name]
        (result,) = run_walks([job], cache=warm_cache)
        assert len(result.records) == expected[name]["steps"]
        assert result_hash(result) == expected[name]["sha256"]


def _lane(setup, models, walk_seed):
    """One framework plus its walk's snapshots."""
    walk, snaps = setup.record_walk(
        "survey", walk_seed=walk_seed, trace_seed=walk_seed + 1, max_length=14.0
    )
    framework = build_framework(
        setup, models, walk.moments[0].position, scheme_seed=walk_seed + 11
    )
    framework.reset()
    return framework, snaps


def test_population_framework_matches_scalar_lanes(warm_cache):
    """N-lane step_batch == the same N frameworks each stepped alone."""
    setup = warm_cache.place_setup("office", 3)
    models = warm_cache.error_models(0)
    seeds = [300, 301, 302, 303]
    scalar = [_lane(setup, models, s) for s in seeds]
    lanes = [_lane(setup, models, s) for s in seeds]
    population = PopulationFramework([fw for fw, _ in lanes])
    n_steps = min(len(snaps) for _, snaps in scalar)
    for step in range(n_steps):
        want = [fw.step(snaps[step]) for fw, snaps in scalar]
        got = population.step_batch([snaps[step] for _, snaps in lanes])
        for lane_idx, (a, b) in enumerate(zip(want, got)):
            assert pickle.dumps(a, protocol=5) == pickle.dumps(b, protocol=5), (
                f"lane {lane_idx} diverged at step {step}"
            )


@pytest.mark.slow
@settings(max_examples=6, deadline=None)
@given(
    walk_seed=st.integers(min_value=0, max_value=2**16),
    place=st.sampled_from(["office", "open-space"]),
)
def test_population_lanes_match_solo_walkers(walk_seed, place):
    """Property: sharing a population never changes a decision's bytes."""
    cache = _property_cache()
    setup = cache.place_setup(place, 3)
    models = cache.error_models(0)
    seeds = [walk_seed, walk_seed + 1]
    lanes = [_lane(setup, models, s) for s in seeds]
    solo = [_lane(setup, models, s) for s in seeds]
    population = PopulationFramework([fw for fw, _ in lanes])
    n_steps = min(len(snaps) for _, snaps in lanes)
    for step in range(n_steps):
        got = population.step_batch([snaps[step] for _, snaps in lanes])
        want = [fw.step(snaps[step]) for fw, snaps in solo]
        for a, b in zip(want, got):
            assert pickle.dumps(a, protocol=5) == pickle.dumps(b, protocol=5)


def _without_step_periods(snapshots):
    """Corrupt IMU traces: a step event without a period breaks PDR."""
    broken = (StepEvent(period_s=None, length_m=0.7),)
    return [snap.with_imu(replace(snap.imu, step_events=broken)) for snap in snapshots]


def _matcher_failure(*args, **kwargs):
    raise RuntimeError("fingerprint matcher failure")


@pytest.mark.parametrize("scheme", ["motion", "wifi"])
def test_raising_unwrapped_scheme_is_contained_in_population(warm_cache, scheme):
    """One lane's unwrapped scheme raises every step inside a 3-lane batch.

    The raise is charged to that lane and scheme as an ``exception``,
    quarantines it after ``QUARANTINE_THRESHOLD`` raises, and leaves the
    other lanes byte-identical to stepping them alone.
    """
    setup = warm_cache.place_setup("office", 3)
    models = warm_cache.error_models(0)
    seeds = [310, 311, 312]
    lanes = [_lane(setup, models, s) for s in seeds]
    solo = [_lane(setup, models, s) for s in seeds[1:]]
    faulty, faulty_snaps = lanes[0]
    if scheme == "motion":
        faulty_snaps = _without_step_periods(faulty_snaps)
    else:
        faulty.bundles["wifi"].scheme._candidate_entries = _matcher_failure
    population = PopulationFramework([fw for fw, _ in lanes])
    threshold = QUARANTINE_THRESHOLD
    n_steps = min(len(snaps) for _, snaps in lanes)
    assert n_steps > threshold
    for step in range(n_steps):
        got = population.step_batch(
            [faulty_snaps[step]] + [snaps[step] for _, snaps in lanes[1:]]
        )
        if step < threshold:
            assert got[0].failures[scheme] == "exception"
            assert faulty.health(scheme).quarantines == (step == threshold - 1)
        elif step == threshold:
            assert scheme in got[0].quarantined
        want = [fw.step(snaps[step]) for fw, snaps in solo]
        for lane_idx, (a, b) in enumerate(zip(want, got[1:]), start=1):
            assert pickle.dumps(a, protocol=5) == pickle.dumps(b, protocol=5), (
                f"healthy lane {lane_idx} diverged at step {step}"
            )


_PROPERTY_CACHE = None


def _property_cache():
    """Module-level warm cache for the hypothesis property.

    Hypothesis forbids function-scoped fixtures inside ``@given``, so the
    expensive setups are memoised here instead of through ``warm_cache``.
    """
    global _PROPERTY_CACHE
    if _PROPERTY_CACHE is None:
        _PROPERTY_CACHE = ArtifactCache()
        _PROPERTY_CACHE.put_error_models(shared_models(0), 0)
        _PROPERTY_CACHE.place_setup("office", 3)
        _PROPERTY_CACHE.place_setup("open-space", 3)
    return _PROPERTY_CACHE
