"""One implementation per paper table / figure (the per-experiment index).

Every benchmark in ``benchmarks/`` and several examples drive these
functions.  The expensive offline artifacts (surveys, trained error
models) come from the :mod:`repro.fleet` artifact cache, and every
multi-walk figure executes through :func:`repro.fleet.run_walks`, so a
full suite trains once, surveys each place once, and can fan walks out
over worker processes.

===========  =====================================================
fig2         :func:`_impl_fig2_motivation` — scheme errors along Path 1
table1       :func:`_impl_table1_influence_factors`
table2       :func:`_impl_table2_error_models`
table3       :func:`_impl_table3_prediction_rmse`
fig3         :func:`_impl_fig3_daily_path` (:func:`daily_path_result`)
fig5/6       :func:`daily_path_pooled` (pools more walks onto fig3's)
fig7         :func:`_impl_fig7_eight_paths`
fig8a-c      :func:`_impl_fig8_environment` ("mall", "urban-open-space",
             "office")
fig8d        :func:`_impl_fig8d_heterogeneity`
table4       :func:`_impl_table4_energy`
table5       :func:`_impl_table5_response_time`
===========  =====================================================

Each is called as ``run(seed, workers)``: jobs derive their seeds from
the master ``seed`` by :meth:`~repro.fleet.WalkJob.for_seed`, and
single-walk experiments ignore ``workers``.  The ``lru_cache`` memos
hold results only; artifacts come from the current ``default_cache()``.

The implementations are intentionally private: all dispatch goes
through :mod:`repro.eval.registry` (``run_experiment("fig7",
workers=4)``) or the CLI (``repro run fig7 --workers 4``).  The old
public ``fig*`` / ``table*`` free-function wrappers (deprecated since
the registry landed) have been removed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.core import ErrorModelSet, RegressionSummary
from repro.energy import (
    EnergyReport,
    ResponseTimeBreakdown,
    energy_table,
    response_time,
)
from repro.eval.metrics import normalized_rmse
from repro.eval.runner import WalkResult, merge_results, run_walk
from repro.eval.setup import (
    SCHEME_NAMES,
    PlaceSetup,
    build_framework,
)
from repro.fleet import WalkJob, default_cache, protocol_setup_seed, run_walks
from repro.sensors import LG_G3, NEXUS_5X, DeviceProfile, OffsetCalibrator
from repro.sensors.snapshot import SensorSnapshot
from repro.world import EnvironmentType

#: Master seed for the shared experiment fixtures.
DEFAULT_SEED = 0


def shared_models(seed: int = DEFAULT_SEED) -> dict[str, ErrorModelSet]:
    """Return the error models trained once per the paper's protocol.

    Backed by the current fleet artifact cache: with ``REPRO_CACHE_DIR``
    set the training happens at most once per machine, not per process.
    """
    return default_cache().error_models(seed)


def place_setup(place_name: str, seed: int = DEFAULT_SEED) -> PlaceSetup:
    """Return the protocol's deployed+surveyed setup for a built-in place.

    Raises:
        ValueError: on an unknown place name.
    """
    return default_cache().place_setup(place_name, protocol_setup_seed(seed))


# ---------------------------------------------------------------------------
# Figure 2 — motivation: individual scheme errors along the daily path.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig2Row:
    """One location of the Fig. 2 error-vs-distance series."""

    arc_length: float
    environment: EnvironmentType
    errors: dict[str, float]


def _impl_fig2_motivation(seed: int = DEFAULT_SEED, workers: int = 1) -> list[Fig2Row]:
    setup = place_setup("daily", seed)
    walk, snaps = setup.record_walk("path1", walk_seed=seed, trace_seed=seed + 1)
    schemes = setup.make_schemes(walk.moments[0].position, scheme_seed=seed + 2)
    rows = []
    for moment, snapshot in zip(walk.moments, snaps):
        errors = {}
        for name, scheme in schemes.items():
            output = scheme.estimate(snapshot)
            if output is not None:
                errors[name] = output.position.distance_to(moment.position)
        rows.append(
            Fig2Row(
                arc_length=moment.arc_length,
                environment=setup.place.environment_at(moment.position),
                errors=errors,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Table I — influence factors per scheme.
# ---------------------------------------------------------------------------


def _impl_table1_influence_factors(
    seed: int = DEFAULT_SEED, workers: int = 1
) -> dict[str, dict[str, tuple[str, ...]]]:
    setup = place_setup("daily", seed)
    extractors = setup.make_extractors()
    return {
        name: {
            "indoor": extractor.feature_names(True),
            "outdoor": extractor.feature_names(False),
        }
        for name, extractor in extractors.items()
    }


# ---------------------------------------------------------------------------
# Table II — error-model coefficients and diagnostics.
# ---------------------------------------------------------------------------


def _impl_table2_error_models(
    seed: int = DEFAULT_SEED, workers: int = 1
) -> dict[str, dict[str, RegressionSummary]]:
    models = shared_models(seed)
    table: dict[str, dict[str, RegressionSummary]] = {}
    for name, model_set in models.items():
        table[name] = {}
        for label, model in (("indoor", model_set.indoor), ("outdoor", model_set.outdoor)):
            if model.is_fitted:
                table[name][label] = model.summary
    return table


# ---------------------------------------------------------------------------
# Table III — normalized RMSE of online error prediction.
# ---------------------------------------------------------------------------


def _prediction_rmse(results: list[WalkResult]) -> dict[str, float]:
    """Compute per-scheme normalized RMSE from UniLoc step records."""
    per_scheme: dict[str, tuple[list[float], list[float]]] = {
        name: ([], []) for name in SCHEME_NAMES
    }
    for result in results:
        for record in result.records:
            for name in SCHEME_NAMES:
                predicted = record.decision.predicted_errors.get(name)
                actual = record.scheme_errors.get(name)
                if predicted is not None and actual is not None:
                    per_scheme[name][0].append(predicted)
                    per_scheme[name][1].append(actual)
    rmse = {}
    for name, (predicted, actual) in per_scheme.items():
        if len(actual) >= 10 and sum(actual) > 0:
            rmse[name] = normalized_rmse(predicted, actual)
    return rmse


#: The four Table III conditions: {same, new} place x {same, diff} device.
_TABLE3_CONDITIONS: dict[str, tuple[list[str], DeviceProfile]] = {
    "same_place_same_device": (["office", "open-space"], NEXUS_5X),
    "same_place_diff_device": (["office", "open-space"], LG_G3),
    "new_place_same_device": (["office-2", "urban-open-space"], NEXUS_5X),
    "new_place_diff_device": (["office-2", "urban-open-space"], LG_G3),
}


def _impl_table3_prediction_rmse(
    seed: int = DEFAULT_SEED, workers: int = 1
) -> dict[str, dict[str, float]]:
    jobs = []
    slots: list[str] = []
    for label, (places, device) in _TABLE3_CONDITIONS.items():
        for idx, place_name in enumerate(places):
            jobs.append(
                WalkJob.for_seed(
                    place_name,
                    "survey",
                    seed,
                    walk_seed=seed + 900 + idx,
                    trace_seed=seed + 950 + idx,
                    device=device,
                )
            )
            slots.append(label)
    results = run_walks(jobs, workers=workers)
    table: dict[str, dict[str, float]] = {}
    for label in _TABLE3_CONDITIONS:
        grouped = [r for slot, r in zip(slots, results) if slot == label]
        table[label] = _prediction_rmse(grouped)
    return table


# ---------------------------------------------------------------------------
# Figures 3, 5, 6 — the daily path under UniLoc.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def daily_path_result(seed: int = DEFAULT_SEED) -> WalkResult:
    """Run UniLoc over Path 1 once (serves Figs. 3, 5, 6 and Table IV)."""
    return run_walks([WalkJob.for_seed("daily", "path1", seed)])[0]


def _impl_fig3_daily_path(seed: int = DEFAULT_SEED, workers: int = 1) -> WalkResult:
    # One walk, so ``workers`` has nothing to fan out; the memo above is
    # keyed by seed alone so Figs. 5/6 and Table IV reuse this walk.
    return daily_path_result(seed)


@functools.lru_cache(maxsize=4)
def daily_path_pooled(
    seed: int = DEFAULT_SEED, workers: int = 1, n_walks: int = 3
) -> WalkResult:
    """Pool several Path 1 walks (serves Figs. 5 and 6).

    The paper's Fig. 6 averages repeated walks of the same path; pooling
    several sessions (different subjects' step-model biases) removes the
    single-session luck in the per-scheme means.
    """
    jobs = [
        WalkJob.for_seed(
            "daily",
            "path1",
            seed,
            walk_seed=seed + idx,
            trace_seed=seed + 1 + 7 * idx,
        )
        for idx in range(1, n_walks)
    ]
    results = [daily_path_result(seed)] + run_walks(jobs, workers=workers)
    return merge_results(results)


# ---------------------------------------------------------------------------
# Figure 7 — the eight daily paths.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=2)
def _impl_fig7_eight_paths(
    seed: int = DEFAULT_SEED, workers: int = 1
) -> WalkResult:
    setup = place_setup("campus", seed)
    jobs = [
        WalkJob.for_seed(
            "campus",
            path_name,
            seed,
            walk_seed=seed + idx,
            trace_seed=seed + 40 + idx,
            grid_cell_m=4.0,
        )
        for idx, path_name in enumerate(sorted(setup.place.paths))
    ]
    return merge_results(run_walks(jobs, workers=workers))


# ---------------------------------------------------------------------------
# Figure 8a-c — different environments (new places).
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _impl_fig8_environment(
    place_name: str, seed: int = DEFAULT_SEED, workers: int = 1
) -> WalkResult:
    setup = place_setup(place_name, seed)
    path = setup.place.paths["survey"]
    window = min(100.0, path.length() * 0.6)
    usable = max(path.length() - window - 1.0, 1.0)
    jobs = [
        WalkJob.for_seed(
            place_name,
            "survey",
            seed,
            walk_seed=seed + 60 + idx,
            trace_seed=seed + 80 + idx,
            start_arc=usable * idx / 10.0,
            max_length=window,
            start_noise_m=3.0,
        )
        for idx in range(10)
    ]
    return merge_results(run_walks(jobs, workers=workers))


# ---------------------------------------------------------------------------
# Figure 8d — heterogeneous devices with/without offset calibration.
# ---------------------------------------------------------------------------


def _calibrate_scans(
    snapshots: list[SensorSnapshot], calibrator: OffsetCalibrator
) -> list[SensorSnapshot]:
    """Return snapshots with RSSI scans mapped to reference-device units."""
    from dataclasses import replace

    return [
        replace(
            snap,
            wifi_scan=calibrator.correct(snap.wifi_scan),
            cell_scan=calibrator.correct(snap.cell_scan),
        )
        for snap in snapshots
    ]


def _train_calibrator(setup: PlaceSetup, seed: int) -> OffsetCalibrator:
    """Learn the LG G3 -> Nexus 5X RSSI offset from paired readings.

    Both devices record the same short walk (same radio draws), and each
    commonly-audible AP at each step yields one training pair — the
    online-calibration procedure of §III-B.
    """
    walk, snaps_b = setup.record_walk(
        "survey", device=LG_G3, walk_seed=seed + 500, trace_seed=seed + 501,
        max_length=40.0,
    )
    _, snaps_ref = setup.record_walk(
        "survey", device=NEXUS_5X, walk_seed=seed + 500, trace_seed=seed + 501,
        max_length=40.0,
    )
    calibrator = OffsetCalibrator()
    for snap_b, snap_ref in zip(snaps_b, snaps_ref):
        for key in set(snap_b.wifi_scan) & set(snap_ref.wifi_scan):
            calibrator.observe(snap_b.wifi_scan[key], snap_ref.wifi_scan[key])
    return calibrator


@functools.lru_cache(maxsize=2)
def _impl_fig8d_heterogeneity(
    seed: int = DEFAULT_SEED, workers: int = 1
) -> dict[str, WalkResult]:
    setup = place_setup("office", seed)
    models = shared_models(seed)
    walk, snaps = setup.record_walk(
        "survey", device=LG_G3, walk_seed=seed + 700, trace_seed=seed + 701
    )
    calibrator = _train_calibrator(setup, seed)

    results = {}
    for label, snapshots in (
        ("without_calibration", snaps),
        ("with_calibration", _calibrate_scans(snaps, calibrator)),
    ):
        framework = build_framework(
            setup, models, walk.moments[0].position, scheme_seed=seed + 13
        )
        results[label] = run_walk(framework, setup.place, "survey", walk, snapshots)
    return results


# ---------------------------------------------------------------------------
# Table IV — energy; Table V — response time.
# ---------------------------------------------------------------------------


def _impl_table4_energy(
    seed: int = DEFAULT_SEED, workers: int = 1
) -> list[EnergyReport]:
    return energy_table(daily_path_result(seed))


def _impl_table5_response_time(
    seed: int = DEFAULT_SEED, workers: int = 1
) -> ResponseTimeBreakdown:
    # Modeled constants: neither the seed nor the workers change them.
    return response_time()
