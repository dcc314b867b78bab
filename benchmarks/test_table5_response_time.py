"""Table V — response-time decomposition for one location estimate.

Paper targets: total ~120 ms; transmissions ~73% of it; the parallel
scheme-compute term equals the slowest scheme (the fusion particle
filter); UniLoc itself adds only ~6.1 ms (error prediction + BMA).
The bench also measures this implementation's actual BMA and
error-prediction wall time to confirm they are the cheap part.
"""

import time

from conftest import fmt, print_table
from repro.energy import SCHEME_COMPUTE_MS, response_time
from repro.eval import build_framework
from repro.eval.experiments import place_setup, shared_models


def test_table5_response_time(benchmark):
    bt = response_time()
    print_table(
        "Table V: modeled response time per estimate (ms)",
        ["component", "ms"],
        [
            ["phone preprocess", fmt(bt.phone_ms, 1)],
            ["upload", fmt(bt.upload_ms, 1)],
            ["schemes (parallel max)", fmt(bt.scheme_compute_ms, 1)],
            ["error prediction", fmt(bt.error_prediction_ms, 1)],
            ["BMA", fmt(bt.bma_ms, 1)],
            ["download", fmt(bt.download_ms, 1)],
            ["TOTAL", fmt(bt.total_ms, 1)],
        ],
    )
    assert 100.0 < bt.total_ms < 160.0
    assert 0.65 < bt.transmission_fraction < 0.80
    assert bt.scheme_compute_ms == SCHEME_COMPUTE_MS["fusion"]
    assert bt.uniloc_added_ms < 10.0

    # Measure the actual UniLoc additions in this implementation: one
    # error-prediction + confidence + BMA pass over a prepared snapshot.
    setup = place_setup("daily", 0)
    walk, snaps = setup.record_walk("path1", walk_seed=9, trace_seed=10)
    fw = build_framework(setup, shared_models(0), walk.moments[0].position)
    fw.step(snaps[0])
    snap = snaps[1]
    outputs, _, _, _ = fw._run_schemes(snap, indoor=True)
    loc = fw._predicted_location(outputs)

    def uniloc_additions():
        errors = fw._predict_errors(snap, outputs, loc, indoor=True)
        available = {k: v for k, v in errors.items() if outputs.get(k) is not None}
        from repro.core import adaptive_threshold, confidence, normalized_weights

        tau = adaptive_threshold(list(available.values()))
        confidences = {
            k: confidence(
                v, fw.bundles[k].error_models.for_context(True).residual_std, tau
            )
            for k, v in available.items()
        }
        weights = normalized_weights(confidences)
        return fw._bma_estimate(outputs, weights, confidences)

    measured = benchmark(uniloc_additions)
    # The Python implementation's own additions stay in the paper's
    # "lightweight" regime (well under the transmission budget).
    start = time.perf_counter()
    uniloc_additions()
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    print(f"measured UniLoc additions: {elapsed_ms:.2f} ms (model: 6.1 ms)")
    assert elapsed_ms < 88.0  # cheaper than the transmission budget
