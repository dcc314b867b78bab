"""Regression tests: walk results must cross process boundaries intact.

The fleet executor ships :class:`WalkResult` objects (and everything
nested inside them) through pickle.  These tests pin the round-trip for
every layer — including the numpy-array and ``None`` fields that the
generated dataclass ``__eq__`` used to choke on.
"""

import pickle

import numpy as np
import pytest

from repro.core.framework import StepDecision
from repro.eval.runner import StepRecord, WalkResult
from repro.geometry import Point
from repro.schemes.base import SchemeOutput


def _scheme_output(with_arrays: bool) -> SchemeOutput:
    if not with_arrays:
        return SchemeOutput(position=Point(1.0, 2.0), spread=3.0)
    return SchemeOutput(
        position=Point(1.0, 2.0),
        spread=3.0,
        samples=np.arange(10.0).reshape(5, 2),
        sample_weights=np.full(5, 0.2),
        candidates=[(Point(0.0, 0.0), 0.7), (Point(2.0, 2.0), 0.3)],
        quality={"top1": 4.2},
    )


@pytest.mark.parametrize("with_arrays", [False, True])
def test_scheme_output_round_trips(with_arrays):
    output = _scheme_output(with_arrays)
    clone = pickle.loads(pickle.dumps(output))
    assert clone == output


def test_scheme_output_equality_handles_arrays_and_none():
    with_arrays = _scheme_output(True)
    without = _scheme_output(False)
    # These comparisons raised "truth value of an array is ambiguous"
    # under the generated dataclass __eq__.
    assert with_arrays == _scheme_output(True)
    assert with_arrays != without
    assert without == _scheme_output(False)
    assert with_arrays != "not an output"


def _decision() -> StepDecision:
    return StepDecision(
        outputs={"wifi": _scheme_output(True), "gps": None},
        predicted_errors={"wifi": 1.5},
        confidences={"wifi": 0.9},
        weights={"wifi": 1.0},
        tau=1.5,
        indoor=True,
        selected="wifi",
        uniloc1_position=Point(1.0, 2.0),
        uniloc2_position=Point(1.1, 2.1),
        gps_enabled=False,
    )


def test_step_decision_round_trips():
    decision = _decision()
    clone = pickle.loads(pickle.dumps(decision))
    assert clone.outputs == decision.outputs
    assert clone.outputs["gps"] is None
    assert clone.uniloc2_position == decision.uniloc2_position
    assert clone.predicted_errors == decision.predicted_errors


def test_real_walk_result_round_trips():
    """End to end: a genuine scored walk survives pickling unchanged."""
    from repro.eval.experiments import place_setup, shared_models
    from repro.eval.setup import build_framework
    from repro.eval.runner import run_walk

    setup = place_setup("office", 0)
    models = shared_models(0)
    walk, snaps = setup.record_walk(
        "survey", walk_seed=1, trace_seed=2, max_length=20.0
    )
    framework = build_framework(
        setup, models, walk.moments[0].position, scheme_seed=12
    )
    result = run_walk(framework, setup.place, "survey", walk, snaps)
    assert isinstance(result, WalkResult)
    assert all(isinstance(r, StepRecord) for r in result.records)

    clone = pickle.loads(pickle.dumps(result))
    assert clone.place_name == result.place_name
    assert len(clone.records) == len(result.records)
    for estimator in ("wifi", "motion", "uniloc1", "uniloc2", "optsel"):
        assert clone.errors(estimator) == result.errors(estimator)
    assert clone.usage("uniloc1") == result.usage("uniloc1")
    first_clone, first = clone.records[0], result.records[0]
    assert first_clone.decision.outputs == first.decision.outputs
    assert first_clone.scheme_errors == first.scheme_errors
