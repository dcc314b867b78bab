"""Acceptance: the dense fingerprint databases drive real walks.

The Wi-Fi and cellular schemes query their
:class:`~repro.radio.FingerprintDatabase` directly; on a seeded office
walk both must report estimates, and only the framework's schemes may.
Walk-level byte identity with the pre-rewrite code is pinned separately
by the seeded ``WalkResult`` goldens.
"""

from repro.eval import PlaceSetup, build_framework, run_walk
from repro.eval.experiments import shared_models
from repro.eval.setup import SCHEME_NAMES
from repro.world import build_office_place


def test_kernel_backed_schemes_report():
    """The database-backed schemes actually produce estimates."""
    setup = PlaceSetup.create(build_office_place(), seed=99)
    walk, snaps = setup.record_walk(
        "survey", walk_seed=7, trace_seed=8, max_length=50.0
    )
    framework = build_framework(
        setup, shared_models(0), walk.moments[0].position, scheme_seed=9
    )
    result = run_walk(framework, setup.place, "survey", walk, snaps)
    reported = set()
    for record in result.records:
        reported.update(
            name
            for name, output in record.decision.outputs.items()
            if output is not None
        )
    assert {"wifi", "cellular"} <= reported
    assert reported <= set(SCHEME_NAMES)
