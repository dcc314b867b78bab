"""Unit and property tests for the fingerprint database."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.baselines import rssi_distance_reference
from repro.geometry import Point
from repro.radio import Fingerprint, FingerprintDatabase
from repro.radio.fingerprint import MISSING_RSSI_DBM


@pytest.fixture
def db():
    return FingerprintDatabase(
        [
            Fingerprint(Point(0, 0), {"a": -40.0, "b": -60.0}),
            Fingerprint(Point(10, 0), {"a": -60.0, "b": -40.0}),
            Fingerprint(Point(20, 0), {"a": -80.0, "c": -50.0}),
        ]
    )


def rssi_distance(scan, entry_rssi):
    """The database's distance from ``scan`` to one entry holding ``entry_rssi``.

    Checked against the union-of-keys reference on every call.
    """
    db = FingerprintDatabase([Fingerprint(Point(0, 0), entry_rssi)])
    distance = float(db.distances(scan)[0])
    assert distance == pytest.approx(rssi_distance_reference(scan, entry_rssi))
    return distance


class TestRssiDistance:
    def test_identity(self):
        v = {"a": -50.0, "b": -60.0}
        assert rssi_distance(v, dict(v)) == 0.0

    def test_symmetry(self):
        a = {"a": -50.0}
        b = {"a": -60.0, "b": -70.0}
        assert rssi_distance(a, b) == pytest.approx(rssi_distance(b, a))

    def test_euclidean_over_common_keys(self):
        a = {"a": -50.0, "b": -60.0}
        b = {"a": -53.0, "b": -56.0}
        assert rssi_distance(a, b) == pytest.approx(5.0)

    def test_missing_key_penalized(self):
        a = {"a": -50.0}
        b = {}
        assert rssi_distance(a, b) == pytest.approx(abs(-50.0 - MISSING_RSSI_DBM))
        assert rssi_distance(b, a) == pytest.approx(abs(-50.0 - MISSING_RSSI_DBM))

    def test_two_empty_vectors_are_infinitely_far(self):
        assert rssi_distance({}, {}) == float("inf")


class TestNearest:
    def test_exact_match_wins(self, db):
        top = db.nearest({"a": -40.0, "b": -60.0}, k=1)
        assert top[0][0].position == Point(0, 0)
        assert top[0][1] == pytest.approx(0.0)

    def test_k_limits_results(self, db):
        assert len(db.nearest({"a": -50.0}, k=2)) == 2

    def test_results_sorted(self, db):
        top = db.nearest({"a": -50.0, "b": -50.0}, k=3)
        distances = [d for _, d in top]
        assert distances == sorted(distances)

    def test_invalid_k(self, db):
        with pytest.raises(ValueError):
            db.nearest({"a": -50.0}, k=0)


class TestDensity:
    def test_dense_region(self, db):
        # Neighbors are 10 m apart.
        assert db.spatial_density_around(Point(10, 0), radius_m=15.0) == pytest.approx(10.0)

    def test_sparse_region_reports_at_least_radius(self, db):
        value = db.spatial_density_around(Point(200, 0), radius_m=15.0)
        assert value >= 15.0

    def test_deviation_zero_for_single_candidate(self):
        db = FingerprintDatabase([Fingerprint(Point(0, 0), {"a": -40.0})])
        assert db.candidate_deviation({"a": -40.0}, k=3) == 0.0


class TestDownsample:
    def test_spacing_respected(self, db):
        thinned = db.downsample(15.0)
        positions = [e.position for e in thinned.entries]
        for i, a in enumerate(positions):
            for b in positions[i + 1 :]:
                assert a.distance_to(b) >= 15.0

    def test_keeps_first_entry(self, db):
        assert db.downsample(100.0).entries[0].position == Point(0, 0)

    def test_invalid_spacing(self, db):
        with pytest.raises(ValueError):
            db.downsample(-1.0)


def test_empty_database_rejected():
    with pytest.raises(ValueError):
        FingerprintDatabase([])


@settings(max_examples=40, deadline=None)
@given(
    values=st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.floats(-95, -30),
        min_size=1,
        max_size=4,
    ),
    noise=st.floats(0, 5),
)
def test_distance_triangle_like_monotonicity(values, noise):
    """Perturbing one vector by a bounded amount bounds the distance."""
    perturbed = {k: v + noise for k, v in values.items()}
    d = rssi_distance(values, perturbed)
    assert d <= noise * math.sqrt(len(values)) + 1e-9


@settings(max_examples=30, deadline=None)
@given(spacing=st.floats(0.5, 30.0))
def test_downsample_min_distance_property(spacing):
    entries = [
        Fingerprint(Point(float(i), float(i % 7)), {"a": -50.0 - i}) for i in range(40)
    ]
    db = FingerprintDatabase(entries)
    thinned = db.downsample(spacing)
    positions = [e.position for e in thinned.entries]
    assert positions  # never empty
    for i, a in enumerate(positions):
        for b in positions[i + 1 :]:
            assert a.distance_to(b) >= spacing - 1e-9
