"""The FingerprintIndex protocol: one query surface, two databases.

Both fingerprint flavours — Euclidean and Gaussian — answer
``__len__`` / ``positions()`` / ``match()`` with lower-is-better
scores, so schemes written against the protocol
(:class:`~repro.schemes.GaussianHorusScheme` is the canonical consumer)
accept any of them.  This file also pins the empty-scan contract: an
empty RSSI vector is dropped *before* matching (``nearest``/
``most_likely`` return ``[]``, schemes return ``None``) instead of
matching every entry at infinite distance — the historical bug where an
all-entries-tied "best" fingerprint leaked a bogus estimate.
"""

import math

import pytest

from repro.bench.baselines import (
    gaussian_log_likelihood_reference,
    rssi_distance_reference,
)
from repro.geometry import Point
from repro.radio import (
    Fingerprint,
    FingerprintDatabase,
    FingerprintIndex,
    GaussianFingerprint,
    GaussianFingerprintDatabase,
    GaussianReading,
    MatchCandidate,
)
from repro.schemes import GaussianHorusScheme, RadarScheme
from repro.sensors.gps import GpsStatus
from repro.sensors.imu import ImuReading
from repro.sensors.snapshot import SensorSnapshot


def make_snapshot(wifi=None, index=0):
    return SensorSnapshot(
        index=index,
        time_s=index * 0.5,
        wifi_scan=wifi or {},
        cell_scan={},
        gps=GpsStatus(0, float("inf"), None),
        imu=ImuReading((), 0.0, 0.0, 0.0, 2.0),
        light_lux=300.0,
        detected_landmarks=(),
    )


@pytest.fixture
def euclidean_db():
    return FingerprintDatabase(
        [
            Fingerprint(Point(0, 0), {"a": -40.0, "b": -70.0}),
            Fingerprint(Point(10, 0), {"a": -55.0, "b": -55.0}),
            Fingerprint(Point(20, 0), {"a": -70.0, "b": -40.0}),
        ]
    )


@pytest.fixture
def gaussian_db():
    def reading(mean):
        return GaussianReading(mean=mean, std=4.0, count=5)

    return GaussianFingerprintDatabase(
        [
            GaussianFingerprint(Point(0, 0), {"a": reading(-40.0)}),
            GaussianFingerprint(Point(10, 0), {"a": reading(-55.0)}),
            GaussianFingerprint(Point(20, 0), {"a": reading(-70.0)}),
        ]
    )


@pytest.fixture
def all_flavours(euclidean_db, gaussian_db):
    return {"euclidean": euclidean_db, "gaussian": gaussian_db}


class TestProtocol:
    def test_every_flavour_satisfies_the_protocol(self, all_flavours):
        for name, db in all_flavours.items():
            assert isinstance(db, FingerprintIndex), name

    def test_len_and_positions_agree(self, all_flavours):
        for name, db in all_flavours.items():
            positions = db.positions()
            assert len(db) == 3, name
            assert positions.shape == (3, 2), name
            assert positions[1].tolist() == [10.0, 0.0], name

    def test_match_returns_sorted_lower_is_better(self, all_flavours):
        scan = {"a": -41.0}
        for name, db in all_flavours.items():
            top = db.match(scan, k=3)
            assert all(isinstance(c, MatchCandidate) for c in top), name
            scores = [c.score for c in top]
            assert scores == sorted(scores), name
            # -41 dBm is closest to the -40 dBm entry at the origin.
            assert top[0].position == Point(0, 0), name
            assert top[0].index == 0, name

    def test_match_k_caps_at_database_size(self, all_flavours):
        for name, db in all_flavours.items():
            assert len(db.match({"a": -41.0}, k=10)) == 3, name

    def test_gaussian_horus_scheme_accepts_any_flavour(self, all_flavours):
        snapshot = make_snapshot(wifi={"a": -41.0})
        estimates = {}
        for name, db in all_flavours.items():
            output = GaussianHorusScheme(db).estimate(snapshot)
            assert output is not None, name
            estimates[name] = output.position
        # Both flavours agree on the winner for an unambiguous scan.
        assert len(set(estimates.values())) == 1


class TestEmptyScanRegression:
    def test_nearest_on_empty_scan_is_empty(self, euclidean_db):
        assert euclidean_db.nearest({}) == []

    def test_most_likely_on_empty_scan_is_empty(self, gaussian_db):
        assert gaussian_db.most_likely({}) == []

    def test_match_on_empty_scan_is_empty(self, all_flavours):
        for name, db in all_flavours.items():
            assert db.match({}, k=3) == [], name

    def test_schemes_return_none_instead_of_tied_garbage(
        self, euclidean_db, gaussian_db
    ):
        snapshot = make_snapshot(wifi={})
        assert RadarScheme(euclidean_db).estimate(snapshot) is None
        assert GaussianHorusScheme(gaussian_db).estimate(snapshot) is None

    def test_empty_entry_and_empty_scan_stay_infinitely_far(self):
        # The reference contract rssi_distance({}, {}) == inf holds densely:
        # an entry with no readings never matches an empty scan.
        assert rssi_distance_reference({}, {}) == math.inf
        db = FingerprintDatabase(
            [
                Fingerprint(Point(0, 0), {}),
                Fingerprint(Point(5, 0), {"a": -50.0}),
            ]
        )
        assert db.distances({})[0] == math.inf
        assert db.nearest({}) == []
        distances = db.distances({"a": -50.0})
        for distance, entry in zip(distances, db.entries):
            assert distance == pytest.approx(
                rssi_distance_reference({"a": -50.0}, entry.rssi_dbm)
            )
        top = db.nearest({"a": -50.0}, k=2)
        assert top[0][0].position == Point(5, 0)

    def test_dense_distances_mark_empty_union_infinite(self, euclidean_db):
        db = FingerprintDatabase(
            [Fingerprint(Point(0, 0), {}), Fingerprint(Point(5, 0), {"a": -50.0})]
        )
        distances = db.distances({})
        assert math.isinf(distances[0])
        assert distances[1] == pytest.approx(50.0)  # |-50 - (-100)|

    def test_empty_scan_log_likelihoods_match_reference(self):
        def reading(mean):
            return GaussianReading(mean=mean, std=4.0, count=5)

        db = GaussianFingerprintDatabase(
            [
                GaussianFingerprint(Point(0, 0), {}),
                GaussianFingerprint(Point(5, 0), {"a": reading(-50.0)}),
            ]
        )
        totals = db.log_likelihoods({})
        assert totals[0] == -math.inf
        for total, entry in zip(totals, db.entries):
            assert total == pytest.approx(gaussian_log_likelihood_reference({}, entry))
