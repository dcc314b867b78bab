"""Tests for the Horus-style Gaussian fingerprint database."""

import numpy as np
import pytest

from repro.bench.baselines import gaussian_log_likelihood_reference
from repro.geometry import Point
from repro.radio import GaussianFingerprintDatabase, RadioEnvironment
from repro.world import build_office_place


def make_db():
    surveys = [
        (Point(0, 0), [{"a": -40.0 + d, "b": -70.0 - d} for d in (-1.0, 0.0, 1.0)]),
        (Point(20, 0), [{"a": -70.0 + d, "b": -40.0 - d} for d in (-2.0, 0.0, 2.0)]),
    ]
    return GaussianFingerprintDatabase.from_samples(surveys)


def test_statistics_learned_from_samples():
    db = make_db()
    reading = db.entries[0].readings["a"]
    assert reading.mean == pytest.approx(-40.0)
    assert reading.count == 3
    assert reading.std >= 0.5


def test_most_likely_finds_matching_location():
    db = make_db()
    top = db.most_likely({"a": -40.5, "b": -69.5}, k=1)
    assert top[0][0].position == Point(0, 0)


def log_likelihoods(db, scan):
    """The database's per-entry log-likelihoods, checked against the reference."""
    totals = db.log_likelihoods(scan)
    for total, entry in zip(totals, db.entries):
        assert total == pytest.approx(gaussian_log_likelihood_reference(scan, entry))
    return totals


def test_likelihood_higher_at_true_location():
    db = make_db()
    ll_true, ll_other = log_likelihoods(db, {"a": -40.0, "b": -70.0})
    assert ll_true > ll_other


def test_outlier_does_not_veto():
    """The per-AP floor keeps a single wild reading from -inf'ing a cell."""
    db = make_db()
    scan = {"a": -40.0, "b": -5.0}  # absurd reading for b
    assert np.isfinite(log_likelihoods(db, scan)[0])


def test_invalid_inputs():
    with pytest.raises(ValueError):
        GaussianFingerprintDatabase([])
    with pytest.raises(ValueError):
        GaussianFingerprintDatabase.from_samples([(Point(0, 0), [{}])])
    with pytest.raises(ValueError):
        make_db().most_likely({"a": -40.0}, k=0)


def test_survey_from_radio_environment():
    place = build_office_place()
    radio = RadioEnvironment.deploy(place, seed=5)
    path = place.paths["survey"]
    points = [path.polyline.point_at_distance(float(s)) for s in range(0, 60, 10)]
    rng = np.random.default_rng(0)
    db = radio.survey_wifi_gaussian(points, rng, samples_per_point=8)
    assert len(db) >= 4
    entry = db.entries[0]
    counts = [r.count for r in entry.readings.values()]
    assert max(counts) >= 4  # repeated sampling happened
    with pytest.raises(ValueError):
        radio.survey_wifi_gaussian(points, rng, samples_per_point=0)
