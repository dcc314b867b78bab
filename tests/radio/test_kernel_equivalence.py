"""Golden equivalence: the radio stack vs the pre-rewrite scalar code.

The dense fingerprint databases and the cached shadowing wave banks
replaced per-entry/per-call scalar implementations (preserved verbatim
in :mod:`repro.bench.baselines`).  The contract is numerical:

* shadowing agrees **bit-for-bit** (same wave bank, same sin/sum order;
  :mod:`tests.radio.test_radio_moment` checks every deployed
  transmitter of every builder place);
* fingerprint distances, Gaussian log-likelihoods and both `beta`
  features (candidate deviation, spatial density) agree to 1e-9;
* nearest-k returns the same entries in the same order;
* a database rebuilt from a persistence round-trip answers identically
  (JSON floats round-trip exactly).

Random "places" are seeded draws: fingerprint surveys and scans all
come from ``default_rng(seed)``, and every property is checked across
several seeds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import baselines
from repro.geometry import Point
from repro.radio import (
    Fingerprint,
    FingerprintDatabase,
    GaussianFingerprint,
    GaussianFingerprintDatabase,
    GaussianReading,
    Transmitter,
    TransmitterField,
    WIFI_MODEL,
)

PLACE_SEEDS = [0, 7, 1234]


def random_db(seed: int, n_entries: int = 40, n_keys: int = 9):
    """A seeded random survey: clustered positions, patchy RSSI vectors."""
    rng = np.random.default_rng(seed)
    keys = [f"ap{i}" for i in range(n_keys)]
    entries = []
    for _ in range(n_entries):
        x, y = rng.uniform(0.0, 80.0, size=2)
        audible = rng.integers(1, n_keys + 1)
        chosen = rng.choice(n_keys, size=audible, replace=False)
        rssi = {keys[j]: float(rng.uniform(-95.0, -35.0)) for j in sorted(chosen)}
        entries.append(Fingerprint(Point(float(x), float(y)), rssi))
    return FingerprintDatabase(entries)


def random_scan(seed: int, n_keys: int = 9) -> dict[str, float]:
    rng = np.random.default_rng(seed + 5000)
    audible = rng.integers(1, n_keys + 1)
    chosen = rng.choice(n_keys + 2, size=min(audible, n_keys), replace=False)
    return {f"ap{j}": float(rng.uniform(-95.0, -35.0)) for j in sorted(chosen)}


class TestShadowing:
    @pytest.mark.parametrize("seed", PLACE_SEEDS)
    def test_scalar_field_is_bitwise_identical_to_reference(self, seed):
        rng = np.random.default_rng(seed)
        for x, y in rng.uniform(-200.0, 200.0, size=(50, 2)):
            point = Point(float(x), float(y))
            expected = baselines.shadowing_db_reference(
                WIFI_MODEL.shadowing_sigma_db,
                WIFI_MODEL.shadowing_scale_m,
                point,
                seed,
            )
            field = TransmitterField.pack([Transmitter("tx", point, seed)])
            shadowing = WIFI_MODEL.shadowing_db(point.x, point.y, field)
            assert shadowing.tolist() == [expected]


class TestFingerprintMatching:
    @pytest.mark.parametrize("seed", PLACE_SEEDS)
    def test_nearest_k_ordering_matches_reference(self, seed):
        db = random_db(seed)
        for scan_seed in range(seed, seed + 10):
            scan = random_scan(scan_seed)
            expected = baselines.nearest_reference(db.entries, scan, k=4)
            actual = db.nearest(scan, k=4)
            assert [e.position for e, _ in actual] == [
                e.position for e, _ in expected
            ]
            for (_, d_actual), (_, d_expected) in zip(actual, expected):
                assert d_actual == pytest.approx(d_expected, abs=1e-9)

    @pytest.mark.parametrize("seed", PLACE_SEEDS)
    def test_beta2_candidate_deviation_matches_reference(self, seed):
        db = random_db(seed)
        for scan_seed in range(seed, seed + 10):
            scan = random_scan(scan_seed)
            expected = baselines.candidate_deviation_reference(
                db.entries, scan, k=3
            )
            assert db.candidate_deviation(scan, k=3) == pytest.approx(
                expected, abs=1e-9
            )

    @pytest.mark.parametrize("seed", PLACE_SEEDS)
    def test_beta1_spatial_density_matches_reference(self, seed):
        db = random_db(seed)
        rng = np.random.default_rng(seed + 9)
        for x, y in rng.uniform(-10.0, 90.0, size=(25, 2)):
            point = Point(float(x), float(y))
            expected = baselines.spatial_density_reference(
                db.entries, point, radius_m=15.0
            )
            actual = db.spatial_density_around(point, radius_m=15.0)
            assert actual == pytest.approx(expected, abs=1e-9)


class TestGaussianLikelihood:
    @pytest.mark.parametrize("seed", PLACE_SEEDS)
    def test_dense_log_likelihood_matches_reference(self, seed):
        rng = np.random.default_rng(seed + 21)
        entries = []
        for _ in range(20):
            x, y = rng.uniform(0.0, 50.0, size=2)
            n = int(rng.integers(0, 5))
            readings = {
                f"ap{int(j)}": GaussianReading(
                    mean=float(rng.uniform(-90.0, -40.0)),
                    std=float(rng.uniform(1.0, 8.0)),
                    count=int(rng.integers(1, 20)),
                )
                for j in rng.choice(8, size=n, replace=False)
            }
            entries.append(GaussianFingerprint(Point(float(x), float(y)), readings))
        db = GaussianFingerprintDatabase(entries)
        for scan_seed in range(seed, seed + 8):
            scan = random_scan(scan_seed, n_keys=8)
            totals = db.log_likelihoods(scan)
            for i, entry in enumerate(entries):
                expected = baselines.gaussian_log_likelihood_reference(scan, entry)
                if math.isinf(expected):
                    assert math.isinf(totals[i])
                else:
                    assert totals[i] == pytest.approx(expected, abs=1e-9)


finite_rssi = st.floats(min_value=-100.0, max_value=-20.0)
entry_strategy = st.builds(
    Fingerprint,
    position=st.builds(
        Point,
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=-50.0, max_value=50.0),
    ),
    rssi_dbm=st.dictionaries(
        st.sampled_from([f"ap{i}" for i in range(6)]), finite_rssi, max_size=6
    ),
)


class TestPersistenceRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.lists(entry_strategy, min_size=1, max_size=12),
        scan=st.dictionaries(
            st.sampled_from([f"ap{i}" for i in range(8)]), finite_rssi, max_size=8
        ),
    )
    def test_compiled_database_survives_persistence(
        self, entries, scan, tmp_path_factory
    ):
        """save -> load answers exactly like the original."""
        from repro.persistence import load_fingerprints, save_fingerprints

        original = FingerprintDatabase(list(entries))
        path = tmp_path_factory.mktemp("bench") / "prints.json"
        save_fingerprints(original, path)
        reloaded = load_fingerprints(path)
        assert np.array_equal(original.matrix, reloaded.matrix)
        assert np.array_equal(original.positions(), reloaded.positions())
        a = original.nearest(scan, k=3)
        b = reloaded.nearest(scan, k=3)
        assert [(e.position, d) for e, d in a] == [(e.position, d) for e, d in b]
