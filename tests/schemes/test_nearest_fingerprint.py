"""The fusion scheme's box-culled nearest-fingerprint lookup is exact.

``nearest_fingerprint`` replaced a SciPy ``cKDTree`` query, which
:mod:`repro.bench.baselines` keeps as the reference.  The scheme looks
up the distinct surveyed spots (:func:`surveyed_spots`), so the tree
over every fingerprint must find the same spot at an equal float
distance.  On an exact tie between spots the lookup takes the lowest
tied index, while the tree takes the first tied one its traversal
reaches, which is a tied index too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import baselines
from repro.eval.setup import survey_points
from repro.fleet import place_builders
from repro.radio import Fingerprint, FingerprintDatabase
from repro.schemes import FusionScheme
from repro.schemes.fusion import nearest_fingerprint, surveyed_spots

BUILDERS = place_builders()


def fusion_positions(name):
    """The ``(F, 2)`` fingerprint positions ``PlaceSetup.create`` surveys."""
    place = BUILDERS[name]()
    points = [p for path in place.paths for p in survey_points(place, path)]
    return np.array([[p.x, p.y] for p in points])


def lookup(fingerprints, points):
    candidates, local, distances = nearest_fingerprint(
        np.ascontiguousarray(fingerprints.T), points
    )
    return candidates[local], distances


def assert_matches_reference(fingerprints, points):
    """The spot lookup finds the tree's spot; returns where it is unique."""
    spots_xy, spot_of = surveyed_spots(fingerprints)
    spots, distances = lookup(spots_xy.T, points)
    ref_indices, ref_distances = baselines.nearest_fingerprint_reference(
        fingerprints
    )(points)
    assert np.array_equal(distances, ref_distances)
    dx = points[:, 0:1] - spots_xy[0]
    dy = points[:, 1:2] - spots_xy[1]
    d2 = dx * dx + dy * dy
    tied = d2 == d2.min(axis=1, keepdims=True)
    unique = tied.sum(axis=1) == 1
    assert np.array_equal(spots[unique], spot_of[ref_indices][unique])
    rows = np.arange(len(points))
    assert tied[rows, spot_of[ref_indices]].all()
    assert np.array_equal(spots, tied.argmax(axis=1))
    return unique


def clouds(fingerprints, rng):
    """Clouds inside, straddling and far outside the survey hull, and
    points exactly on the first fingerprint (campus surveys its origin
    once per path, so there eight fingerprints share the spot)."""
    low = fingerprints.min(axis=0)
    high = fingerprints.max(axis=0)
    centre = (low + high) / 2.0
    for i in rng.choice(len(fingerprints), size=3):
        yield fingerprints[i] + rng.normal(0.0, 2.0, size=(300, 2))
    yield rng.uniform(low - 30.0, high + 30.0, size=(300, 2))
    yield np.array([low[0] - 5.0, centre[1]]) + rng.normal(0.0, 4.0, size=(300, 2))
    yield centre + 1e3 + rng.normal(0.0, 3.0, size=(300, 2))
    yield centre - 1e6 + rng.normal(0.0, 50.0, size=(300, 2))
    yield np.repeat(fingerprints[:1], 5, axis=0)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_surveyed_spots(name):
    fingerprints = fusion_positions(name)
    spots_xy, spot_of = surveyed_spots(fingerprints)
    assert spots_xy.flags.c_contiguous
    assert np.array_equal(spots_xy.T[spot_of], fingerprints)
    assert len(np.unique(fingerprints, axis=0)) == spots_xy.shape[1]
    if name == "campus":
        assert spots_xy.shape[1] == len(fingerprints) - 7
        assert np.count_nonzero(spot_of == 0) == 8
    else:
        assert np.array_equal(spot_of, np.arange(len(fingerprints)))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_place_matches_the_tree(name):
    fingerprints = fusion_positions(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    for points in clouds(fingerprints, rng):
        assert_matches_reference(fingerprints, points)


def bisector_points(fingerprints):
    """Points exactly on the bisector of neighbouring fingerprint pairs."""
    points = []
    for i, a in enumerate(fingerprints):
        for b in fingerprints[i + 1 :]:
            if np.hypot(*(a - b)) < 8.0:
                mid = (a + b) / 2.0
                normal = np.array([a[1] - b[1], b[0] - a[0]])
                points.extend([mid, mid + 0.5 * normal, mid - 0.25 * normal])
    return np.array(points)


def test_bisector_ties_go_to_the_lowest_spot():
    fingerprints = fusion_positions("office")
    unique = assert_matches_reference(fingerprints, bisector_points(fingerprints))
    assert not unique.all()


def test_bisector_in_one_leaf_equals_the_tree():
    """Up to 16 fingerprints the tree is one leaf scanned in index order."""
    fingerprints = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [0.0, 3.0]])
    points = bisector_points(fingerprints)
    indices, distances = lookup(fingerprints, points)
    ref_indices, ref_distances = baselines.nearest_fingerprint_reference(
        fingerprints
    )(points)
    assert np.array_equal(indices, ref_indices)
    assert np.array_equal(distances, ref_distances)


def test_one_fingerprint_database():
    fingerprints = np.array([[12.5, -3.0]])
    rng = np.random.default_rng(5)
    for points in clouds(fingerprints, rng):
        candidates, local, _ = nearest_fingerprint(
            np.ascontiguousarray(fingerprints.T), points
        )
        assert candidates.tolist() == [0]
        assert not local.any()
        assert_matches_reference(fingerprints, points)
    assert_matches_reference(np.repeat(fingerprints, 3, axis=0), points)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cloud_raises_like_the_tree(bad):
    fingerprints = fusion_positions("open-space")
    points = np.array([[1.0, 2.0], [bad, 3.0], [4.0, 5.0]])
    with pytest.raises(ValueError):
        lookup(fingerprints, points)
    with pytest.raises(ValueError):
        baselines.nearest_fingerprint_reference(fingerprints)(points)
    with pytest.raises(ValueError):
        lookup(fingerprints, points[:, ::-1].copy())


def test_overflowing_box_keeps_every_fingerprint():
    fingerprints = fusion_positions("office")
    points = np.array([[-1e200, 0.0], [1e200, 5.0]])
    with np.errstate(over="ignore"):
        candidates, _, _ = nearest_fingerprint(
            np.ascontiguousarray(fingerprints.T), points
        )
    assert np.array_equal(candidates, np.arange(len(fingerprints)))


def test_cull_drops_far_fingerprints():
    fingerprints = fusion_positions("mall")
    rng = np.random.default_rng(9)
    points = fingerprints[40] + rng.normal(0.0, 1.0, size=(300, 2))
    candidates, _, _ = nearest_fingerprint(
        np.ascontiguousarray(fingerprints.T), points
    )
    assert 0 < len(candidates) < len(fingerprints) // 4


coordinate = st.floats(-50.0, 50.0, allow_nan=False).map(lambda v: round(v, 1))


@settings(max_examples=60, deadline=None)
@given(
    fingerprints=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=40),
    points=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=30),
)
def test_hypothesis_clouds_match_the_tree(fingerprints, points):
    assert_matches_reference(np.array(fingerprints), np.array(points))


def test_scores_of_candidate_rows_equal_scores_of_all_rows(daily_world):
    """``FingerprintDatabase.distances`` scores a row alone, bit for bit."""
    database = daily_world["wifi_db"]
    rng = np.random.default_rng(2)
    scans = [s.wifi_scan for s in daily_world["snaps"] if s.wifi_scan][:20]
    everything = [database.distances(scan) for scan in scans]
    for _ in range(10):
        rows = np.sort(rng.choice(len(database), size=rng.integers(1, 12), replace=False))
        for scan, full in zip(scans, everything):
            assert np.array_equal(database.distances(scan, rows=rows), full[rows])


def rssi_weights(daily_world, entries, snapshot):
    """The particle weights after one RSSI update on ``entries``."""
    fusion = FusionScheme(
        daily_world["place"],
        entries[0].position,
        seed=4,
        database=FingerprintDatabase(entries),
    )
    fusion._rssi_update(snapshot)
    return fusion._pf.weights


def test_a_spot_read_twice_scores_its_best_matching_reading(daily_world):
    """Survey order does not matter, and the worse reading is ignored."""
    entries = list(daily_world["wifi_db"].entries)
    snapshot = next(s for s in daily_world["snaps"] if s.wifi_scan)
    first = entries[0]
    twin = Fingerprint(
        first.position, {key: value + 6.0 for key, value in first.rssi_dbm.items()}
    )
    scores = FingerprintDatabase([first, twin]).distances(snapshot.wifi_scan)
    better, worse = (first, twin) if scores[0] < scores[1] else (twin, first)
    assert scores.min() < scores.max()
    expected = rssi_weights(daily_world, [better] + entries[1:], snapshot)
    assert not np.array_equal(
        expected, rssi_weights(daily_world, [worse] + entries[1:], snapshot)
    )
    for survey in ([twin] + entries, entries + [twin], [first] + entries[1:] + [twin]):
        assert np.array_equal(rssi_weights(daily_world, survey, snapshot), expected)
