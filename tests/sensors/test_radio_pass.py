"""The radio pass answers exactly as the per-moment queries it replaced.

``Smartphone.record_walk`` computes every moment's noise-free Wi-Fi and
cellular readings in one deterministic pass
(``RadioEnvironment.wifi_means`` / ``cell_means``), counting walls only
for the (moment, AP) pairs audible through no walls, and draws the noise
afterwards.  :mod:`repro.bench.baselines` keeps the per-moment radio
query and the per-moment recording loop.  Every reading, its key order
and every recorded snapshot must be equal, not close: the traces feed
pinned digests.
"""

import numpy as np
import pytest

from repro.bench import baselines
from repro.fleet import place_builders
from repro.motion import DEFAULT_GAIT, Walk, generate_walk
from repro.radio import RadioEnvironment, WIFI_SENSITIVITY_DBM, deployment
from repro.sensors import LG_G3, NEXUS_5X, Smartphone
from repro.world import profile_of

BUILDERS = place_builders()

#: Walk length of the per-moment checks, meters.
WALK_LENGTH_M = 300.0

_RADIOS: dict = {}


def radio_of(name):
    """One deployed radio per builder place, shared."""
    if name not in _RADIOS:
        _RADIOS[name] = RadioEnvironment.deploy(BUILDERS[name](), seed=0)
    return _RADIOS[name]


def walk_of(place, length=WALK_LENGTH_M, seed=3):
    path = next(iter(place.paths.values()))
    return generate_walk(
        path.polyline, DEFAULT_GAIT, np.random.default_rng(seed), max_length=length
    )


def ap_positions(radio):
    return np.array(
        [[ap.position.x, ap.position.y] for ap in radio.access_points]
    ).reshape(-1, 2)


def assert_pass_matches_reference(radio, points):
    profiles = radio.profiles_at(points)
    wifi = radio.wifi_means(points, profiles)
    cell = radio.cell_means(points, profiles)
    assert len(wifi) == len(cell) == len(points)
    ap_xy = ap_positions(radio)
    for i, (point, profile) in enumerate(zip(points, profiles)):
        expected = baselines.radio_moment_reference(radio, ap_xy, point, profile)
        # Item order is part of the answer: scans keep insertion order.
        assert list(wifi.means_at(i).items()) == list(expected.wifi.items()), i
        assert list(cell.means_at(i).items()) == list(expected.cell.items()), i


PLACES = [
    pytest.param(name, marks=pytest.mark.slow) if name == "campus" else name
    for name in sorted(BUILDERS)
]


@pytest.mark.parametrize("name", PLACES)
def test_pass_equals_the_per_moment_reference(name):
    radio = radio_of(name)
    points = [moment.position for moment in walk_of(radio.place).moments]
    assert_pass_matches_reference(radio, points)


@pytest.mark.parametrize("budget", [1, 97, 6 * 10 * 7 + 1])
def test_chunking_leaves_every_reading_alone(monkeypatch, budget):
    """Chunk boundaries fall inside the walk; rows must stay the walk's."""
    radio = radio_of("office")
    points = [moment.position for moment in walk_of(radio.place, 80.0).moments]
    profiles = radio.profiles_at(points)
    whole = radio.wifi_means(points, profiles), radio.cell_means(points, profiles)
    monkeypatch.setattr(deployment, "RADIO_PASS_CHUNK", budget)
    chunked = radio.wifi_means(points, profiles), radio.cell_means(points, profiles)
    for before, after in zip(whole, chunked):
        assert after.offsets == before.offsets
        assert after.columns == before.columns
        assert after.means.tolist() == before.means.tolist()


@pytest.mark.parametrize(
    "name, device",
    [("office", NEXUS_5X), ("mall", LG_G3), ("daily", NEXUS_5X)],
)
def test_record_walk_equals_the_per_moment_recording(name, device):
    radio = radio_of(name)
    walk = walk_of(radio.place, 150.0)
    phone = Smartphone(radio, device)
    snapshots = phone.record_walk(walk, seed=11)
    assert repr(snapshots) == repr(baselines.record_walk_reference(phone, walk, 11))


def test_empty_and_one_moment_walks():
    radio = radio_of("office")
    phone = Smartphone(radio, NEXUS_5X)
    walk = walk_of(radio.place, 40.0)
    empty = Walk(walk.polyline, walk.gait, ())
    assert phone.record_walk(empty, seed=2) == []
    assert len(radio.wifi_means([], [])) == 0
    assert radio.cell_means([], []).offsets == [0]
    one = Walk(walk.polyline, walk.gait, walk.moments[:1])
    snapshots = phone.record_walk(one, seed=2)
    assert len(snapshots) == 1
    assert repr(snapshots) == repr(baselines.record_walk_reference(phone, one, 2))


def test_inaudible_pairs_are_never_wall_counted(monkeypatch):
    """On campus (192 APs, 148 walls) every wall-counted pair is audible
    through no walls, and some pairs are not counted at all."""
    radio = radio_of("campus")
    plan = radio.place.floorplan
    counted = []
    count_walls = plan.walls_crossed

    def spy(walls, starts, ends):
        counted.append((starts.copy(), ends.copy()))
        return count_walls(walls, starts, ends)

    monkeypatch.setattr(plan, "walls_crossed", spy)
    points = [moment.position for moment in walk_of(radio.place, 60.0).moments]
    radio.wifi_means(points, radio.profiles_at(points))
    starts = np.concatenate([s for s, _ in counted])
    ends = np.concatenate([e for _, e in counted])
    assert 0 < len(starts) < len(points) * len(radio.access_points)
    aps = {(ap.position.x, ap.position.y): ap for ap in radio.access_points}
    for (ap_x, ap_y), (x, y) in zip(starts.tolist(), ends.tolist()):
        ap = aps[(ap_x, ap_y)]
        point = next(p for p in points if (p.x, p.y) == (x, y))
        free = baselines.mean_rssi_reference(
            radio.wifi_model, ap.position, point, walls=0, tx_seed=ap.seed
        )
        profile = profile_of(radio.place.environment_at(point))
        assert free - profile.wifi_attenuation_db >= WIFI_SENSITIVITY_DBM
