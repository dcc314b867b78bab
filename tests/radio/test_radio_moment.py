"""The batched radio moment answers exactly as the per-transmitter loop.

``RadioEnvironment`` packs each technology's transmitters once into a
:class:`~repro.radio.TransmitterField` and evaluates all of them at a
point in one numpy pass; the GPS geometry is memoized per sky view.
:mod:`repro.bench.baselines` keeps the one-transmitter-per-call loop and
the per-moment satellite solve they replaced.  Every value must be
equal, not close: the recorded traces feed pinned digests.
"""

import numpy as np
import pytest

from repro.bench import baselines
from repro.fleet import place_builders
from repro.geometry import Point
from repro.motion import DEFAULT_GAIT, generate_walk
from repro.radio import (
    Constellation,
    RadioEnvironment,
    Transmitter,
    TransmitterField,
    WIFI_SENSITIVITY_DBM,
)
from repro.sensors import GpsReceiver
from repro.world import NTU_FRAME, EnvironmentType, profile_of
from repro.world.place import compile_place_index

BUILDERS = place_builders()

#: Points per place for the field check: the redrawing shadowing
#: reference builds a generator per call, and campus has 192 APs.
N_FIELD_POINTS = 24

#: Walk moments per place for the moment check.
N_MOMENTS = 150

_RADIOS: dict = {}


def radio_of(name):
    """One deployed radio per builder place, shared."""
    if name not in _RADIOS:
        _RADIOS[name] = RadioEnvironment.deploy(BUILDERS[name](), seed=0)
    return _RADIOS[name]


def field_points(place, n=N_FIELD_POINTS):
    """Seeded points over the place's bounding box, a little beyond it."""
    x_lo, y_lo, x_hi, y_hi = place.boundary.bounding_box()
    rng = np.random.default_rng(len(place.name))
    xs = rng.uniform(x_lo - 10.0, x_hi + 10.0, size=n)
    ys = rng.uniform(y_lo - 10.0, y_hi + 10.0, size=n)
    return [Point(float(x), float(y)) for x, y in zip(xs, ys)]


def walk_points(place):
    path = next(iter(place.paths.values()))
    walk = generate_walk(path.polyline, DEFAULT_GAIT, np.random.default_rng(3))
    return [moment.position for moment in walk.moments[:N_MOMENTS]]


def ap_positions(radio):
    return np.array(
        [[ap.position.x, ap.position.y] for ap in radio.access_points]
    ).reshape(-1, 2)


def assert_field_matches_reference(model, transmitters, point, walls):
    """Batched shadowing and mean RSSI equal the per-transmitter reference."""
    field = TransmitterField.pack(transmitters)
    shadowing = [
        baselines.shadowing_db_reference(
            model.shadowing_sigma_db, model.shadowing_scale_m, point, tx.seed
        )
        for tx in transmitters
    ]
    mean = [
        model.tx_power_dbm
        - model.path_loss_db(tx.position.distance_to(point), n_walls)
        - s
        for tx, n_walls, s in zip(transmitters, walls, shadowing)
    ]
    batched_walls = np.array(walls, dtype=np.int64)
    assert model.shadowing_db(point.x, point.y, field).tolist() == shadowing
    assert model.mean_rssi_dbm(point.x, point.y, field, batched_walls).tolist() == mean


def assert_moment_matches_reference(radio, point):
    profile = profile_of(radio.place.environment_at(point))
    expected = baselines.radio_moment_reference(
        radio, ap_positions(radio), point, profile
    )
    # Item order is part of the answer: scans keep insertion order.
    assert list(radio.wifi_mean_rssi(point, profile).items()) == list(
        expected.wifi.items()
    )
    assert list(radio.cell_mean_rssi(point, profile).items()) == list(
        expected.cell.items()
    )
    assert radio.sky_geometry(profile) == expected.sky


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_batched_field_equals_reference_for_both_technologies(name):
    radio = radio_of(name)
    packed = compile_place_index(radio.place).walls
    for point in field_points(radio.place):
        starts = ap_positions(radio)
        walls = radio.place.floorplan.walls_crossed(
            packed, starts, np.broadcast_to((point.x, point.y), starts.shape)
        ).tolist()
        assert_field_matches_reference(
            radio.wifi_model, radio.access_points, point, walls
        )
        assert_field_matches_reference(
            radio.cell_model, radio.cell_towers, point, [0] * len(radio.cell_towers)
        )


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_moment_equals_reference_along_a_walk(name):
    radio = radio_of(name)
    for point in walk_points(radio.place) + field_points(radio.place, 8):
        assert_moment_matches_reference(radio, point)


@pytest.mark.parametrize("n_aps, n_towers", [(0, 1), (1, 0), (0, 0), (1, 1)])
def test_empty_and_single_transmitter_environments(n_aps, n_towers):
    """``T = 0`` packs to empty ``(0, N)`` arrays (``np.stack([])`` would
    raise) and answers ``{}``; ``T = 1`` equals the reference."""
    full = radio_of("office")
    radio = RadioEnvironment(
        place=full.place,
        access_points=full.access_points[:n_aps],
        cell_towers=full.cell_towers[:n_towers],
        constellation=full.constellation,
    )
    for point in walk_points(radio.place)[::10]:
        assert_moment_matches_reference(radio, point)
        profile = profile_of(radio.place.environment_at(point))
        if n_aps == 0:
            assert radio.wifi_mean_rssi(point, profile) == {}
        if n_towers == 0:
            assert radio.cell_mean_rssi(point, profile) == {}


def test_empty_field_shapes():
    field = TransmitterField.pack([])
    assert len(field) == 0
    assert field.positions.shape == (0, 2)
    assert field.cos_angles.shape == field.phases.shape == (0, 6)
    model = radio_of("office").wifi_model
    assert model.mean_rssi_dbm(1.0, 2.0, field).shape == (0,)


def test_single_transmitter_at_the_receiver():
    """Path loss clamps below the reference distance, as the scalar did."""
    model = radio_of("office").wifi_model
    tx = Transmitter("tx", Point(4.0, 5.0), 11)
    assert_field_matches_reference(model, [tx], Point(4.0, 5.0), [2])
    assert_field_matches_reference(model, [tx], Point(4.5, 5.0), [0])


class TestSkyGeometry:
    @pytest.mark.parametrize("env", list(EnvironmentType))
    def test_memo_equals_a_fresh_solve(self, env):
        radio = radio_of("daily")
        profile = profile_of(env)
        visible = radio.constellation.visible(profile.sky_view)
        fresh = (len(visible), Constellation.hdop(visible))
        assert radio.sky_geometry(profile) == fresh
        assert radio.sky_geometry(profile) == fresh  # the memoized answer

    @pytest.mark.parametrize("env", list(EnvironmentType))
    def test_gps_status_reports_the_fresh_geometry(self, env):
        radio = RadioEnvironment.deploy(BUILDERS["open-space"](), seed=4)
        receiver = GpsReceiver(radio, NTU_FRAME, np.random.default_rng(0))
        profile = profile_of(env)
        visible = radio.constellation.visible(profile.sky_view)
        status = receiver.observe(Point(10.0, 10.0), profile)
        assert status.n_satellites == len(visible)
        assert status.hdop == Constellation.hdop(visible)

    def test_memo_holds_one_entry_per_sky_view(self):
        radio = RadioEnvironment.deploy(BUILDERS["daily"](), seed=9)
        for env in EnvironmentType:
            radio.sky_geometry(profile_of(env))
        views = {profile_of(env).sky_view for env in EnvironmentType}
        assert set(radio._sky) == views


@pytest.mark.parametrize("name", ["office", "mall", "open-space"])
def test_vector_noise_is_the_scalar_draw_stream(name):
    """One ``rng.normal(size=n)`` per scan draws what ``n`` scalar calls
    drew, in the same order, so the noisy scans and everything drawn
    after them are unchanged."""
    radio = radio_of(name)
    batched, scalar = np.random.default_rng(17), np.random.default_rng(17)
    for point in walk_points(radio.place):
        profile = profile_of(radio.place.environment_at(point))
        expected = {}
        for identifier, mean in radio.wifi_mean_rssi(point, profile).items():
            value = mean + scalar.normal(0.0, profile.wifi_noise_db)
            if value >= WIFI_SENSITIVITY_DBM:
                expected[identifier] = value
        assert list(radio.wifi_rssi(point, profile, batched).items()) == list(
            expected.items()
        )
    assert batched.random() == scalar.random()
