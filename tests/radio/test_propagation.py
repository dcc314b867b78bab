"""Unit tests for the RF propagation model."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.radio import (
    CELLULAR_MODEL,
    WIFI_MODEL,
    PropagationModel,
    Transmitter,
    TransmitterField,
)


def one_field(seed, at=Point(0.0, 0.0)):
    """A one-transmitter field (the ``T = 1`` case of the batched model)."""
    return TransmitterField.pack([Transmitter("tx", at, seed)])


def shadowing(model, p, seed):
    return float(model.shadowing_db(p.x, p.y, one_field(seed))[0])


@pytest.fixture
def model():
    return PropagationModel(
        tx_power_dbm=20.0,
        pl0_db=40.0,
        exponent=3.0,
        wall_loss_db=5.0,
        shadowing_sigma_db=4.0,
        shadowing_scale_m=10.0,
    )


class TestPathLoss:
    def test_reference_distance_loss(self, model):
        assert model.path_loss_db(1.0) == 40.0

    def test_loss_increases_with_distance(self, model):
        assert model.path_loss_db(10.0) > model.path_loss_db(2.0)

    def test_decade_slope(self, model):
        assert model.path_loss_db(10.0) - model.path_loss_db(1.0) == pytest.approx(30.0)

    def test_sub_reference_distance_clamped(self, model):
        assert model.path_loss_db(0.01) == model.path_loss_db(1.0)

    def test_wall_loss_added_per_wall(self, model):
        clear = model.path_loss_db(5.0, walls=0)
        blocked = model.path_loss_db(5.0, walls=3)
        assert blocked - clear == pytest.approx(15.0)

    @settings(max_examples=300, deadline=None)
    @given(
        distance=st.one_of(
            st.floats(0.0, 1.0),
            st.floats(1.0, 5_000.0),
            st.sampled_from([0.0, 1e-300, 0.5, 1.0, 1.0 + 2**-52]),
        ),
        walls=st.integers(0, 200),
        wall_loss=st.sampled_from([0.0, 5.0, 8.0, 3.3, 0.1]),
        exponent=st.sampled_from([2.0, 2.8, 3.2, 3.7]),
    )
    def test_walls_add_to_the_wall_free_loss_exactly(
        self, distance, walls, wall_loss, exponent
    ):
        """The radio pass charges walls on top of a wall-free loss; that
        must be bit for bit the loss computed with the walls."""
        model = PropagationModel(18.0, 40.0, exponent, wall_loss, 4.0, 12.0)
        through = model.path_loss_db(distance, walls)
        assert through == model.path_loss_db(distance, 0) + walls * wall_loss
        # The numpy form the pass uses: an int64 wall count array.
        added = model.received_dbm(
            np.array([model.path_loss_db(distance)]),
            np.zeros(1),
            np.array([walls], dtype=np.int64),
        )
        assert added.tolist() == [model.tx_power_dbm - through]

    @pytest.mark.parametrize("wall_loss", [-1.0, -1e-12, float("nan")])
    def test_negative_wall_loss_is_rejected(self, wall_loss):
        with pytest.raises(ValueError, match="wall_loss_db"):
            PropagationModel(18.0, 40.0, 2.8, wall_loss, 4.0, 12.0)

    def test_zero_wall_loss_is_allowed(self):
        assert PropagationModel(18.0, 40.0, 2.8, 0.0, 4.0, 12.0).wall_loss_db == 0.0


class TestShadowing:
    def test_deterministic_per_seed(self, model):
        p = Point(3.3, 4.4)
        assert shadowing(model, p, 42) == shadowing(model, p, 42)

    def test_different_seeds_differ(self, model):
        p = Point(3.3, 4.4)
        assert shadowing(model, p, 1) != shadowing(model, p, 2)

    def test_spatially_smooth(self, model):
        a = shadowing(model, Point(5, 5), 7)
        b = shadowing(model, Point(5.1, 5), 7)
        assert abs(a - b) < 0.5  # a 10 cm move cannot jump the field

    def test_varies_over_correlation_length(self, model):
        values = {
            round(shadowing(model, Point(x, 0.0), 7), 3) for x in range(0, 100, 7)
        }
        assert len(values) > 5

    def test_zero_sigma_disables(self):
        flat = PropagationModel(20, 40, 3.0, 5.0, 0.0, 10.0)
        assert shadowing(flat, Point(1, 2), 9) == 0.0

    def test_amplitude_bounded(self, model):
        worst = max(
            abs(shadowing(model, Point(x * 0.37, x * 0.71), 5)) for x in range(200)
        )
        # Six unit sinusoids scaled by sigma/sqrt(3): bounded by ~3.5 sigma.
        assert worst < 3.5 * model.shadowing_sigma_db


class TestInversion:
    def test_distance_for_rssi_inverts_mean(self, model):
        flat = PropagationModel(20, 40, 3.0, 5.0, 0.0, 10.0)
        for d in [2.0, 10.0, 50.0]:
            rssi = float(flat.mean_rssi_dbm(d, 0.0, one_field(0))[0])
            assert flat.distance_for_rssi(rssi) == pytest.approx(d, rel=1e-6)


def test_builtin_models_sane():
    assert CELLULAR_MODEL.tx_power_dbm > WIFI_MODEL.tx_power_dbm
    assert CELLULAR_MODEL.shadowing_scale_m > WIFI_MODEL.shadowing_scale_m
