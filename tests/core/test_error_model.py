"""Tests for the OLS error models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ErrorModelSet, LinearErrorModel


def make_data(beta, n=200, noise=0.5, seed=0, intercept=0.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 10, size=(n, len(beta)))
    y = x @ np.array(beta) + intercept + rng.normal(0, noise, n)
    return x, y


class TestFit:
    def test_recovers_known_coefficients(self):
        x, y = make_data([2.0, -1.5])
        model = LinearErrorModel(("a", "b"))
        summary = model.fit(x, y)
        assert summary.coefficients[0] == pytest.approx(2.0, abs=0.1)
        assert summary.coefficients[1] == pytest.approx(-1.5, abs=0.1)

    def test_residual_std_matches_noise(self):
        x, y = make_data([1.0], noise=2.0, n=2000)
        model = LinearErrorModel(("a",))
        summary = model.fit(x, y)
        assert summary.residual_std == pytest.approx(2.0, rel=0.1)

    def test_significant_feature_low_pvalue(self):
        x, y = make_data([3.0, 0.0], n=500, seed=1)
        model = LinearErrorModel(("real", "junk"))
        summary = model.fit(x, y)
        assert summary.p_values[0] < 0.001
        assert summary.p_values[1] > 0.05

    def test_p_values_are_pinned(self):
        """SciPy's t-test is imported inside ``fit``; the values are
        those of the module-level import it replaced."""
        x, y = make_data([3.0, 0.0], n=500, seed=1)
        summary = LinearErrorModel(("real", "junk")).fit(x, y)
        assert summary.p_values == (0.0, 0.3630361592971971)
        x, y = make_data([0.2, 0.05], n=40, noise=3.0, seed=4, intercept=1.0)
        summary = LinearErrorModel(("a", "b"), fit_intercept=True).fit(x, y)
        assert summary.p_values == (
            0.35309549723053735,
            0.5411496100951836,
            0.18699788220259322,
        )

    def test_r_squared_high_for_clean_data(self):
        x, y = make_data([2.0], noise=0.01)
        model = LinearErrorModel(("a",))
        assert model.fit(x, y).r_squared > 0.99

    def test_r_squared_near_zero_for_pure_noise(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 10, size=(300, 1))
        y = rng.normal(5, 1, 300)
        model = LinearErrorModel(("a",))
        assert model.fit(x, y).r_squared < 0.05

    def test_intercept_only_model(self):
        """The GPS model: no features, just a mean and a residual std."""
        rng = np.random.default_rng(3)
        y = rng.normal(13.5, 9.4, 1000)
        model = LinearErrorModel((), fit_intercept=True)
        summary = model.fit(np.zeros((1000, 0)), y)
        assert summary.coefficients[0] == pytest.approx(13.5, abs=1.0)
        assert summary.residual_std == pytest.approx(9.4, rel=0.1)
        assert model.predict({}) == pytest.approx(13.5, abs=1.0)

    def test_shape_validation(self):
        model = LinearErrorModel(("a", "b"))
        with pytest.raises(ValueError):
            model.fit(np.zeros((10, 3)), np.zeros(10))
        with pytest.raises(ValueError):
            model.fit(np.zeros((10, 2)), np.zeros(9))

    def test_too_few_samples(self):
        model = LinearErrorModel(("a",))
        with pytest.raises(ValueError):
            model.fit(np.zeros((2, 1)), np.zeros(2))


class TestPredict:
    def test_unfitted_raises(self):
        model = LinearErrorModel(("a",))
        with pytest.raises(RuntimeError):
            model.predict({"a": 1.0})
        with pytest.raises(RuntimeError):
            _ = model.summary

    def test_missing_feature_raises(self):
        x, y = make_data([1.0])
        model = LinearErrorModel(("a",))
        model.fit(x, y)
        with pytest.raises(KeyError):
            model.predict({"b": 1.0})

    def test_extra_features_ignored(self):
        x, y = make_data([1.0])
        model = LinearErrorModel(("a",))
        model.fit(x, y)
        assert model.predict({"a": 2.0, "junk": 99.0}) == pytest.approx(
            model.predict({"a": 2.0})
        )

    def test_prediction_clamped_at_zero(self):
        x, y = make_data([1.0])
        model = LinearErrorModel(("a",))
        model.fit(x, y)
        assert model.predict({"a": -100.0}) == 0.0


class TestErrorModelSet:
    def test_context_selection(self):
        indoor = LinearErrorModel(("a",))
        outdoor = LinearErrorModel(("b",))
        model_set = ErrorModelSet(indoor=indoor, outdoor=outdoor)
        assert model_set.for_context(True) is indoor
        assert model_set.for_context(False) is outdoor


@settings(max_examples=40, deadline=None)
@given(
    beta=st.lists(st.floats(-5, 5), min_size=1, max_size=3),
    noise=st.floats(0.01, 3.0),
)
def test_prediction_always_finite_and_nonnegative(beta, noise):
    x, y = make_data(beta, n=60, noise=noise, seed=7)
    model = LinearErrorModel(tuple(f"f{i}" for i in range(len(beta))))
    model.fit(x, y)
    value = model.predict({f"f{i}": 3.0 for i in range(len(beta))})
    assert np.isfinite(value)
    assert value >= 0.0
