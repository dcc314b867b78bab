"""The BMA readout kernels are byte-equal to their pre-optimization code.

``Grid.gaussian_posterior``, ``Grid.histogram_posterior``,
``Grid.expected_point`` and :func:`repro.core.framework.bma_mixture`
avoid ``(I, 2)`` temporaries but must perform the same IEEE operations
in the same order as the references kept in
:mod:`repro.bench.baselines`.  The argument rests on how numpy orders
its reductions (an outer-axis ``sum`` adds row after row, as
``cumsum`` does), so these tests compare raw bytes, not tolerances.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import baselines
from repro.core.framework import bma_mixture
from repro.geometry import Grid, Point
from repro.schemes.base import SchemeOutput


def point_bytes(point):
    return np.array([point.x, point.y]).tobytes()


@st.composite
def grids(draw):
    """Grids of 1..90 columns and rows, including single rows/columns."""
    cell = draw(st.floats(0.25, 6.0))
    nx = draw(st.sampled_from([1, 2, 3]) | st.integers(1, 90))
    ny = draw(st.sampled_from([1, 2, 3]) | st.integers(1, 90))
    min_x = draw(st.floats(-300.0, 300.0))
    min_y = draw(st.floats(-300.0, 300.0))
    # An extent under half a cell exercises the one-center fallback.
    width = draw(st.just(0.3 * cell) | st.just(nx * cell))
    height = draw(st.just(0.3 * cell) | st.just(ny * cell))
    return Grid(min_x, min_y, min_x + width, min_y + height, cell)


def point_around(grid, fx, fy):
    """A point at fractions of the extent; outside the grid beyond [0, 1]."""
    return Point(
        grid.min_x + fx * (grid.max_x - grid.min_x),
        grid.min_y + fy * (grid.max_y - grid.min_y),
    )


fractions = st.floats(-2.0, 3.0)


class TestGaussianPosterior:
    @settings(max_examples=200, deadline=None)
    @given(
        grid=grids(),
        fx=fractions,
        fy=fractions,
        sigma=st.just(0.0) | st.floats(0.0, 1.0) | st.floats(0.0, 80.0),
    )
    def test_bytes_equal_reference(self, grid, fx, fy, sigma):
        mean = point_around(grid, fx, fy)
        got = grid.gaussian_posterior(mean, sigma)
        want = baselines.gaussian_posterior_reference(grid, mean, sigma)
        assert got.tobytes() == want.tobytes()

    def test_mean_on_a_center_is_a_spike(self):
        grid = Grid(0.0, 0.0, 20.0, 10.0, 2.0)
        mean = grid.center_of(7)
        got = grid.gaussian_posterior(mean, 0.0)
        want = baselines.gaussian_posterior_reference(grid, mean, 0.0)
        assert got.tobytes() == want.tobytes()
        assert int(np.argmax(got)) == 7


@st.composite
def clouds(draw, grid):
    """Particle clouds in and around ``grid`` with assorted weights."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(1, 400))
    rng = np.random.default_rng(seed)
    fx, fy = draw(fractions), draw(fractions)
    center = point_around(grid, fx, fy)
    spread = draw(st.just(0.0) | st.floats(0.0, 60.0))
    points = rng.normal([center.x, center.y], spread, size=(n, 2))
    kind = draw(st.sampled_from(["none", "random", "zeros", "some-zero", "spike"]))
    if kind == "none":
        weights = None
    elif kind == "random":
        weights = rng.uniform(0.0, 1.0, n)
    elif kind == "zeros":
        weights = np.zeros(n)
    elif kind == "some-zero":
        weights = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.5)
    else:
        weights = np.zeros(n)
        if n:
            weights[rng.integers(n)] = 1.0
    return points, weights


class TestHistogramPosterior:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), grid=grids())
    def test_bytes_equal_reference(self, data, grid):
        points, weights = data.draw(clouds(grid))
        got = grid.histogram_posterior(points, weights)
        want = baselines.histogram_posterior_reference(grid, points, weights)
        assert got.tobytes() == want.tobytes()


@st.composite
def posteriors(draw, grid):
    """Non-negative cell masses: dense, sparse, spiked or rasterized."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "sparse", "spike", "gaussian", "scaled"]))
    n = grid.n_cells
    if kind == "dense":
        return rng.dirichlet(np.ones(n))
    if kind == "sparse":
        p = rng.uniform(size=n) * (rng.uniform(size=n) < 0.1)
        p[rng.integers(n)] += 1e-300
        return p
    if kind == "spike":
        p = np.zeros(n)
        p[rng.integers(n)] = rng.uniform(1e-6, 10.0)
        return p
    mean = point_around(grid, draw(fractions), draw(fractions))
    p = grid.gaussian_posterior(mean, draw(st.floats(0.0, 40.0)))
    if kind == "scaled":
        p = p * rng.uniform(1e-3, 1e3)
    return p


class TestExpectedPoint:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), grid=grids())
    def test_bytes_equal_reference(self, data, grid):
        posterior = data.draw(posteriors(grid))
        got = grid.expected_point(posterior)
        want = baselines.expected_point_reference(grid, posterior)
        assert point_bytes(got) == point_bytes(want)


@st.composite
def scheme_outputs(draw, grid):
    """Five named outputs: Gaussians, particle clouds, or unavailable."""
    outputs = {}
    for name in ("gps", "wifi", "cellular", "motion", "fusion"):
        kind = draw(st.sampled_from(["none", "gaussian", "particles"]))
        position = point_around(grid, draw(fractions), draw(fractions))
        spread = draw(st.floats(0.0, 40.0))
        if kind == "none":
            outputs[name] = None
        elif kind == "gaussian":
            outputs[name] = SchemeOutput(position=position, spread=spread)
        else:
            points, weights = draw(clouds(grid))
            outputs[name] = SchemeOutput(
                position=position,
                spread=spread,
                samples=points,
                sample_weights=weights,
            )
    kind = draw(st.sampled_from(["random", "some-zero", "all-zero", "one"]))
    names = list(outputs)
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
    if kind == "some-zero":
        values = [v if i % 2 else 0.0 for i, v in enumerate(values)]
    elif kind == "all-zero":
        values = [0.0] * 5
    elif kind == "one":
        chosen = draw(st.integers(0, 4))
        values = [1.0 if i == chosen else 0.0 for i in range(5)]
    return outputs, dict(zip(names, values))


class TestBmaMixture:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), grid=grids())
    def test_bytes_equal_reference(self, data, grid):
        outputs, weights = data.draw(scheme_outputs(grid))
        got = bma_mixture(grid, outputs, weights)
        want = baselines.bma_mixture_reference(grid, outputs, weights)
        if got is None:
            # Nothing contributed: the reference is its zero accumulator.
            assert not want.any()
            return
        assert got.tobytes() == want.tobytes()
        if want.sum() > 0.0:
            got_point = grid.expected_point(got)
            want_point = baselines.expected_point_reference(grid, want)
            assert point_bytes(got_point) == point_bytes(want_point)

    def test_unavailable_and_nonpositive_weights_contribute_nothing(self):
        grid = Grid(0.0, 0.0, 30.0, 20.0, 2.0)
        outputs = {
            "wifi": SchemeOutput(position=Point(5.0, 5.0), spread=3.0),
            "gps": None,
        }
        assert bma_mixture(grid, outputs, {"wifi": 0.0, "gps": 1.0}) is None
        assert bma_mixture(grid, outputs, {"wifi": -1.0}) is None
        assert bma_mixture(grid, outputs, {}) is None
