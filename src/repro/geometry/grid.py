"""Regular grids over a bounding box.

UniLoc2's locally-weighted Bayesian Model Averaging (paper Eq. 3-4) treats
a place as ``I`` discrete locations ``l_1 .. l_I``.  :class:`Grid` provides
that discretization: every scheme's output is rasterized into a posterior
over grid cells, and the BMA engine mixes those posteriors.

The rasterizers and the Eq. 4 readout run once per scheme per step, so
they avoid ``(I, 2)`` temporaries, yet each performs the same IEEE
operations in the same order as the plain ``(I, 2)`` formulation; the
pre-optimization code is kept verbatim in :mod:`repro.bench.baselines`
and the two are pinned byte-equal by property tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.point import Point


@dataclass(frozen=True)
class Grid:
    """A regular 2-D grid of cell centers covering a bounding box.

    Attributes:
        min_x, min_y: lower-left corner of the covered area.
        max_x, max_y: upper-right corner of the covered area.
        cell_size: edge length of each square cell, in meters.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float
    cell_size: float
    _centers: np.ndarray = field(init=False, repr=False, compare=False)
    #: 1-D cell-center axes: ``nx`` column and ``ny`` row coordinates.
    _xs: np.ndarray = field(init=False, repr=False, compare=False)
    _ys: np.ndarray = field(init=False, repr=False, compare=False)
    #: Contiguous per-axis copies of ``_centers`` columns, for Eq. 4.
    _cx: np.ndarray = field(init=False, repr=False, compare=False)
    _cy: np.ndarray = field(init=False, repr=False, compare=False)
    _nx: int = field(init=False, repr=False, compare=False)
    _ny: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        if self.max_x <= self.min_x or self.max_y <= self.min_y:
            raise ValueError("grid bounding box must have positive extent")
        xs = np.arange(self.min_x + self.cell_size / 2.0, self.max_x, self.cell_size)
        ys = np.arange(self.min_y + self.cell_size / 2.0, self.max_y, self.cell_size)
        if xs.size == 0:
            xs = np.array([(self.min_x + self.max_x) / 2.0])
        if ys.size == 0:
            ys = np.array([(self.min_y + self.max_y) / 2.0])
        gx, gy = np.meshgrid(xs, ys)
        centers = np.column_stack([gx.ravel(), gy.ravel()])
        object.__setattr__(self, "_centers", centers)
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ys", ys)
        object.__setattr__(self, "_cx", np.ascontiguousarray(centers[:, 0]))
        object.__setattr__(self, "_cy", np.ascontiguousarray(centers[:, 1]))
        object.__setattr__(self, "_nx", xs.size)
        object.__setattr__(self, "_ny", ys.size)

    @property
    def n_cells(self) -> int:
        """Return the number of grid cells ``I``."""
        return int(self._centers.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        """Return ``(ny, nx)`` — rows by columns."""
        return (self._ny, self._nx)

    def centers(self) -> np.ndarray:
        """Return an ``(I, 2)`` array of cell-center coordinates."""
        return self._centers

    def index_of(self, point: Point) -> int:
        """Return the index of the cell containing ``point``.

        Points outside the bounding box are clamped to the nearest border
        cell, which keeps noisy scheme outputs usable instead of erroring.
        """
        nx, ny = self._nx, self._ny
        col = int((point.x - self.min_x) // self.cell_size)
        row = int((point.y - self.min_y) // self.cell_size)
        col = min(nx - 1, max(0, col))
        row = min(ny - 1, max(0, row))
        return row * nx + col

    def center_of(self, index: int) -> Point:
        """Return the center of cell ``index``.

        Raises:
            IndexError: for an out-of-range index.
        """
        if not 0 <= index < self.n_cells:
            raise IndexError(f"cell index {index} out of range 0..{self.n_cells - 1}")
        x, y = self._centers[index]
        return Point(float(x), float(y))

    def gaussian_posterior(self, mean: Point, sigma: float) -> np.ndarray:
        """Rasterize an isotropic Gaussian into a normalized cell posterior.

        This is how point-estimate schemes (GPS and the fingerprinting
        schemes' top match) are converted into the ``P(l = l_i | M_n, s_t)``
        terms of paper Eq. 3.  ``sigma`` is floored at half a cell so the
        posterior never degenerates to a single spike narrower than the
        grid resolution.

        The squared distance is separable: row ``r``, column ``c`` of
        ``dx² + dy²[:, None]`` adds the same two squares the ``(I, 2)``
        form ``sum((centers - mean) ** 2, axis=1)`` adds for that cell
        (a two-term row sum is one addition), so it is equal bit for
        bit, and raveled row-major it follows the ``centers`` order.
        The rest (negate, divide, subtract the max, ``exp``, normalize)
        is the same elementwise sequence, done in place.
        """
        sigma = max(sigma, self.cell_size / 2.0)
        dx = self._xs - mean.x
        dy = self._ys - mean.y
        d2 = dx * dx + (dy * dy)[:, None]
        log_p = d2.ravel()
        np.negative(log_p, out=log_p)
        log_p /= 2.0 * sigma * sigma
        log_p -= log_p.max()
        p = np.exp(log_p, out=log_p)
        p /= p.sum()
        return p

    def histogram_posterior(
        self, points: np.ndarray, weights: np.ndarray | None = None
    ) -> np.ndarray:
        """Rasterize weighted sample points (e.g. particles) into a posterior.

        Args:
            points: ``(n, 2)`` array of sample coordinates.
            weights: optional ``(n,)`` non-negative weights; uniform if None.

        Returns:
            A normalized ``(I,)`` posterior.  A tiny uniform floor is mixed
            in so BMA never multiplies by an exact zero for cells adjacent
            to the particle cloud.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")
        if weights is None:
            weights = np.ones(points.shape[0])
        weights = np.asarray(weights, dtype=float)
        if weights.shape[0] != points.shape[0]:
            raise ValueError("weights length must match points")
        nx, ny = self._nx, self._ny
        cols = ((points[:, 0] - self.min_x) // self.cell_size).astype(int)
        rows = ((points[:, 1] - self.min_y) // self.cell_size).astype(int)
        # Integer clamps: the same values as ``np.clip``, at a fraction of
        # its per-call overhead on a few hundred particles.
        np.minimum(np.maximum(cols, 0, out=cols), nx - 1, out=cols)
        np.minimum(np.maximum(rows, 0, out=rows), ny - 1, out=rows)
        idx = rows * nx + cols
        # A weighted bincount is already a fresh float64 array.
        hist = np.bincount(idx, weights=weights, minlength=self.n_cells)
        total = hist.sum()
        if total <= 0.0:
            return np.full(self.n_cells, 1.0 / self.n_cells)
        hist /= total
        floor = 1e-9
        hist += floor
        hist /= hist.sum()
        return hist

    def expected_point(self, posterior: np.ndarray) -> Point:
        """Return the posterior-mean location (paper Eq. 4).

        ``sum(centers * posterior[:, None], axis=0)`` reduces over the
        outer axis, adding row after row; a cumulative sum over each
        contiguous center axis makes the same left-to-right additions
        without the ``(I, 2)`` product.  (A BLAS dot product or
        ``np.add.reduce``'s pairwise summation would reorder them.)

        Raises:
            ValueError: if ``posterior`` has the wrong length or zero mass.
        """
        posterior = np.asarray(posterior, dtype=float)
        if posterior.shape[0] != self.n_cells:
            raise ValueError("posterior length must equal the number of cells")
        total = posterior.sum()
        if total <= 0.0:
            raise ValueError("posterior has no probability mass")
        mean_x = np.cumsum(self._cx * posterior)[-1] / total
        mean_y = np.cumsum(self._cy * posterior)[-1] / total
        return Point(float(mean_x), float(mean_y))
