"""Vectorized, batch-first kernels for the radio stack.

Every RSSI the simulator produces used to go through scalar Python: the
propagation model re-drew its shadowing wave bank from a fresh
``default_rng`` on *every* query, and fingerprint matching did a per-entry
dict-union loop for every scan.  This module is the numeric core those
scalar APIs now delegate to:

* :func:`wave_bank` / :class:`ShadowingField` — the per-transmitter
  plane-wave bank behind the static shadowing field, drawn **once** per
  ``(model, tx_seed)`` and evaluated for an ``(N, 2)`` array of points in
  one numpy expression.  The evaluation order matches the original scalar
  loop operation-for-operation, so the scalar API's values are
  bit-identical to the pre-kernel implementation.
* :class:`ShadowingBank` / :func:`mean_rssi_dbm` — ``M`` transmitters
  stacked into one bank, giving batched ``[N, M]`` shadowing and
  path-loss surfaces (these use ``np.hypot``/``np.log10`` and therefore
  agree with the scalar path-loss API to last-ulp rounding, not
  bit-for-bit; the golden-equivalence suite pins the 1e-9 agreement).
* :class:`CompiledFingerprintDatabase` — a
  :class:`~repro.radio.fingerprint.FingerprintDatabase` lowered to a
  dense ``[entries x transmitters]`` matrix over the sorted transmitter
  vocabulary, with vectorized ``nearest`` / ``candidate_deviation`` and a
  KD-grid ``spatial_density_around`` (bucketed on a
  :class:`repro.geometry.Grid` geometry) replacing the O(n^2) scan.
* :class:`CompiledGaussianFingerprintDatabase` — the Horus database
  lowered to dense mean/std matrices with a presence mask, so the
  union-of-APs log-likelihood is one masked numpy expression.

Determinism: the dense kernels accumulate over the *sorted* transmitter
vocabulary (plus scan-order extras), not over Python ``set`` iteration
order, so scores are reproducible across processes regardless of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Annotated, Sequence

import numpy as np

from repro.geometry import Grid, Point
from repro.shapes import Shape
from repro.radio.fingerprint import (
    MISSING_RSSI_DBM,
    Fingerprint,
    FingerprintDatabase,
)
from repro.radio.gaussian_fingerprint import (
    DEFAULT_STD_DB,
    LOG_LIKELIHOOD_FLOOR,
    GaussianFingerprint,
    GaussianFingerprintDatabase,
)
from repro.radio.index import FingerprintIndex, MatchCandidate

if TYPE_CHECKING:
    from repro.radio.propagation import PropagationModel

#: Reference distance for the path-loss model, meters.
REFERENCE_DISTANCE_M = 1.0

#: Number of plane waves in one transmitter's shadowing bank.
N_SHADOWING_WAVES = 6

#: Sum of n independent unit sinusoids has variance n/2; normalize by it.
_WAVE_NORM = math.sqrt(N_SHADOWING_WAVES / 2.0)

# Bound on memoized spatial-density entries before the cache resets;
# population queries are grid-snapped so real fleets stay far below this.
_DENSITY_MEMO_MAX = 100_000


# --------------------------------------------------------------------------
# Shadowing kernels
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WaveBank:
    """One transmitter's plane-wave directions and phases.

    Attributes:
        cos_angles, sin_angles: unit direction vectors of each wave.
        phases: phase offset of each wave, radians.
    """

    cos_angles: np.ndarray
    sin_angles: np.ndarray
    phases: np.ndarray


@functools.lru_cache(maxsize=65536)
def wave_bank(tx_seed: int) -> WaveBank:
    """Return the (cached) wave bank drawn from a transmitter's seed.

    The draws replicate the original scalar implementation exactly: a
    fresh ``default_rng(tx_seed)`` yields the wave angles, then the
    phases, each uniform over ``[0, 2*pi)``.
    """
    rng = np.random.default_rng(tx_seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=N_SHADOWING_WAVES)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=N_SHADOWING_WAVES)
    for array in (angles, phases):
        array.setflags(write=False)
    cos_angles = np.cos(angles)
    sin_angles = np.sin(angles)
    cos_angles.setflags(write=False)
    sin_angles.setflags(write=False)
    return WaveBank(cos_angles=cos_angles, sin_angles=sin_angles, phases=phases)


@dataclass(frozen=True)
class ShadowingField:
    """One transmitter's static shadowing field, precompiled.

    Attributes:
        sigma_db: field amplitude; ``<= 0`` disables the field.
        wavenumber: spatial angular frequency ``2*pi / scale_m``.
        bank: the transmitter's cached wave bank.
    """

    sigma_db: float
    wavenumber: float
    bank: WaveBank

    @classmethod
    def for_transmitter(
        cls, model: "PropagationModel", tx_seed: int
    ) -> "ShadowingField":
        """Return the (cached) field for one ``(model, tx_seed)`` pair."""
        return _shadowing_field(
            model.shadowing_sigma_db, model.shadowing_scale_m, tx_seed
        )

    def shadowing_db_at(self, x_m: float, y_m: float) -> float:
        """Evaluate the field at one point (bit-exact scalar path)."""
        if self.sigma_db <= 0.0:
            return 0.0
        bank = self.bank
        arg = (
            self.wavenumber * (x_m * bank.cos_angles + y_m * bank.sin_angles)
            + bank.phases
        )
        total = float(np.sin(arg).sum())
        return self.sigma_db * total / _WAVE_NORM

    def shadowing_db(
        self, points_xy: Annotated[np.ndarray, Shape("(N, 2)")]
    ) -> Annotated[np.ndarray, Shape("(N,)")]:
        """Evaluate the field for an ``(N, 2)`` array of points at once."""
        points = np.asarray(points_xy, dtype=float)
        if self.sigma_db <= 0.0:
            return np.zeros(points.shape[0])
        bank = self.bank
        arg = (
            self.wavenumber
            * (
                points[:, 0, None] * bank.cos_angles
                + points[:, 1, None] * bank.sin_angles
            )
            + bank.phases
        )
        return self.sigma_db * np.sin(arg).sum(axis=-1) / _WAVE_NORM


@functools.lru_cache(maxsize=65536)
def _shadowing_field(
    sigma_db: float, scale_m: float, tx_seed: int
) -> ShadowingField:
    wavenumber = 2.0 * math.pi / scale_m if sigma_db > 0.0 else 0.0
    return ShadowingField(
        sigma_db=sigma_db, wavenumber=wavenumber, bank=wave_bank(tx_seed)
    )


@dataclass(frozen=True)
class ShadowingBank:
    """``M`` transmitters' shadowing fields stacked for batched queries.

    Attributes:
        sigma_db: shared field amplitude of the propagation model.
        wavenumber: shared spatial angular frequency.
        cos_angles, sin_angles, phases: ``(M, W)`` stacked wave banks.
    """

    sigma_db: float
    wavenumber: float
    cos_angles: np.ndarray
    sin_angles: np.ndarray
    phases: np.ndarray

    @classmethod
    def stack(
        cls, model: "PropagationModel", tx_seeds: Sequence[int]
    ) -> "ShadowingBank":
        """Return the (cached) stacked bank for one model and seed tuple."""
        return _shadowing_bank(
            model.shadowing_sigma_db, model.shadowing_scale_m, tuple(tx_seeds)
        )

    @property
    def n_transmitters(self) -> int:
        return int(self.cos_angles.shape[0])

    def shadowing_db(
        self, rx_xy: Annotated[np.ndarray, Shape("(N, 2)")]
    ) -> Annotated[np.ndarray, Shape("(N, M)")]:
        """Return the ``(N, M)`` shadowing surface at ``(N, 2)`` receivers."""
        rx = np.asarray(rx_xy, dtype=float)
        n, m = rx.shape[0], self.n_transmitters
        if self.sigma_db <= 0.0 or m == 0:
            return np.zeros((n, m))
        x = rx[:, 0][:, None, None]
        y = rx[:, 1][:, None, None]
        arg = (
            self.wavenumber * (x * self.cos_angles + y * self.sin_angles)
            + self.phases
        )
        return self.sigma_db * np.sin(arg).sum(axis=-1) / _WAVE_NORM


@functools.lru_cache(maxsize=1024)
def _shadowing_bank(
    sigma_db: float, scale_m: float, tx_seeds: tuple[int, ...]
) -> ShadowingBank:
    wavenumber = 2.0 * math.pi / scale_m if sigma_db > 0.0 else 0.0
    if tx_seeds:
        banks = [wave_bank(seed) for seed in tx_seeds]
        cos_angles = np.stack([b.cos_angles for b in banks])
        sin_angles = np.stack([b.sin_angles for b in banks])
        phases = np.stack([b.phases for b in banks])
    else:
        cos_angles = np.empty((0, N_SHADOWING_WAVES))
        sin_angles = np.empty((0, N_SHADOWING_WAVES))
        phases = np.empty((0, N_SHADOWING_WAVES))
    for array in (cos_angles, sin_angles, phases):
        array.setflags(write=False)
    return ShadowingBank(
        sigma_db=sigma_db,
        wavenumber=wavenumber,
        cos_angles=cos_angles,
        sin_angles=sin_angles,
        phases=phases,
    )


# --------------------------------------------------------------------------
# Batched path loss
# --------------------------------------------------------------------------


def path_loss_db(
    model: "PropagationModel",
    distance_m: Annotated[np.ndarray, Shape("(N, M)")],
    walls: np.ndarray | float = 0.0,
) -> Annotated[np.ndarray, Shape("(N, M)")]:
    """Return batched deterministic path loss (vector twin of the scalar API)."""
    d = np.maximum(np.asarray(distance_m, dtype=float), REFERENCE_DISTANCE_M)
    return (
        model.pl0_db
        + 10.0 * model.exponent * np.log10(d / REFERENCE_DISTANCE_M)
        + walls * model.wall_loss_db
    )


def mean_rssi_dbm(
    model: "PropagationModel",
    tx_xy: Annotated[np.ndarray, Shape("(M, 2)")],
    tx_seeds: Sequence[int],
    rx_xy: Annotated[np.ndarray, Shape("(N, 2)")],
    walls: np.ndarray | float = 0.0,
) -> Annotated[np.ndarray, Shape("(N, M)")]:
    """Return the noise-free ``(N, M)`` RSSI surface for ``M`` transmitters.

    Args:
        model: propagation parameters shared by all transmitters.
        tx_xy: ``(M, 2)`` transmitter positions.
        tx_seeds: ``M`` per-transmitter shadowing seeds.
        rx_xy: ``(N, 2)`` receiver positions.
        walls: wall counts, broadcastable to ``(N, M)``.
    """
    tx = np.asarray(tx_xy, dtype=float).reshape(-1, 2)
    rx = np.asarray(rx_xy, dtype=float).reshape(-1, 2)
    distance_m = np.hypot(
        rx[:, 0][:, None] - tx[:, 0], rx[:, 1][:, None] - tx[:, 1]
    )
    bank = ShadowingBank.stack(model, tx_seeds)
    return (
        model.tx_power_dbm
        - path_loss_db(model, distance_m, walls)
        - bank.shadowing_db(rx)
    )


# --------------------------------------------------------------------------
# Compiled Euclidean fingerprint database (RADAR)
# --------------------------------------------------------------------------


class _DensityBuckets:
    """Entry indices bucketed onto a KD-grid with cell size = query radius.

    Any point within ``radius_m`` of a query differs by at most one cell
    index per axis, so a 3x3 neighborhood of raw (unclamped) floor-cells
    is guaranteed to contain every in-range entry.
    """

    def __init__(self, positions_xy: np.ndarray, radius_m: float) -> None:
        min_x = float(positions_xy[:, 0].min())
        min_y = float(positions_xy[:, 1].min())
        max_x = float(positions_xy[:, 0].max())
        max_y = float(positions_xy[:, 1].max())
        # Reuse Grid for validated geometry; degenerate extents are padded
        # so a single-point survey still gets a well-formed grid.
        self.grid = Grid(
            min_x=min_x,
            min_y=min_y,
            max_x=max(max_x, min_x + radius_m),
            max_y=max(max_y, min_y + radius_m),
            cell_size=radius_m,
        )
        cols = np.floor((positions_xy[:, 0] - min_x) / radius_m).astype(int)
        rows = np.floor((positions_xy[:, 1] - min_y) / radius_m).astype(int)
        buckets: dict[tuple[int, int], list[int]] = {}
        for i, (row, col) in enumerate(zip(rows, cols)):
            buckets.setdefault((int(row), int(col)), []).append(i)
        self._buckets = {
            key: np.array(indices) for key, indices in buckets.items()
        }

    def candidates_near(self, point: Point) -> np.ndarray:
        """Return entry indices in the 3x3 cells around ``point``, ascending."""
        grid = self.grid
        col = math.floor((point.x - grid.min_x) / grid.cell_size)
        row = math.floor((point.y - grid.min_y) / grid.cell_size)
        gathered = [
            self._buckets[key]
            for key in (
                (row + dr, col + dc)
                for dr in (-1, 0, 1)
                for dc in (-1, 0, 1)
            )
            if key in self._buckets
        ]
        if not gathered:
            return np.empty(0, dtype=int)
        merged = np.concatenate(gathered)
        merged.sort()
        return merged


class CompiledFingerprintDatabase:
    """A fingerprint survey lowered to a dense ``[entries x transmitters]`` matrix.

    Columns follow the sorted transmitter vocabulary of the survey;
    absent readings hold :data:`~repro.radio.fingerprint.MISSING_RSSI_DBM`,
    which makes the dense row-vs-scan difference identical to the scalar
    union-of-keys RSSI distance.  Implements the
    :class:`~repro.radio.index.FingerprintIndex` protocol.
    """

    def __init__(self, entries: Sequence[Fingerprint]) -> None:
        if not entries:
            raise ValueError("a fingerprint database cannot be empty")
        self.entries: tuple[Fingerprint, ...] = tuple(entries)
        vocabulary = sorted({key for e in self.entries for key in e.rssi_dbm})
        self.transmitter_ids: tuple[str, ...] = tuple(vocabulary)
        self._column: dict[str, int] = {
            identifier: j for j, identifier in enumerate(vocabulary)
        }
        matrix = np.full(
            (len(self.entries), len(vocabulary)), MISSING_RSSI_DBM
        )
        for i, entry in enumerate(self.entries):
            for key, value in entry.rssi_dbm.items():
                matrix[i, self._column[key]] = value
        matrix.setflags(write=False)
        self.matrix = matrix
        self._n_keys = np.array([len(e.rssi_dbm) for e in self.entries])
        positions_xy = np.array(
            [[e.position.x, e.position.y] for e in self.entries]
        )
        positions_xy.setflags(write=False)
        self._positions = positions_xy
        self._density_buckets: dict[float, _DensityBuckets] = {}
        self._density_memo: dict[tuple[float, float, float], float] | None = None

    @classmethod
    def from_database(
        cls, database: FingerprintDatabase
    ) -> "CompiledFingerprintDatabase":
        return cls(database.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def positions(self) -> Annotated[np.ndarray, Shape("(E, 2)")]:
        """Return the (read-only) ``(n, 2)`` array of surveyed positions."""
        return self._positions

    def distances(
        self, rssi_dbm: dict[str, float], rows: np.ndarray | None = None
    ) -> Annotated[np.ndarray, Shape("(E,)")]:
        """Return the RSSI distance from a scan to every (or selected) entry.

        Equivalent to the scalar union-of-keys distance: transmitters in
        the survey vocabulary are compared densely (absent readings score
        against the missing floor), transmitters heard only in the scan
        add their offset from the floor.  Entries whose union with the
        scan is empty are infinitely far, as in the scalar API.
        """
        matrix = self.matrix if rows is None else self.matrix[rows]
        vector = np.full(len(self.transmitter_ids), MISSING_RSSI_DBM)
        extra = 0.0
        for key, value in rssi_dbm.items():
            j = self._column.get(key)
            if j is None:
                diff = value - MISSING_RSSI_DBM
                extra += diff * diff
            else:
                vector[j] = value
        difference = matrix - vector
        squared = (difference * difference).sum(axis=1) + extra
        out = np.sqrt(squared)
        if not rssi_dbm:
            n_keys = self._n_keys if rows is None else self._n_keys[rows]
            out = np.where(n_keys == 0, np.inf, out)
        return out

    def _top(self, rssi_dbm: dict[str, float], k: int) -> tuple[np.ndarray, np.ndarray]:
        if k <= 0:
            raise ValueError("k must be positive")
        scores = self.distances(rssi_dbm)
        order = np.argsort(scores, kind="stable")[:k]
        return order, scores

    def nearest(
        self, rssi_dbm: dict[str, float], k: int = 3
    ) -> list[tuple[Fingerprint, float]]:
        """Return the ``k`` entries with the smallest RSSI distance.

        An empty scan matches nothing and returns ``[]``.

        Raises:
            ValueError: if ``k`` is not positive.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if not rssi_dbm:
            return []
        order, scores = self._top(rssi_dbm, k)
        return [(self.entries[i], float(scores[i])) for i in order]

    def match(
        self, rssi_dbm: dict[str, float], k: int = 3
    ) -> list[MatchCandidate]:
        """Return the best ``k`` candidates, scored by RSSI distance."""
        if k <= 0:
            raise ValueError("k must be positive")
        if not rssi_dbm:
            return []
        order, scores = self._top(rssi_dbm, k)
        return [
            MatchCandidate(
                index=int(i),
                position=self.entries[i].position,
                score=float(scores[i]),
            )
            for i in order
        ]

    def candidate_deviation(self, rssi_dbm: dict[str, float], k: int = 3) -> float:
        """Return the beta_2 feature: std-dev of the top-k RSSI distances."""
        top = self.nearest(rssi_dbm, k=k)
        finite = np.array([score for _, score in top if math.isfinite(score)])
        if finite.size < 2:
            return 0.0
        return float(np.std(finite))

    def enable_density_memo(self) -> None:
        """Memoize :meth:`spatial_density_around` by exact query point.

        Enabled by the population core: densities are pure
        functions of ``(point, radius)``, and a population of walkers on
        shared paths queries the same HMM-predicted grid centers over and
        over — one lane pays the scalar cost, every other lane reuses the
        exact float (bit-identity is free because the memo stores the
        scalar function's own output).  Off by default so standalone
        callers keep the historical zero-state behavior.
        """
        if self._density_memo is None:
            self._density_memo = {}

    def spatial_density_around(self, point: Point, radius_m: float = 15.0) -> float:
        """Return the beta_1 feature via the KD-grid (no O(n^2) scan).

        Semantics match the scalar API: mean nearest-neighbor distance
        among entries within ``radius_m`` of the query, falling back to
        the (floored) distance to the closest entry when fewer than two
        are in range.
        """
        memo = self._density_memo
        if memo is not None:
            key = (point.x, point.y, radius_m)
            hit = memo.get(key)
            if hit is not None:
                return hit
        value = self._spatial_density(point, radius_m)
        if memo is not None:
            if len(memo) >= _DENSITY_MEMO_MAX:
                memo.clear()
            memo[key] = value
        return value

    def _spatial_density(self, point: Point, radius_m: float) -> float:
        buckets = self._density_buckets.get(radius_m)
        if buckets is None:
            buckets = _DensityBuckets(self._positions, radius_m)
            self._density_buckets[radius_m] = buckets
        candidates = buckets.candidates_near(point)
        if candidates.size:
            pts = self._positions[candidates]
            in_range = (
                np.hypot(pts[:, 0] - point.x, pts[:, 1] - point.y) <= radius_m
            )
            nearby = candidates[in_range]
        else:
            nearby = candidates
        if nearby.size < 2:
            all_x = self._positions[:, 0]
            all_y = self._positions[:, 1]
            best = float(np.hypot(all_x - point.x, all_y - point.y).min())
            return max(best, radius_m)
        pts = self._positions[nearby]
        dx = pts[:, 0][:, None] - pts[:, 0]
        dy = pts[:, 1][:, None] - pts[:, 1]
        pairwise = np.hypot(dx, dy)
        np.fill_diagonal(pairwise, np.inf)
        return float(pairwise.min(axis=1).mean())


def compile_fingerprints(
    database: FingerprintDatabase | CompiledFingerprintDatabase,
) -> CompiledFingerprintDatabase:
    """Return the compiled form of a fingerprint database (cached).

    Compilation snapshots the entry list; databases are treated as
    immutable after their first query, matching how every caller in the
    repo uses them.
    """
    if isinstance(database, CompiledFingerprintDatabase):
        return database
    cached = database.__dict__.get("_compiled")
    if cached is not None and len(cached) == len(database.entries):
        compiled: CompiledFingerprintDatabase = cached
        return compiled
    compiled = CompiledFingerprintDatabase(database.entries)
    database.__dict__["_compiled"] = compiled
    return compiled


# --------------------------------------------------------------------------
# Compiled Gaussian fingerprint database (Horus)
# --------------------------------------------------------------------------


class CompiledGaussianFingerprintDatabase:
    """A Horus survey lowered to dense mean/std matrices plus a presence mask.

    The scalar log-likelihood runs over the *union* of scan and entry
    APs; densely that means a term is counted only where the presence
    mask (entry has a reading) or the scan covers the column — columns
    absent from both must contribute exactly zero, not the floored
    "missing vs missing" term.  Implements
    :class:`~repro.radio.index.FingerprintIndex` with
    ``score = -log_likelihood``.
    """

    def __init__(self, entries: Sequence[GaussianFingerprint]) -> None:
        if not entries:
            raise ValueError("a Gaussian fingerprint database cannot be empty")
        self.entries: tuple[GaussianFingerprint, ...] = tuple(entries)
        vocabulary = sorted({key for e in self.entries for key in e.readings})
        self.transmitter_ids: tuple[str, ...] = tuple(vocabulary)
        self._column: dict[str, int] = {
            identifier: j for j, identifier in enumerate(vocabulary)
        }
        shape = (len(self.entries), len(vocabulary))
        means = np.full(shape, MISSING_RSSI_DBM)
        stds = np.full(shape, DEFAULT_STD_DB)
        present = np.zeros(shape, dtype=bool)
        for i, entry in enumerate(self.entries):
            for key, reading in entry.readings.items():
                j = self._column[key]
                means[i, j] = reading.mean
                stds[i, j] = reading.std
                present[i, j] = True
        for array in (means, stds, present):
            array.setflags(write=False)
        self.means = means
        self.stds = stds
        self.present = present
        # -log(std) - 0.5 log(2 pi), precomputed per cell.
        self._log_norm = -np.log(stds) - 0.5 * math.log(2.0 * math.pi)
        self._n_readings = np.array([len(e.readings) for e in self.entries])
        positions_xy = np.array(
            [[e.position.x, e.position.y] for e in self.entries]
        )
        positions_xy.setflags(write=False)
        self._positions = positions_xy

    @classmethod
    def from_database(
        cls, database: GaussianFingerprintDatabase
    ) -> "CompiledGaussianFingerprintDatabase":
        return cls(database.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def positions(self) -> Annotated[np.ndarray, Shape("(E, 2)")]:
        """Return the (read-only) ``(n, 2)`` array of surveyed positions."""
        return self._positions

    def log_likelihoods(
        self, rssi_dbm: dict[str, float]
    ) -> Annotated[np.ndarray, Shape("(E,)")]:
        """Return each entry's log-likelihood of the scan, as an ``(n,)`` array."""
        vector = np.full(len(self.transmitter_ids), MISSING_RSSI_DBM)
        in_scan = np.zeros(len(self.transmitter_ids), dtype=bool)
        extra = 0.0
        for key, value in rssi_dbm.items():
            j = self._column.get(key)
            if j is None:
                z = (value - MISSING_RSSI_DBM) / DEFAULT_STD_DB
                term = (
                    -0.5 * z * z
                    - math.log(DEFAULT_STD_DB)
                    - 0.5 * math.log(2.0 * math.pi)
                )
                extra += max(term, LOG_LIKELIHOOD_FLOOR)
            else:
                vector[j] = value
                in_scan[j] = True
        z = (vector - self.means) / self.stds
        terms = np.maximum(-0.5 * z * z + self._log_norm, LOG_LIKELIHOOD_FLOOR)
        mask = self.present | in_scan
        totals = np.where(mask, terms, 0.0).sum(axis=1) + extra
        if not rssi_dbm:
            totals = np.where(self._n_readings == 0, -np.inf, totals)
        return totals

    def most_likely(
        self, rssi_dbm: dict[str, float], k: int = 3
    ) -> list[tuple[GaussianFingerprint, float]]:
        """Return the ``k`` most likely locations with their log-likelihoods.

        An empty scan matches nothing and returns ``[]``.

        Raises:
            ValueError: if ``k`` is not positive.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if not rssi_dbm:
            return []
        totals = self.log_likelihoods(rssi_dbm)
        order = np.argsort(-totals, kind="stable")[:k]
        return [(self.entries[i], float(totals[i])) for i in order]

    def match(
        self, rssi_dbm: dict[str, float], k: int = 3
    ) -> list[MatchCandidate]:
        """Return the best ``k`` candidates, scored by negated log-likelihood."""
        if k <= 0:
            raise ValueError("k must be positive")
        if not rssi_dbm:
            return []
        totals = self.log_likelihoods(rssi_dbm)
        order = np.argsort(-totals, kind="stable")[:k]
        return [
            MatchCandidate(
                index=int(i),
                position=self.entries[i].position,
                score=-float(totals[i]),
            )
            for i in order
        ]


def compile_gaussian_fingerprints(
    database: GaussianFingerprintDatabase | CompiledGaussianFingerprintDatabase,
) -> CompiledGaussianFingerprintDatabase:
    """Return the compiled form of a Gaussian database (cached)."""
    if isinstance(database, CompiledGaussianFingerprintDatabase):
        return database
    cached = database.__dict__.get("_compiled")
    if cached is not None and len(cached) == len(database.entries):
        compiled: CompiledGaussianFingerprintDatabase = cached
        return compiled
    compiled = CompiledGaussianFingerprintDatabase(database.entries)
    database.__dict__["_compiled"] = compiled
    return compiled


__all__ = [
    "REFERENCE_DISTANCE_M",
    "N_SHADOWING_WAVES",
    "WaveBank",
    "wave_bank",
    "ShadowingField",
    "ShadowingBank",
    "path_loss_db",
    "mean_rssi_dbm",
    "CompiledFingerprintDatabase",
    "compile_fingerprints",
    "CompiledGaussianFingerprintDatabase",
    "compile_gaussian_fingerprints",
    "FingerprintIndex",
    "MatchCandidate",
]
