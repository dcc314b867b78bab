"""Offline RSSI fingerprint databases (RADAR-style).

A fingerprint database maps surveyed positions to RSSI vectors.  Both the
Wi-Fi scheme (RADAR [1]) and the cellular scheme (Otsason et al. [22]) use
the same structure and the same matching algorithm, exactly as in the
paper's motivation section.

The database also exposes the two influence factors the paper's error
models extract from it (Table I):

* **spatial density of fingerprints** (beta_1) — the average distance
  between fingerprints around the queried location, and
* **RSSI distance deviation** (beta_2) — the standard deviation of the
  RSSI distances of the best ``k`` candidates.

Determinism: the dense distances accumulate over the *sorted* transmitter
vocabulary (plus scan-order extras), not over Python ``set`` iteration
order, so scores are reproducible across processes regardless of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry import Grid, Point
from repro.radio.index import MatchCandidate

#: RSSI assumed for a transmitter missing from one of the two vectors
#: being compared (just below every radio's sensitivity floor).
MISSING_RSSI_DBM = -100.0

# Bound on memoized spatial-density entries before the memo resets;
# walkers query grid-snapped points, so real fleets stay far below this.
_DENSITY_MEMO_MAX = 100_000


@dataclass(frozen=True)
class Fingerprint:
    """One surveyed location and its RSSI vector."""

    position: Point
    rssi_dbm: dict[str, float]


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


@dataclass
class FingerprintDatabase:
    """An offline RSSI survey of a place, held as a dense matrix.

    Construction lowers the survey once to :attr:`matrix`, an
    ``(entries, transmitters)`` array whose columns follow the sorted
    transmitter vocabulary; absent readings hold
    :data:`MISSING_RSSI_DBM`, which makes the dense row-vs-scan
    difference the union-of-keys RSSI distance RADAR uses.  The survey
    is immutable after construction.  Implements the
    :class:`~repro.radio.index.FingerprintIndex` protocol.

    Attributes:
        entries: surveyed fingerprints, in survey order (any sequence
            given is stored as a tuple).
    """

    entries: tuple[Fingerprint, ...]

    def __post_init__(self) -> None:
        self.entries = tuple(self.entries)
        if not self.entries:
            raise ValueError("a fingerprint database cannot be empty")
        vocabulary = sorted({key for e in self.entries for key in e.rssi_dbm})
        self.transmitter_ids: tuple[str, ...] = tuple(vocabulary)
        self._column: dict[str, int] = {
            identifier: j for j, identifier in enumerate(vocabulary)
        }
        matrix = np.full((len(self.entries), len(vocabulary)), MISSING_RSSI_DBM)
        for i, entry in enumerate(self.entries):
            for key, value in entry.rssi_dbm.items():
                matrix[i, self._column[key]] = value
        matrix.setflags(write=False)
        self.matrix = matrix
        self._n_keys = np.array([len(e.rssi_dbm) for e in self.entries])
        positions_xy = np.array([[e.position.x, e.position.y] for e in self.entries])
        positions_xy.setflags(write=False)
        self._positions = positions_xy
        self._density_buckets: dict[float, _DensityBuckets] = {}
        # Densities are pure functions of (point, radius), and walkers on
        # shared paths query the same grid-snapped points over and over:
        # one query pays the computation, every repeat reuses its float.
        self._density_memo: dict[tuple[float, float, float], float] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def positions(self) -> np.ndarray:
        """Return the (read-only) ``(n, 2)`` array of surveyed positions."""
        return self._positions

    def distances(
        self, rssi_dbm: dict[str, float], rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Return the ``(n,)`` RSSI distances from a scan to every (or selected) entry.

        The distance is Euclidean over the union of transmitter
        identifiers: transmitters in the survey vocabulary are compared
        densely (absent readings score against the missing floor), and
        transmitters heard only in the scan add their offset from the
        floor, which penalizes mismatched AP sets the way RADAR
        implementations do.  Entries whose union with the scan is empty
        are infinitely far.
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
        scores = self.distances(rssi_dbm)
        order = np.argsort(scores, kind="stable")[:k]
        return order, scores

    def nearest(
        self, rssi_dbm: dict[str, float], k: int = 3
    ) -> list[tuple[Fingerprint, float]]:
        """Return the ``k`` entries with the smallest RSSI distance.

        An empty scan carries no information and matches nothing: the
        result is ``[]`` (historically the entries were ranked by their
        distance from pure silence, which produced meaningless all-``inf``
        or floor-offset candidates).

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
        """Return the beta_2 feature: std-dev of the top-k RSSI distances.

        A *small* deviation means the best candidates are nearly
        indistinguishable, so the chosen one is likely wrong — the paper
        accordingly learns a negative coefficient for this feature.
        """
        top = self.nearest(rssi_dbm, k=k)
        finite = np.array([score for _, score in top if math.isfinite(score)])
        if finite.size < 2:
            return 0.0
        return float(np.std(finite))

    def spatial_density_around(self, point: Point, radius_m: float = 15.0) -> float:
        """Return the average inter-fingerprint distance near ``point``.

        This is the paper's beta_1 feature: large values mean a sparse
        survey and therefore likely-high fingerprinting error.  The value
        is the mean nearest-neighbor distance among fingerprints within
        ``radius_m`` of the query; if fewer than two fingerprints are in
        range the distance from the query to its nearest fingerprint is
        used instead (an even stronger sparsity signal).  In-range
        entries come from a KD-grid, not an O(n^2) scan, and each
        exact ``(point, radius)`` is computed once.
        """
        memo = self._density_memo
        key = (point.x, point.y, radius_m)
        hit = memo.get(key)
        if hit is not None:
            return hit
        value = self._spatial_density(point, radius_m)
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

    def downsample(self, spacing_m: float) -> "FingerprintDatabase":
        """Thin the survey to approximately ``spacing_m`` meters between entries.

        Greedy min-distance thinning in survey order — the same operation
        the paper performs to study the effect of coarser fingerprint
        grids (5 m, 10 m, 15 m).

        Raises:
            ValueError: if ``spacing_m`` is not positive.
        """
        if spacing_m <= 0.0:
            raise ValueError("spacing must be positive")
        kept: list[Fingerprint] = []
        for entry in self.entries:
            if all(
                entry.position.distance_to(other.position) >= spacing_m
                for other in kept
            ):
                kept.append(entry)
        if not kept:
            kept = [self.entries[0]]
        return FingerprintDatabase(tuple(kept))
