"""Reference implementations of the radio and map-constraint hot paths.

These are verbatim copies of the scalar algorithms the radio stack used
before :mod:`repro.radio.kernels` existed, and of the particle map
constraint before its bounding-box cull.  They serve two purposes:

* **Golden equivalence** — the kernel layer must agree with them to
  1e-9 (:mod:`tests.radio.test_kernel_equivalence` pins this), and the
  shadowing kernel and the culled map constraint must agree
  bit-for-bit (:mod:`tests.schemes.test_particle_filter`).
* **Honest speedups** — the microbench suite (``repro bench``) times the
  kernels against these baselines on the same inputs, so the recorded
  speedups measure the kernels, not a strawman.

They are reference code: correct, slow, and deliberately never called
from the production path.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry import Point
from repro.radio.fingerprint import MISSING_RSSI_DBM, Fingerprint
from repro.radio.gaussian_fingerprint import (
    DEFAULT_STD_DB,
    LOG_LIKELIHOOD_FLOOR,
    GaussianFingerprint,
)
from repro.schemes.particle_filter import ParticleFilter

#: Reference distance for the path-loss model, meters (pre-kernel copy).
REFERENCE_DISTANCE_M = 1.0


def shadowing_db_reference(
    shadowing_sigma_db: float,
    shadowing_scale_m: float,
    rx: Point,
    tx_seed: int,
) -> float:
    """Pre-kernel shadowing: re-draws the wave bank on every call."""
    if shadowing_sigma_db <= 0.0:
        return 0.0
    rng = np.random.default_rng(tx_seed)
    n_waves = 6
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n_waves)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_waves)
    k = 2.0 * math.pi / shadowing_scale_m
    value = sum(
        math.sin(k * (rx.x * math.cos(a) + rx.y * math.sin(a)) + ph)
        for a, ph in zip(angles, phases)
    )
    return shadowing_sigma_db * value / math.sqrt(n_waves / 2.0)


def path_loss_db_reference(
    pl0_db: float,
    exponent: float,
    wall_loss_db: float,
    distance_m: float,
    walls: int = 0,
) -> float:
    """Pre-kernel scalar log-distance path loss."""
    d = max(distance_m, REFERENCE_DISTANCE_M)
    return (
        pl0_db
        + 10.0 * exponent * math.log10(d / REFERENCE_DISTANCE_M)
        + walls * wall_loss_db
    )


def rssi_distance_reference(a: dict[str, float], b: dict[str, float]) -> float:
    """Pre-kernel union-of-keys Euclidean RSSI distance."""
    keys = set(a) | set(b)
    if not keys:
        return float("inf")
    acc = 0.0
    for key in keys:
        diff = a.get(key, MISSING_RSSI_DBM) - b.get(key, MISSING_RSSI_DBM)
        acc += diff * diff
    return math.sqrt(acc)


def nearest_reference(
    entries: list[Fingerprint], rssi_dbm: dict[str, float], k: int = 3
) -> list[tuple[Fingerprint, float]]:
    """Pre-kernel per-entry nearest-fingerprint matching."""
    if k <= 0:
        raise ValueError("k must be positive")
    scored = [
        (entry, rssi_distance_reference(rssi_dbm, entry.rssi_dbm))
        for entry in entries
    ]
    scored.sort(key=lambda pair: pair[1])
    return scored[:k]


def spatial_density_reference(
    entries: list[Fingerprint], point: Point, radius_m: float = 15.0
) -> float:
    """Pre-kernel O(n + m^2) spatial-density feature."""
    nearby = [e for e in entries if e.position.distance_to(point) <= radius_m]
    if len(nearby) < 2:
        best = min(e.position.distance_to(point) for e in entries)
        return max(best, radius_m)
    acc = 0.0
    for entry in nearby:
        others = (
            o.position.distance_to(entry.position)
            for o in nearby
            if o is not entry
        )
        acc += min(others)
    return acc / len(nearby)


def candidate_deviation_reference(
    entries: list[Fingerprint], rssi_dbm: dict[str, float], k: int = 3
) -> float:
    """Pre-kernel beta_2 feature: std-dev of the top-k RSSI distances."""
    top = nearest_reference(entries, rssi_dbm, k=k)
    distances = np.array([d for _, d in top if math.isfinite(d)])
    if distances.size < 2:
        return 0.0
    return float(np.std(distances))


def gaussian_log_likelihood_reference(
    scan: dict[str, float], entry: GaussianFingerprint
) -> float:
    """Pre-kernel union-of-APs Horus log-likelihood."""
    keys = set(scan) | set(entry.readings)
    if not keys:
        return float("-inf")
    total = 0.0
    for key in keys:
        value = scan.get(key, MISSING_RSSI_DBM)
        reading = entry.readings.get(key)
        if reading is None:
            mean, std = MISSING_RSSI_DBM, DEFAULT_STD_DB
        else:
            mean, std = reading.mean, reading.std
        z = (value - mean) / std
        term = -0.5 * z * z - math.log(std) - 0.5 * math.log(2.0 * math.pi)
        total += max(term, LOG_LIKELIHOOD_FLOOR)
    return total


def walkable_mask_reference(pf: ParticleFilter, positions: np.ndarray) -> np.ndarray:
    """Pre-cull walkable mask: every position against every primitive."""
    n = len(positions)
    if pf._corridors is None or pf._indoor_regions is None:
        return np.ones(n, dtype=bool)
    in_corridor = _in_corridor_mask_reference(pf, positions)
    verts, normals, offsets = pf._indoor_regions
    # Componentized (p - v) . normal against every region's edges at
    # once: the same additions in the same order as a stacked
    # (n, E, 2) product-and-reduce, without the 3-D temporaries.
    side = (positions[:, None, 0] - verts[None, :, 0]) * normals[None, :, 0] + (
        positions[:, None, 1] - verts[None, :, 1]
    ) * normals[None, :, 1]  # (n, E)
    # A position is inside a region when its sides against all of
    # that region's edges agree; reduceat folds each region's columns.
    inside = np.logical_and.reduceat(
        side >= -1e-9, offsets, axis=1
    ) | np.logical_and.reduceat(side <= 1e-9, offsets, axis=1)  # (n, R)
    return in_corridor | ~inside.any(axis=1)


def _in_corridor_mask_reference(
    pf: ParticleFilter, positions: np.ndarray
) -> np.ndarray:
    """Pre-cull corridor containment against every corridor segment."""
    if pf._corridors is None:
        return np.zeros(len(positions), dtype=bool)
    starts, ends, half_widths = pf._corridors
    d = ends - starts  # (m, 2)
    seg_len2 = np.maximum((d * d).sum(axis=1), 1e-12)  # (m,)
    # t[i, j]: projection parameter of particle i on corridor j.
    # Componentized per coordinate: the same multiplies and two-term
    # additions, in the same order, as the stacked (n, m, 2) form,
    # but with only (n, m) temporaries (cache-resident at population
    # scale).
    dx = positions[:, None, 0] - starts[None, :, 0]  # (n, m)
    dy = positions[:, None, 1] - starts[None, :, 1]
    t = np.clip(
        (dx * d[None, :, 0] + dy * d[None, :, 1]) / seg_len2, 0.0, 1.0
    )
    ex = positions[:, None, 0] - (starts[None, :, 0] + t * d[None, :, 0])
    ey = positions[:, None, 1] - (starts[None, :, 1] + t * d[None, :, 1])
    dist = np.sqrt(ex * ex + ey * ey)  # (n, m)
    return (dist <= half_widths[None, :]).any(axis=1)


def crosses_wall_reference(
    pf: ParticleFilter, old: np.ndarray, new: np.ndarray
) -> np.ndarray:
    """Pre-cull wall crossing: every move against every wall."""
    if pf._wall_starts is None:
        return np.zeros(len(old), dtype=bool)
    r = new - old  # (n, 2)
    s = pf._wall_ends - pf._wall_starts  # (m, 2)
    rx, ry = r[:, None, 0], r[:, None, 1]
    sx, sy = s[None, :, 0], s[None, :, 1]
    # Componentized as in walkable_mask: the same products and
    # differences as a stacked (n, m, 2) form, with (n, m) temporaries.
    qx = pf._wall_starts[None, :, 0] - old[:, None, 0]  # (n, m)
    qy = pf._wall_starts[None, :, 1] - old[:, None, 1]
    r_cross_s = rx * sy - ry * sx
    qp_cross_r = qx * ry - qy * rx
    qp_cross_s = qx * sy - qy * sx
    nonparallel = np.abs(r_cross_s) > 1e-12
    # Parallel pairs divide by ~0, but ``nonparallel`` masks them below.
    with np.errstate(divide="ignore", invalid="ignore"):
        t = qp_cross_s / r_cross_s
        u = qp_cross_r / r_cross_s
    hits = nonparallel & (t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)
    return hits.any(axis=1)
