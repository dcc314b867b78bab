"""Reference implementations of the radio, map-constraint, BMA and place hot paths.

These are verbatim copies of the scalar algorithms the radio stack used
before its fingerprint databases went dense, its shadowing wave banks
were cached and its radio moment was batched (one transmitter per call,
the satellite geometry solved on every moment); of the particle map
constraint before its bounding-box cull; of the BMA readout's grid
rasterizers, mixture and Eq. 4 mean before they dropped their
``(I, 2)`` temporaries; of the sensor trace's place queries before
the compiled place index: the region loop of ``Place.environment_at``
without its box cull, the ``Segment``-based ``Polygon.contains``, and
the one-ray-per-call ``FloorPlan.walls_crossed``; of the fusion
scheme's nearest-fingerprint lookup before it dropped SciPy's
``cKDTree``; and of the sensor trace before its radio pass, each
moment's radio queried on its own and its mean dicts noised one by
one.  They serve two purposes:

* **Golden equivalence** — the dense fingerprint databases must agree
  with them to 1e-9 (:mod:`tests.radio.test_kernel_equivalence` pins
  this), and shadowing, the batched radio moment, the culled map
  constraint, the BMA readout, the culled environment lookup, the
  paired wall count, the box-culled nearest-fingerprint lookup (its
  distances, and its surveyed spots wherever the nearest is unique)
  and the radio pass of a recorded walk must agree bit-for-bit
  (:mod:`tests.radio.test_kernel_equivalence`,
  :mod:`tests.schemes.test_particle_filter`,
  :mod:`tests.geometry.test_grid_equivalence`,
  :mod:`tests.world.test_place_index`,
  :mod:`tests.schemes.test_nearest_fingerprint`,
  :mod:`tests.sensors.test_radio_pass`).
* **Honest speedups** — the microbench suite (``repro bench``) times the
  code that runs against these baselines on the same inputs, so the
  recorded speedups measure it, not a strawman.

They are reference code: correct, slow, and deliberately never called
from the production path.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from repro.geometry import Grid, Point, Polygon, Segment
from repro.motion import Walk
from repro.radio import (
    CELL_SENSITIVITY_DBM,
    WIFI_SENSITIVITY_DBM,
    Constellation,
    PropagationModel,
    RadioEnvironment,
)
from repro.radio.deployment import CELL_NOISE_DB
from repro.radio.fingerprint import MISSING_RSSI_DBM, Fingerprint
from repro.radio.gaussian_fingerprint import (
    DEFAULT_STD_DB,
    LOG_LIKELIHOOD_FLOOR,
    GaussianFingerprint,
)
from repro.radio.propagation import N_SHADOWING_WAVES, wave_bank
from repro.schemes.base import SchemeOutput
from repro.schemes.particle_filter import _corridor_arrays, _indoor_region_arrays
from repro.sensors import GpsReceiver, ImuSimulator, SensorSnapshot, Smartphone
from repro.sensors.phone import LANDMARK_DETECTION_PROB
from repro.world import EnvironmentProfile, EnvironmentType, Place, profile_of
from repro.world.place import compile_place_index


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


def mean_rssi_reference(
    model: PropagationModel, tx: Point, rx: Point, walls: int = 0, tx_seed: int = 0
) -> float:
    """Pre-batch noise-free RSSI of one transmitter at ``rx``.

    Path loss through ``Point`` distances plus one cached wave bank's
    shadowing, evaluated for this transmitter alone.
    """
    shadowing = 0.0
    if model.shadowing_sigma_db > 0.0:
        bank = wave_bank(tx_seed)
        wavenumber = 2.0 * math.pi / model.shadowing_scale_m
        arg = (
            wavenumber * (rx.x * bank.cos_angles + rx.y * bank.sin_angles)
            + bank.phases
        )
        total = float(np.sin(arg).sum())
        shadowing = (
            model.shadowing_sigma_db * total / math.sqrt(N_SHADOWING_WAVES / 2.0)
        )
    return (
        model.tx_power_dbm - model.path_loss_db(tx.distance_to(rx), walls) - shadowing
    )


class RadioMoment(NamedTuple):
    """What the radio answers at one recorded moment, before noise."""

    wifi: dict[str, float]
    cell: dict[str, float]
    sky: tuple[int, float]


def radio_moment_reference(
    radio: RadioEnvironment,
    ap_positions: np.ndarray,
    point: Point,
    profile: EnvironmentProfile,
) -> RadioMoment:
    """Pre-batch radio moment: one :func:`mean_rssi_reference` call per AP
    and per tower, and the satellite geometry solved afresh.

    ``ap_positions`` is the ``(T, 2)`` AP array the environment used to
    pack at construction; every AP's walls are counted in one batched
    call per moment, as before.
    """
    walls = radio.place.floorplan.walls_crossed(
        compile_place_index(radio.place).walls,
        ap_positions,
        np.broadcast_to((point.x, point.y), ap_positions.shape),
    ).tolist()
    wifi: dict[str, float] = {}
    for ap, n_walls in zip(radio.access_points, walls):
        rssi = (
            mean_rssi_reference(
                radio.wifi_model, ap.position, point, walls=n_walls, tx_seed=ap.seed
            )
            - profile.wifi_attenuation_db
        )
        if rssi >= WIFI_SENSITIVITY_DBM:
            wifi[ap.identifier] = rssi
    cell: dict[str, float] = {}
    for tower in radio.cell_towers:
        rssi = (
            mean_rssi_reference(
                radio.cell_model, tower.position, point, walls=0, tx_seed=tower.seed
            )
            - profile.cell_attenuation_db
        )
        if rssi >= CELL_SENSITIVITY_DBM:
            cell[tower.identifier] = rssi
    strongest = sorted(cell.items(), key=lambda kv: kv[1], reverse=True)
    visible = radio.constellation.visible(profile.sky_view)
    return RadioMoment(
        wifi,
        dict(strongest[: profile.audible_towers_cap]),
        (len(visible), Constellation.hdop(visible)),
    )


def noisy_scan_reference(
    means: dict[str, float],
    noise_db: float,
    sensitivity_dbm: float,
    rng: np.random.Generator,
) -> dict[str, float]:
    """Pre-pass noisy scan: one vector draw over one moment's mean dict."""
    noise = rng.normal(0.0, noise_db, size=len(means)).tolist()
    scan: dict[str, float] = {}
    for (identifier, mean), delta in zip(means.items(), noise):
        value = mean + delta
        if value >= sensitivity_dbm:
            scan[identifier] = value
    return scan


def record_walk_reference(
    phone: Smartphone, walk: Walk, seed: int = 0
) -> list[SensorSnapshot]:
    """Pre-pass ``Smartphone.record_walk``: each moment's radio queried on
    its own (:func:`radio_moment_reference`), its noise-free dicts built,
    then noised, with every draw in the same order."""
    rng = np.random.default_rng(seed)
    radio = phone.radio
    imu = ImuSimulator(device=phone.device, gait=walk.gait, rng=rng)
    gps = GpsReceiver(radio=radio, frame=phone.frame, rng=rng)
    place = radio.place
    ap_xy = np.array(
        [[ap.position.x, ap.position.y] for ap in radio.access_points]
    ).reshape(-1, 2)
    snapshots = []
    for moment in walk.moments:
        position = moment.position
        profile = profile_of(place.environment_at(position))
        means = radio_moment_reference(radio, ap_xy, position, profile)
        wifi = phone.device.apply_to_scan(
            noisy_scan_reference(
                means.wifi, profile.wifi_noise_db, WIFI_SENSITIVITY_DBM, rng
            )
        )
        cell = phone.device.apply_to_scan(
            noisy_scan_reference(means.cell, CELL_NOISE_DB, CELL_SENSITIVITY_DBM, rng)
        )
        light = max(
            0.0,
            float(
                rng.normal(profile.ambient_light_lux, profile.ambient_light_lux * 0.15)
            ),
        )
        detected = tuple(
            lm
            for lm in place.floorplan.detectable_landmarks(position)
            if rng.random() < LANDMARK_DETECTION_PROB
        )
        snapshots.append(
            SensorSnapshot(
                index=moment.index,
                time_s=moment.time_s,
                wifi_scan=wifi,
                cell_scan=cell,
                gps=gps.observe(position, profile),
                imu=imu.sense(moment, profile.magnetic_sigma_ut),
                light_lux=light,
                detected_landmarks=detected,
            )
        )
    return snapshots


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


def nearest_fingerprint_reference(
    fingerprints: np.ndarray,
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Pre-numpy fusion lookup: one ``cKDTree`` per scheme, one query per step.

    Takes the ``(F, 2)`` fingerprint positions and returns the query:
    ``(N, 2)`` points to their nearest fingerprints' ``(N,)`` indices and
    ``(N,)`` Euclidean distances.  SciPy is imported here, so only the
    reference needs it.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(fingerprints)

    def query(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        distances, indices = tree.query(points)
        return indices, distances

    return query


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


def environment_at_reference(place: Place, point: Point) -> EnvironmentType:
    """Pre-index environment lookup: ``Polygon.contains`` on every region."""
    for region in place.regions:
        if region.polygon.contains(point):
            return region.env_type
    return place.default_env


def polygon_contains_reference(polygon: Polygon, point: Point) -> bool:
    """Pre-float ``Polygon.contains``: a ``Segment`` per edge for the
    boundary test, then a separate ray-casting pass."""
    for edge in polygon.edges():
        if edge.distance_to_point(point) < 1e-9:
            return True
    inside = False
    x, y = point.x, point.y
    verts = polygon.vertices
    j = len(verts) - 1
    for i in range(len(verts)):
        xi, yi = verts[i].x, verts[i].y
        xj, yj = verts[j].x, verts[j].y
        if (yi > y) != (yj > y):
            x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
            if x < x_cross:
                inside = not inside
        j = i
    return inside


def walls_crossed_reference(
    walls: list[Segment],
    wall_arrays: tuple[np.ndarray, np.ndarray] | None,
    a: Point,
    b: Point,
) -> int:
    """Pre-index wall count: one ray against every wall per call.

    ``wall_arrays`` is the ``(starts, ends)`` pair the plan used to
    cache (:attr:`MapArrays.walls`), so the reference pays no packing.
    """
    if wall_arrays is None:
        return 0
    starts, ends = wall_arrays
    p = np.array([a.x, a.y])
    r = np.array([b.x - a.x, b.y - a.y])
    s = ends - starts
    qp = starts - p
    r_cross_s = r[0] * s[:, 1] - r[1] * s[:, 0]
    qp_cross_r = qp[:, 0] * r[1] - qp[:, 1] * r[0]
    qp_cross_s = qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]
    nonparallel = np.abs(r_cross_s) > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(nonparallel, qp_cross_s / r_cross_s, np.nan)
        u = np.where(nonparallel, qp_cross_r / r_cross_s, np.nan)
    hits = nonparallel & (t >= 0.0) & (t <= 1.0) & (u >= 0.0) & (u <= 1.0)
    count = int(hits.sum())
    parallel = ~nonparallel
    if parallel.any() and np.any(np.abs(qp_cross_r[parallel]) < 1e-9):
        ray = Segment(a, b)
        for idx in np.nonzero(parallel)[0]:
            if abs(qp_cross_r[idx]) < 1e-9 and ray.intersects(walls[idx]):
                count += 1
    return count


class MapArrays(NamedTuple):
    """A place's raw corridor, indoor-region and wall arrays."""

    corridors: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    indoor_regions: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    walls: tuple[np.ndarray, np.ndarray] | None


def map_arrays(place: Place) -> MapArrays:
    """Return the raw arrays the map-constraint references test against.

    Region normals point inward; the references' two-sided side test
    gives the same answer for either orientation (negation is exact).
    """
    walls = place.floorplan.walls
    wall_arrays = None
    if walls:
        wall_arrays = (
            np.array([[w.start.x, w.start.y] for w in walls]),
            np.array([[w.end.x, w.end.y] for w in walls]),
        )
    return MapArrays(
        _corridor_arrays(place), _indoor_region_arrays(place), wall_arrays
    )


def walkable_mask_reference(arrays: MapArrays, positions: np.ndarray) -> np.ndarray:
    """Pre-cull walkable mask: every position against every primitive."""
    n = len(positions)
    if arrays.corridors is None or arrays.indoor_regions is None:
        return np.ones(n, dtype=bool)
    in_corridor = _in_corridor_mask_reference(arrays, positions)
    verts, normals, offsets = arrays.indoor_regions
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
    arrays: MapArrays, positions: np.ndarray
) -> np.ndarray:
    """Pre-cull corridor containment against every corridor segment."""
    if arrays.corridors is None:
        return np.zeros(len(positions), dtype=bool)
    starts, ends, half_widths = arrays.corridors
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
    arrays: MapArrays, old: np.ndarray, new: np.ndarray
) -> np.ndarray:
    """Pre-cull wall crossing: every move against every wall."""
    if arrays.walls is None:
        return np.zeros(len(old), dtype=bool)
    wall_starts, wall_ends = arrays.walls
    r = new - old  # (n, 2)
    s = wall_ends - wall_starts  # (m, 2)
    rx, ry = r[:, None, 0], r[:, None, 1]
    sx, sy = s[None, :, 0], s[None, :, 1]
    # Componentized as in walkable_mask: the same products and
    # differences as a stacked (n, m, 2) form, with (n, m) temporaries.
    qx = wall_starts[None, :, 0] - old[:, None, 0]  # (n, m)
    qy = wall_starts[None, :, 1] - old[:, None, 1]
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


def gaussian_posterior_reference(grid: Grid, mean: Point, sigma: float) -> np.ndarray:
    """Pre-separable Gaussian rasterization over the ``(I, 2)`` centers."""
    sigma = max(sigma, grid.cell_size / 2.0)
    d2 = np.sum((grid.centers() - [mean.x, mean.y]) ** 2, axis=1)
    log_p = -d2 / (2.0 * sigma * sigma)
    log_p -= log_p.max()
    p = np.exp(log_p)
    return p / p.sum()


def histogram_posterior_reference(
    grid: Grid, points: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Pre-in-place particle histogram, with its copying blend."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    if weights is None:
        weights = np.ones(points.shape[0])
    weights = np.asarray(weights, dtype=float)
    if weights.shape[0] != points.shape[0]:
        raise ValueError("weights length must match points")
    ny, nx = grid.shape
    cols = np.clip(((points[:, 0] - grid.min_x) // grid.cell_size).astype(int), 0, nx - 1)
    rows = np.clip(((points[:, 1] - grid.min_y) // grid.cell_size).astype(int), 0, ny - 1)
    idx = rows * nx + cols
    hist = np.bincount(idx, weights=weights, minlength=grid.n_cells).astype(float)
    total = hist.sum()
    if total <= 0.0:
        return np.full(grid.n_cells, 1.0 / grid.n_cells)
    hist /= total
    floor = 1e-9
    hist = hist + floor
    return hist / hist.sum()


def expected_point_reference(grid: Grid, posterior: np.ndarray) -> Point:
    """Pre-cumsum Eq. 4 mean over the ``(I, 2)`` centers."""
    posterior = np.asarray(posterior, dtype=float)
    if posterior.shape[0] != grid.n_cells:
        raise ValueError("posterior length must equal the number of cells")
    total = posterior.sum()
    if total <= 0.0:
        raise ValueError("posterior has no probability mass")
    mean = (grid.centers() * posterior[:, None]).sum(axis=0) / total
    return Point(float(mean[0]), float(mean[1]))


def grid_posterior_reference(output: SchemeOutput, grid: Grid) -> np.ndarray:
    """``SchemeOutput.grid_posterior`` through the reference rasterizers."""
    if output.samples is not None and len(output.samples) > 0:
        return histogram_posterior_reference(grid, output.samples, output.sample_weights)
    return gaussian_posterior_reference(grid, output.position, max(output.spread, 1.0))


def bma_mixture_reference(
    grid: Grid,
    outputs: dict[str, SchemeOutput | None],
    weights: dict[str, float],
) -> np.ndarray:
    """Pre-in-place BMA mixture: a scaled copy per scheme, summed into zeros."""
    mixture = np.zeros(grid.n_cells)
    for name, weight in weights.items():
        output = outputs.get(name)
        if output is None or weight <= 0.0:
            continue
        mixture += weight * grid_posterior_reference(output, grid)
    return mixture
