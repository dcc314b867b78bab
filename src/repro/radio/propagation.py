"""RF propagation: log-distance path loss with shadowing and wall loss.

The received signal strength (RSSI) seen by the fingerprinting schemes is
produced by the classic log-distance path-loss model

    RSSI(d) = P_tx - PL(d0) - 10 n log10(d / d0) - walls * L_wall - S(x, y)

plus zero-mean temporal noise added per measurement by the sensor layer.
``S(x, y)`` is a *static, spatially correlated* shadowing field, realized
as a deterministic sum of sinusoids seeded per transmitter: this is what
makes fingerprints informative (the field is stable between the offline
survey and online queries made "within half an hour", §III-B) while still
varying across space.

A recorded walk evaluates the model for every (moment, transmitter) pair
at once: :meth:`PropagationModel.free_loss_db` and
:meth:`PropagationModel.shadowing_db` give the wall-free parts as
``(n, T)`` arrays, and :meth:`PropagationModel.received_dbm` charges the
walls afterwards, in the order :meth:`PropagationModel.path_loss_db`
does, so the result is the one-pair arithmetic bit for bit.

The EZ [4] model-based localization the paper discusses (log-distance +
trilateration) is implemented on top of the same model in
:mod:`repro.schemes.model_based` as an extension.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.radio.transmitters import Transmitter

__all__ = [
    "REFERENCE_DISTANCE_M",
    "wave_bank",
    "PropagationModel",
    "TransmitterField",
    "WIFI_MODEL",
    "CELLULAR_MODEL",
    "WIFI_SENSITIVITY_DBM",
    "CELL_SENSITIVITY_DBM",
]

#: Reference distance for the path-loss model, meters.
REFERENCE_DISTANCE_M = 1.0

#: Number of plane waves in one transmitter's shadowing bank.
N_SHADOWING_WAVES = 6

#: Sum of n independent unit sinusoids has variance n/2; normalize by it.
_WAVE_NORM = math.sqrt(N_SHADOWING_WAVES / 2.0)


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

    A fresh ``default_rng(tx_seed)`` yields the wave angles, then the
    phases, each uniform over ``[0, 2*pi)``: the same draws
    :func:`repro.bench.baselines.shadowing_db_reference` makes on every
    call, made here once per seed.  :meth:`TransmitterField.pack` stacks
    the banks of a deployment.
    """
    rng = np.random.default_rng(tx_seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=N_SHADOWING_WAVES)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=N_SHADOWING_WAVES)
    phases.setflags(write=False)
    cos_angles = np.cos(angles)
    sin_angles = np.sin(angles)
    cos_angles.setflags(write=False)
    sin_angles.setflags(write=False)
    return WaveBank(cos_angles=cos_angles, sin_angles=sin_angles, phases=phases)


def _rows(rows: list[Any], width: int) -> np.ndarray:
    """Return ``rows`` as a read-only ``(len(rows), width)`` array."""
    packed = np.array(rows, dtype=float).reshape(-1, width)
    packed.setflags(write=False)
    return packed


@dataclass(frozen=True)
class TransmitterField:
    """One technology's transmitters, packed for one numpy pass per point.

    Row ``t`` of every array belongs to ``identifiers[t]``; the wave
    arrays are ``(T, N_SHADOWING_WAVES)``, row ``t`` being the
    :func:`wave_bank` of that transmitter's seed.  All arrays are
    read-only.

    Attributes:
        identifiers: transmitter identifiers, in deployment order.
        positions: ``(T, 2)`` transmitter coordinates.
        cos_angles, sin_angles: wave direction vectors.
        phases: wave phase offsets, radians.
    """

    identifiers: tuple[str, ...]
    positions: np.ndarray
    cos_angles: np.ndarray
    sin_angles: np.ndarray
    phases: np.ndarray

    @classmethod
    def pack(cls, transmitters: Sequence[Transmitter]) -> "TransmitterField":
        """Pack ``transmitters`` (any number, none included)."""
        banks = [wave_bank(tx.seed) for tx in transmitters]
        return cls(
            identifiers=tuple(tx.identifier for tx in transmitters),
            positions=_rows([[tx.position.x, tx.position.y] for tx in transmitters], 2),
            cos_angles=_rows([b.cos_angles for b in banks], N_SHADOWING_WAVES),
            sin_angles=_rows([b.sin_angles for b in banks], N_SHADOWING_WAVES),
            phases=_rows([b.phases for b in banks], N_SHADOWING_WAVES),
        )

    def __len__(self) -> int:
        return len(self.identifiers)


@dataclass(frozen=True)
class PropagationModel:
    """Log-distance path loss parameters for one radio technology.

    Attributes:
        tx_power_dbm: transmitter EIRP.
        pl0_db: path loss at the reference distance (1 m).
        exponent: path-loss exponent ``n`` (2 free space, ~3 indoors).
        wall_loss_db: attenuation charged per wall crossed.
        shadowing_sigma_db: amplitude of the static shadowing field.
        shadowing_scale_m: spatial correlation length of the field.
    """

    tx_power_dbm: float
    pl0_db: float
    exponent: float
    wall_loss_db: float
    shadowing_sigma_db: float
    shadowing_scale_m: float

    def __post_init__(self) -> None:
        # The radio pass skips the wall count of a transmitter that is
        # inaudible through no walls; that holds only while walls can
        # take signal away and never add it.
        if not self.wall_loss_db >= 0.0:
            raise ValueError("wall_loss_db must be non-negative")

    def path_loss_db(self, distance_m: float, walls: int = 0) -> float:
        """Return deterministic path loss at ``distance_m`` through ``walls``.

        The wall term is added last, so the loss through ``walls`` is
        exactly ``path_loss_db(distance_m) + walls * wall_loss_db``: the
        radio pass adds walls to a wall-free loss computed before it
        knows them.
        """
        d = max(distance_m, REFERENCE_DISTANCE_M)
        return (
            self.pl0_db
            + 10.0 * self.exponent * math.log10(d / REFERENCE_DISTANCE_M)
            + walls * self.wall_loss_db
        )

    def free_loss_db(
        self, xs: Sequence[float], ys: Sequence[float], field: TransmitterField
    ) -> np.ndarray:
        """Return the wall-free path loss of every (point, transmitter) pair.

        ``xs`` and ``ys`` are the ``n`` points' coordinates; the result is
        ``(n, T)``.  It runs per pair on plain floats: ``math.hypot`` and
        ``math.log10`` round differently from their numpy twins on a
        small share of inputs, so a vectorized form would not reproduce
        the recorded traces.
        """
        loss = self.path_loss_db
        positions = field.positions.tolist()
        return np.array(
            [
                loss(math.hypot(tx_x - x, tx_y - y))
                for x, y in zip(xs, ys)
                for tx_x, tx_y in positions
            ]
        ).reshape(len(xs), len(field))

    def received_dbm(
        self,
        free_loss_db: np.ndarray,
        shadowing_db: np.ndarray,
        walls: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return the noise-free RSSI from its parts, elementwise.

        ``walls`` holds the walls crossed by each ray (none when
        omitted); each is charged on top of the wall-free loss, in the
        order :meth:`path_loss_db` charges it.
        """
        loss = free_loss_db
        if walls is not None:
            loss = loss + walls * self.wall_loss_db
        return self.tx_power_dbm - loss - shadowing_db

    def mean_rssi_dbm(
        self,
        x: float,
        y: float,
        field: TransmitterField,
        walls: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return the noise-free RSSI at ``(x, y)`` of every transmitter.

        The one-point case of :meth:`free_loss_db`, :meth:`shadowing_db`
        and :meth:`received_dbm`; ``walls`` holds the walls crossed by
        each transmitter's ray (none when omitted).
        """
        free_loss = self.free_loss_db([x], [y], field)[0]
        return self.received_dbm(free_loss, self.shadowing_db(x, y, field), walls)

    def shadowing_db(
        self, x: float | np.ndarray, y: float | np.ndarray, field: TransmitterField
    ) -> np.ndarray:
        """Return the static shadowing of every transmitter at ``(x, y)``.

        Each transmitter's seed fixes the phases and direction vectors of
        a small bank of plane-wave sinusoids (:func:`wave_bank`).  The
        result is smooth over ``shadowing_scale_m`` and reproducible for
        any query point, which is what fingerprinting needs (the field is
        the fingerprint).  A point gives a ``(T,)`` row; ``(n,)``
        coordinate arrays give ``(n, T)``, one ``np.sin`` pass over
        ``(n, T, N_SHADOWING_WAVES)``.  Each row sums its waves in the
        same order as a single bank would.
        """
        x = np.asarray(x, dtype=float)[..., None, None]
        y = np.asarray(y, dtype=float)[..., None, None]
        if self.shadowing_sigma_db <= 0.0:
            points = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
            return np.zeros(points + (len(field),))
        wavenumber = 2.0 * math.pi / self.shadowing_scale_m
        arg = (
            wavenumber * (x * field.cos_angles + y * field.sin_angles)
            + field.phases
        )
        return self.shadowing_sigma_db * np.sin(arg).sum(axis=-1) / _WAVE_NORM

    def distance_for_rssi(self, rssi_dbm: float) -> float:
        """Invert the deterministic model: distance implied by an RSSI.

        Ignores walls and shadowing — this is exactly the approximation the
        EZ-style model-based localization makes, and the source of its
        error.
        """
        loss = self.tx_power_dbm - rssi_dbm - self.pl0_db
        return REFERENCE_DISTANCE_M * 10.0 ** (loss / (10.0 * self.exponent))


#: Indoor-ish Wi-Fi at 2.4 GHz.
WIFI_MODEL = PropagationModel(
    tx_power_dbm=18.0,
    pl0_db=40.0,
    exponent=2.8,
    wall_loss_db=5.0,
    shadowing_sigma_db=4.0,
    shadowing_scale_m=12.0,
)

#: Macro-cell GSM: much stronger, much smoother over campus scales —
#: which is exactly why cellular fingerprinting is coarse: the field
#: changes slowly, so nearby locations look alike.
CELLULAR_MODEL = PropagationModel(
    tx_power_dbm=43.0,
    pl0_db=38.0,
    exponent=3.2,
    wall_loss_db=8.0,
    shadowing_sigma_db=7.0,
    shadowing_scale_m=55.0,
)

#: Minimum receivable power: below this a transmitter is not audible.
WIFI_SENSITIVITY_DBM = -90.0
CELL_SENSITIVITY_DBM = -110.0
