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

The EZ [4] model-based localization the paper discusses (log-distance +
trilateration) is implemented on top of the same model in
:mod:`repro.schemes.model_based` as an extension.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.geometry import Point

__all__ = [
    "REFERENCE_DISTANCE_M",
    "wave_bank",
    "PropagationModel",
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
    call, made here once per seed.
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

    def path_loss_db(self, distance_m: float, walls: int = 0) -> float:
        """Return deterministic path loss at ``distance_m`` through ``walls``."""
        d = max(distance_m, REFERENCE_DISTANCE_M)
        return (
            self.pl0_db
            + 10.0 * self.exponent * math.log10(d / REFERENCE_DISTANCE_M)
            + walls * self.wall_loss_db
        )

    def mean_rssi_dbm(
        self, tx: Point, rx: Point, walls: int = 0, tx_seed: int = 0
    ) -> float:
        """Return the noise-free RSSI at ``rx`` from a transmitter at ``tx``."""
        distance = tx.distance_to(rx)
        return (
            self.tx_power_dbm
            - self.path_loss_db(distance, walls)
            - self.shadowing_db(rx, tx_seed)
        )

    def shadowing_db(self, rx: Point, tx_seed: int) -> float:
        """Return the static shadowing value at ``rx`` for one transmitter.

        A per-transmitter RNG seeds the phases and direction vectors of a
        small bank of plane-wave sinusoids.  The result is smooth over
        ``shadowing_scale_m`` and reproducible for any query point, which
        is what fingerprinting needs (the field is the fingerprint).

        The bank comes from the per-seed :func:`wave_bank` cache; the
        value is bit-identical to drawing it afresh on every call.
        """
        if self.shadowing_sigma_db <= 0.0:
            return 0.0
        bank = wave_bank(tx_seed)
        wavenumber = 2.0 * math.pi / self.shadowing_scale_m
        arg = (
            wavenumber * (rx.x * bank.cos_angles + rx.y * bank.sin_angles)
            + bank.phases
        )
        total = float(np.sin(arg).sum())
        return self.shadowing_sigma_db * total / _WAVE_NORM

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
