"""Radio substrate: propagation, transmitters, satellites, fingerprints.

Each fingerprint database flavour is one class that lowers its survey
to dense numpy matrices at construction and answers queries through
the :class:`~repro.radio.index.FingerprintIndex` protocol.
``PropagationModel`` evaluates every transmitter of a
``TransmitterField`` (one technology's deployment, packed once) at a
point in one numpy pass.
"""

from repro.radio.deployment import RadioEnvironment
from repro.radio.fingerprint import MISSING_RSSI_DBM, Fingerprint, FingerprintDatabase
from repro.radio.gaussian_fingerprint import (
    GaussianFingerprint,
    GaussianFingerprintDatabase,
    GaussianReading,
)
from repro.radio.index import FingerprintIndex, MatchCandidate
from repro.radio.propagation import (
    CELL_SENSITIVITY_DBM,
    CELLULAR_MODEL,
    WIFI_MODEL,
    WIFI_SENSITIVITY_DBM,
    PropagationModel,
    TransmitterField,
)
from repro.radio.satellites import (
    ELEVATION_MASK_DEG,
    MIN_SATELLITES_FOR_FIX,
    Constellation,
    Satellite,
)
from repro.radio.transmitters import (
    Transmitter,
    deploy_access_points,
    deploy_cell_towers,
)

__all__ = [
    "CELL_SENSITIVITY_DBM",
    "CELLULAR_MODEL",
    "ELEVATION_MASK_DEG",
    "MIN_SATELLITES_FOR_FIX",
    "MISSING_RSSI_DBM",
    "WIFI_MODEL",
    "WIFI_SENSITIVITY_DBM",
    "Constellation",
    "Fingerprint",
    "FingerprintDatabase",
    "FingerprintIndex",
    "GaussianFingerprint",
    "GaussianFingerprintDatabase",
    "GaussianReading",
    "MatchCandidate",
    "PropagationModel",
    "RadioEnvironment",
    "Satellite",
    "Transmitter",
    "TransmitterField",
    "deploy_access_points",
    "deploy_cell_towers",
]
