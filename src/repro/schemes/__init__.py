"""The individual localization schemes UniLoc aggregates."""

from repro.schemes.base import LocalizationScheme, Scheme, SchemeOutput
from repro.schemes.bootstrap import StartEstimate, ZeeBootstrap, bootstrap_start
from repro.schemes.cell_id import CellIdScheme
from repro.schemes.fingerprinting import (
    CellularScheme,
    FingerprintScheme,
    GaussianHorusScheme,
    HorusScheme,
    RadarScheme,
)
from repro.schemes.fusion import FusionScheme
from repro.schemes.gps_scheme import GpsScheme
from repro.schemes.model_based import ModelBasedScheme
from repro.schemes.particle_filter import ParticleFilter
from repro.schemes.pdr import PdrScheme, compensate_steps

__all__ = [
    "CellIdScheme",
    "CellularScheme",
    "GaussianHorusScheme",
    "StartEstimate",
    "ZeeBootstrap",
    "bootstrap_start",
    "FingerprintScheme",
    "FusionScheme",
    "GpsScheme",
    "HorusScheme",
    "LocalizationScheme",
    "ModelBasedScheme",
    "ParticleFilter",
    "PdrScheme",
    "RadarScheme",
    "Scheme",
    "SchemeOutput",
    "compensate_steps",
]
