"""UniLoc core: error modeling, confidence, ensemble, framework."""

from repro.core.baselines import ALocSelector, GlobalWeightBma, OfflineErrorMap
from repro.core.confidence import adaptive_threshold, confidence, normalized_weights
from repro.core.error_model import ErrorModelSet, LinearErrorModel, RegressionSummary
from repro.core.features import (
    FeatureContext,
    FeatureExtractor,
    FingerprintFeatures,
    FusionFeatures,
    GpsFeatures,
    MotionFeatures,
)
from repro.core.framework import (
    SchemeBundle,
    SchemeHealth,
    StepDecision,
    UniLocFramework,
)
from repro.core.hmm import SecondOrderHmm
from repro.core.kalman import KalmanLocationPredictor
from repro.core.iodetector import IODetector
from repro.core.oracle import OracleSelection, select_best
from repro.core.training import ErrorModelTrainer, TrainingSample

__all__ = [
    "ALocSelector",
    "ErrorModelSet",
    "GlobalWeightBma",
    "OfflineErrorMap",
    "ErrorModelTrainer",
    "FeatureContext",
    "FeatureExtractor",
    "FingerprintFeatures",
    "FusionFeatures",
    "GpsFeatures",
    "IODetector",
    "KalmanLocationPredictor",
    "LinearErrorModel",
    "MotionFeatures",
    "OracleSelection",
    "RegressionSummary",
    "SchemeBundle",
    "SchemeHealth",
    "SecondOrderHmm",
    "StepDecision",
    "TrainingSample",
    "UniLocFramework",
    "adaptive_threshold",
    "confidence",
    "normalized_weights",
    "select_best",
]
