"""Scheme confidence from predicted error (paper Eq. 2).

When a scheme produces an estimate at time ``t``, its localization error
is predicted as a Gaussian variable ``Y_t ~ N(mu_t, sigma_eps)`` where
``mu_t`` comes from the error model (Eq. 6) and ``sigma_eps`` from the
regression residual.  The confidence in the scheme is the probability
that its error is below an adaptive threshold ``tau``:

    c_t = P(Y_t <= tau)

with ``tau`` set at every location to the *average predicted error of all
available schemes* — so confidences always discriminate between schemes
even when all errors are large or all are small.
"""

from __future__ import annotations

import math


def confidence(predicted_error: float, residual_std: float, tau: float) -> float:
    """Return ``P(Y <= tau)`` for ``Y ~ N(predicted_error, residual_std)``.

    A zero (or pathological) residual deviation degenerates to a hard
    comparison of the predicted error with the threshold.

    Raises:
        ValueError: if ``residual_std`` is negative.
    """
    if residual_std < 0.0:
        raise ValueError("residual_std must be non-negative")
    if residual_std == 0.0 or not math.isfinite(residual_std):
        return 1.0 if predicted_error <= tau else 0.0
    z = (tau - predicted_error) / residual_std
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def adaptive_threshold(predicted_errors: list[float]) -> float:
    """Return tau: the mean predicted error over the available schemes.

    Raises:
        ValueError: if no scheme is available.
    """
    if not predicted_errors:
        raise ValueError("tau is undefined with no available schemes")
    return sum(predicted_errors) / len(predicted_errors)


def normalized_weights(confidences: dict[str, float]) -> dict[str, float]:
    """Return BMA weights ``w_n = c_n / sum(c)`` (paper Eq. 5).

    Schemes with zero confidence get zero weight; if *every* confidence is
    zero (numerically possible when all predicted errors are far above
    tau), the weights fall back to uniform over the available schemes so
    the ensemble still produces an estimate.
    """
    total = sum(confidences.values())
    if total <= 0.0:
        n = len(confidences)
        if n == 0:
            return {}
        return {name: 1.0 / n for name in confidences}
    return {name: c / total for name, c in confidences.items()}

