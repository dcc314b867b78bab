"""Multiple linear regression error models (paper §III).

For one localization scheme, the localization error is modeled as

    y_i = b0 + b1 x_1i + ... + bp x_pi + eps_i        (paper Eq. 1)

where the ``x`` are sensor-data influence factors (Table I) and the
residual ``eps`` is Gaussian with mean ~0 and deviation ``sigma_eps``.
The paper forces the intercept ``b0`` to zero for every scheme except
GPS, whose outdoor model is intercept-only (13.5 m +/- 9.4 m).

The fit is ordinary least squares with the standard diagnostics the
paper's Table II reports: coefficient p-values (t-test against zero),
R-squared, and the residual Gaussian parameters used later for the
confidence computation (Eq. 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RegressionSummary:
    """Diagnostics of one fitted error model (one row block of Table II).

    Attributes:
        coefficients: fitted betas, ordered like ``feature_names``
            (intercept last when fitted).
        p_values: per-coefficient p-values for H0: beta = 0.
        residual_mean: mean of the regression residuals (mu_eps).
        residual_std: deviation of the residuals (sigma_eps).
        r_squared: fraction of error variance the model explains.
        n_samples: training-set size.
    """

    coefficients: tuple[float, ...]
    p_values: tuple[float, ...]
    residual_mean: float
    residual_std: float
    r_squared: float
    n_samples: int


@dataclass
class LinearErrorModel:
    """An OLS error model over named sensor-data features.

    Attributes:
        feature_names: ordered influence-factor names; at prediction time
            feature dicts are projected onto this order.
        fit_intercept: include an intercept term (only the GPS model does;
            the paper argues the error is zero when all factors are zero).
    """

    feature_names: tuple[str, ...]
    fit_intercept: bool = False
    _beta: np.ndarray | None = field(default=None, repr=False)
    _summary: RegressionSummary | None = field(default=None, repr=False)

    @property
    def is_fitted(self) -> bool:
        """Return True once :meth:`fit` has run."""
        return self._beta is not None

    @property
    def summary(self) -> RegressionSummary:
        """Return the fit diagnostics.

        Raises:
            RuntimeError: if the model has not been fitted.
        """
        if self._summary is None:
            raise RuntimeError("error model has not been fitted")
        return self._summary

    def _design_matrix(self, features: np.ndarray) -> np.ndarray:
        """Append the intercept column to ``(n, p)`` features when configured."""
        if not self.fit_intercept:
            return features
        ones = np.ones((features.shape[0], 1))
        return np.hstack([features, ones])

    def fit(
        self,
        features: np.ndarray,
        errors: np.ndarray,
    ) -> RegressionSummary:
        """Fit the model by ordinary least squares.

        Args:
            features: ``(n, p)`` matrix of influence-factor values; ``p``
                must equal ``len(feature_names)`` (and may be zero for an
                intercept-only model).
            errors: ``(n,)`` measured localization errors in meters.

        Returns:
            The fit diagnostics (also stored on the model).

        Raises:
            ValueError: on shape mismatch or too few samples.
        """
        features = np.asarray(features, dtype=float)
        errors = np.asarray(errors, dtype=float)
        if features.ndim != 2 or features.shape[1] != len(self.feature_names):
            raise ValueError(
                f"features must be (n, {len(self.feature_names)}), got {features.shape}"
            )
        if errors.shape[0] != features.shape[0]:
            raise ValueError("features and errors must have matching lengths")
        n = features.shape[0]
        x = self._design_matrix(features)
        p = x.shape[1]
        if n <= p + 1:
            raise ValueError(f"need more than {p + 1} samples, got {n}")

        if p == 0:
            # Degenerate (no features, no intercept): predict zero.
            beta = np.zeros(0)
            residuals = errors
        else:
            beta, *_ = np.linalg.lstsq(x, errors, rcond=None)
            residuals = errors - x @ beta

        dof = max(n - p, 1)
        sigma2 = float(residuals @ residuals) / dof
        if p > 0:
            # Only fitting needs SciPy: walkers load fitted models and
            # step on numpy alone.
            from scipy import stats

            xtx_inv = np.linalg.pinv(x.T @ x)
            se = np.sqrt(np.maximum(np.diag(xtx_inv) * sigma2, 1e-24))
            t_stats = beta / se
            p_values = 2.0 * stats.t.sf(np.abs(t_stats), dof)
        else:
            p_values = np.zeros(0)

        total_ss = float(((errors - errors.mean()) ** 2).sum())
        resid_ss = float((residuals**2).sum())
        r_squared = 1.0 - resid_ss / total_ss if total_ss > 0.0 else 0.0

        self._beta = beta
        self._summary = RegressionSummary(
            coefficients=tuple(float(b) for b in beta),
            p_values=tuple(float(v) for v in p_values),
            residual_mean=float(residuals.mean()) if n else 0.0,
            residual_std=float(np.sqrt(sigma2)),
            r_squared=float(r_squared),
            n_samples=n,
        )
        return self._summary

    def predict(self, features: dict[str, float]) -> float:
        """Predict the localization error for one feature dict (Eq. 6).

        Missing features raise, extra features are ignored.  The prediction
        is clamped at zero — a negative predicted error is meaningless.

        Raises:
            RuntimeError: if the model is unfitted.
            KeyError: if a required feature is missing.
        """
        if self._beta is None:
            raise RuntimeError("error model has not been fitted")
        values = [features[name] for name in self.feature_names]
        x = np.asarray(values, dtype=float)
        if self.fit_intercept:
            x = np.append(x, 1.0)
        return max(float(x @ self._beta), 0.0)



    def to_dict(self) -> dict:
        """Serialize the model (including fitted state) to plain data.

        The paper's workflow trains models once and reuses them across
        places and sessions; serialization is what makes "once" real in a
        deployment.
        """
        payload = {
            "feature_names": list(self.feature_names),
            "fit_intercept": self.fit_intercept,
        }
        if self._beta is not None and self._summary is not None:
            payload["beta"] = [float(b) for b in self._beta]
            payload["summary"] = {
                "coefficients": list(self._summary.coefficients),
                "p_values": list(self._summary.p_values),
                "residual_mean": self._summary.residual_mean,
                "residual_std": self._summary.residual_std,
                "r_squared": self._summary.r_squared,
                "n_samples": self._summary.n_samples,
            }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "LinearErrorModel":
        """Rebuild a model from :meth:`to_dict` output.

        Raises:
            KeyError: if required keys are missing.
        """
        model = cls(
            feature_names=tuple(payload["feature_names"]),
            fit_intercept=bool(payload["fit_intercept"]),
        )
        if "beta" in payload:
            model._beta = np.asarray(payload["beta"], dtype=float)
            s = payload["summary"]
            model._summary = RegressionSummary(
                coefficients=tuple(s["coefficients"]),
                p_values=tuple(s["p_values"]),
                residual_mean=float(s["residual_mean"]),
                residual_std=float(s["residual_std"]),
                r_squared=float(s["r_squared"]),
                n_samples=int(s["n_samples"]),
            )
        return model

    @property
    def residual_std(self) -> float:
        """Return sigma_eps, the residual deviation used by Eq. 2."""
        return self.summary.residual_std


@dataclass
class ErrorModelSet:
    """A scheme's indoor and outdoor error models (paper §III-A).

    Most schemes behave so differently indoors and outdoors that the paper
    trains the two contexts separately; a scheme that only exists in one
    context (GPS outdoors) may reuse one model for both.
    """

    indoor: LinearErrorModel
    outdoor: LinearErrorModel

    def for_context(self, indoor: bool) -> LinearErrorModel:
        """Return the model matching the indoor/outdoor context."""
        return self.indoor if indoor else self.outdoor
