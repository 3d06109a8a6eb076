"""Poisson regression fitted by Newton–Raphson (iteratively reweighted least squares).

:class:`PoissonRegression` is the log-linear failure-count model; it
supplies the multiplicative covariate factor ``exp(bᵀz)`` that the Weibull
NHPP and the Bayesian models apply (the paper applies features
"multiplicatively, similar to the Cox proportional hazards model"). It
supports L2 regularisation and an offset (log-exposure) term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .preprocessing import add_intercept


@dataclass
class PoissonRegression:
    """L2-regularised Poisson log-linear model with optional exposure offset.

    ``E[y | x] = exposure · exp(βᵀx)``; fitted by Newton–Raphson with a
    step-halving line search on the penalised log likelihood.
    """

    l2: float = 1e-4
    max_iter: int = 100
    tol: float = 1e-8
    fit_intercept: bool = True
    coef_: np.ndarray | None = None

    def fit(
        self, X: np.ndarray, y: np.ndarray, exposure: np.ndarray | None = None
    ) -> "PoissonRegression":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if np.any(y < 0):
            raise ValueError("counts must be non-negative")
        if exposure is not None and np.any(np.asarray(exposure) <= 0):
            raise ValueError("exposure must be positive")
        offset = np.zeros(len(y)) if exposure is None else np.log(np.asarray(exposure, float))
        if self.fit_intercept:
            X = add_intercept(X)
        n, d = X.shape
        beta = np.zeros(d)
        # A sensible intercept start: overall log rate.
        if self.fit_intercept:
            total_exposure = float(np.exp(offset).sum())
            beta[0] = np.log(max(y.sum(), 0.5) / total_exposure)
        reg = self.l2 * np.eye(d)
        if self.fit_intercept:
            reg[0, 0] = 0.0

        def penalised_ll(b: np.ndarray) -> float:
            eta = np.clip(X @ b + offset, -30, 30)
            pen = self.l2 * float(
                _maybe_mask_intercept(b, self.fit_intercept) @ b
            )
            return float(y @ eta - np.exp(eta).sum()) - 0.5 * pen

        current = penalised_ll(beta)
        for _ in range(self.max_iter):
            eta = np.clip(X @ beta + offset, -30, 30)
            mu = np.exp(eta)
            grad = X.T @ (y - mu) - self.l2 * _maybe_mask_intercept(beta, self.fit_intercept)
            hess = X.T @ (X * mu[:, None]) + reg
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, grad, rcond=None)[0]
            # Step halving keeps Newton safe far from the optimum.
            scale = 1.0
            for _halving in range(30):
                candidate = beta + scale * step
                cand_ll = penalised_ll(candidate)
                if cand_ll >= current - 1e-12:
                    break
                scale *= 0.5
            beta = beta + scale * step
            new_ll = penalised_ll(beta)
            if abs(new_ll - current) < self.tol * (abs(current) + 1.0):
                current = new_ll
                break
            current = new_ll
        self.coef_ = beta
        return self

    def predict_rate(self, X: np.ndarray, exposure: np.ndarray | None = None) -> np.ndarray:
        """Expected counts ``exposure · exp(βᵀx)``."""
        beta = self._require_fit()
        X = np.asarray(X, dtype=float)
        if self.fit_intercept:
            X = add_intercept(X)
        eta = np.clip(X @ beta, -30, 30)
        rate = np.exp(eta)
        if exposure is not None:
            rate = rate * np.asarray(exposure, dtype=float)
        return rate

    def covariate_factor(self, X: np.ndarray) -> np.ndarray:
        """Multiplicative factor ``exp(βᵀx)`` *excluding* the intercept.

        This is the paper's "features applied multiplicatively" modulation:
        a unitless relative-risk factor with mean ~1 across the training
        distribution of standardised features.
        """
        beta = self._require_fit()
        X = np.asarray(X, dtype=float)
        slope = beta[1:] if self.fit_intercept else beta
        return np.exp(np.clip(X @ slope, -30, 30))

    def _require_fit(self) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model used before fit()")
        return self.coef_


def _maybe_mask_intercept(beta: np.ndarray, has_intercept: bool) -> np.ndarray:
    if not has_intercept:
        return beta
    masked = beta.copy()
    masked[0] = 0.0
    return masked
