"""Linear support vector machine trained with Pegasos (primal SGD).

Shalev-Shwartz et al.'s Pegasos solves the L2-regularised hinge-loss
objective with projected stochastic subgradient steps; for the pipe-failure
feature dimensionality (tens of columns) it converges in a few passes and
needs no QP machinery. Class imbalance — the defining property of failure
data — is handled with per-class example weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class LinearSVM:
    """Binary linear SVM (labels {0, 1}) with optional class balancing.

    Parameters
    ----------
    lam:
        L2 regularisation strength (Pegasos ``λ``).
    epochs:
        Passes over the data.
    balanced:
        When True, examples are weighted inversely to class frequency so
        that a 1%-positive failure dataset does not collapse to the
        majority class.
    """

    lam: float = 1e-3
    epochs: int = 20
    balanced: bool = True
    seed: int = 0
    fit_intercept: bool = True
    coef_: np.ndarray | None = None
    intercept_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVM":
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        X = np.asarray(X, dtype=float)
        y01 = np.asarray(y, dtype=float).ravel()
        if set(np.unique(y01)) - {0.0, 1.0}:
            raise ValueError("labels must be binary 0/1")
        y_pm = 2.0 * y01 - 1.0
        n, d = X.shape
        if self.balanced:
            n_pos = max(int(y01.sum()), 1)
            n_neg = max(n - n_pos, 1)
            weights = np.where(y01 == 1.0, n / (2.0 * n_pos), n / (2.0 * n_neg))
        else:
            weights = np.ones(n)
        rng = np.random.default_rng(self.seed)
        # Pegasos projection onto the ||w|| <= 1/sqrt(lam) ball.
        radius = 1.0 / math.sqrt(self.lam)
        w = np.zeros(d)
        b = 0.0
        t = 0
        for _ in range(self.epochs):
            for i in rng.permutation(n):
                t += 1
                eta = 1.0 / (self.lam * t)
                margin = y_pm[i] * (X[i].dot(w) + b)
                w *= 1.0 - eta * self.lam
                if margin < 1.0:
                    w += eta * weights[i] * y_pm[i] * X[i]
                    if self.fit_intercept:
                        b += eta * weights[i] * y_pm[i]
                norm = math.sqrt(w.dot(w))  # np.linalg.norm(w), bit for bit
                if norm > radius:
                    w *= radius / norm
        self.coef_ = w
        self.intercept_ = b
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed margin ``wᵀx + b``; larger means more failure-like."""
        if self.coef_ is None:
            raise RuntimeError("model used before fit()")
        return np.asarray(X, dtype=float) @ self.coef_ + self.intercept_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Hard 0/1 predictions."""
        return (self.decision_function(X) >= 0.0).astype(int)
