"""Weibull (power-law) nonhomogeneous Poisson process failure model.

The Weibull process models pipe failures as a NHPP with intensity
``λ(t) = α·β·t^(β−1)`` in pipe age ``t`` (Constantine 1996; Ibrahim et al.
2005), so the expected number of failures in an age window ``(a, b]`` is
``α·(b^β − a^β)``. Covariates act multiplicatively, Cox-style:

    E[N_i(a, b]] = (b^β − a^β) · exp(γᵀz_i)            (α folded into γ₀)

Fitting profiles the shape ``β``: for a fixed β the model is a Poisson GLM
with offset ``log(b^β − a^β)``, solved exactly by IRLS; the outer 1-D
problem over β is solved by golden-section search on the profiled
likelihood.

A unit's covariates do not change between its windows, so the GLM never
needs one row per window. Per unit it sees the failure total ``Y_i`` and
the summed exposure ``E_i = Σ_j (b_ij^β − a_ij^β)``: the score equations
and Hessian of the stacked Poisson likelihood are the same sums. The
stacked log-likelihood is the per-unit one plus ``Σ y_ij log e_ij −
Σ_i Y_i log E_i``, which only failing windows contribute to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ml.glm import PoissonRegression


def _weibull_exposure(age_start: np.ndarray, age_end: np.ndarray, shape: float) -> np.ndarray:
    """``b^β − a^β`` with a floor that keeps the GLM offset finite."""
    a = np.maximum(np.asarray(age_start, dtype=float), 0.0)
    b = np.maximum(np.asarray(age_end, dtype=float), a + 1e-9)
    return np.maximum(b**shape - a**shape, 1e-9)


@dataclass
class WeibullNHPP:
    """Power-law NHPP with multiplicative covariates.

    Training data is one row per *unit*: its covariates, and its failure
    counts and ages at the start and end of each exposure window, shaped
    (units × windows). One-dimensional counts and ages are one window per
    unit.
    """

    l2: float = 1e-4
    shape_bounds: tuple[float, float] = (0.2, 6.0)
    shape_: float | None = None
    glm_: PoissonRegression | None = None

    def fit(
        self,
        X: np.ndarray,
        counts: np.ndarray,
        age_start: np.ndarray,
        age_end: np.ndarray,
    ) -> "WeibullNHPP":
        X = np.asarray(X, dtype=float)
        counts, age_start, age_end = (
            np.asarray(v, dtype=float) for v in (counts, age_start, age_end)
        )
        if counts.ndim == 1:  # one window per unit
            counts, age_start, age_end = counts[:, None], age_start[:, None], age_end[:, None]
        if not (counts.shape == age_start.shape == age_end.shape == (X.shape[0], counts.shape[1])):
            raise ValueError("X, counts and age windows must align")
        totals = counts.sum(axis=1)
        failing = counts > 0
        failing_counts = counts[failing]

        def profiled_negloglik(shape: float) -> tuple[float, PoissonRegression]:
            exposure = _weibull_exposure(age_start, age_end, shape)
            # Summed row by row, not telescoped: each window's exposure is
            # floored on its own (windows before a unit was laid).
            unit_exposure = exposure.sum(axis=1)
            glm = PoissonRegression(l2=self.l2).fit(X, totals, exposure=unit_exposure)
            rate = glm.predict_rate(X)
            ll = float(
                failing_counts @ np.log(exposure[failing])
                + totals @ np.log(rate)
                - unit_exposure @ rate
            )
            return -ll, glm

        # Golden-section search over the shape.
        lo, hi = self.shape_bounds
        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        fc, glm_c = profiled_negloglik(c)
        fd, glm_d = profiled_negloglik(d)
        for _ in range(40):
            if fc < fd:
                hi, d, fd, glm_d = d, c, fc, glm_c
                c = hi - invphi * (hi - lo)
                fc, glm_c = profiled_negloglik(c)
            else:
                lo, c, fc, glm_c = c, d, fd, glm_d
                d = lo + invphi * (hi - lo)
                fd, glm_d = profiled_negloglik(d)
            if hi - lo < 1e-4:
                break
        if fc < fd:
            self.shape_, self.glm_ = c, glm_c
        else:
            self.shape_, self.glm_ = d, glm_d
        return self

    def expected_failures(
        self, X: np.ndarray, age_start: np.ndarray, age_end: np.ndarray
    ) -> np.ndarray:
        """``E[N(a, b]]`` per row — the ranking score for a future window."""
        if self.shape_ is None or self.glm_ is None:
            raise RuntimeError("model used before fit()")
        exposure = _weibull_exposure(age_start, age_end, self.shape_)
        return self.glm_.predict_rate(X, exposure=exposure)
