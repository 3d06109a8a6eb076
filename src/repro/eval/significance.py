"""Statistical significance testing for model comparisons.

The paper evaluates significance with a one-sided paired t-test at the 5%
level on AUC values from repeated evaluations. Implemented from scratch
(t statistic and its p-value via the regularised incomplete beta
function), with the repeated-evaluation driver that produces the paired
samples: each repeat regenerates the region with a different seed and
re-fits every model, so the pairing is "same data, different model".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TTestResult:
    """Outcome of a paired t-test."""

    statistic: float
    p_value: float
    df: int
    mean_difference: float

    def significant(self, level: float = 0.05) -> bool:
        """True when the one-sided p-value is below ``level``."""
        return self.p_value < level


def t_sf(t: float, df: int) -> float:
    """Survival function of Student's t (P[T > t]) via incomplete beta."""
    from scipy.special import betainc  # here, not at import: no grid needs it

    if df < 1:
        raise ValueError("df must be >= 1")
    x = df / (df + t * t)
    tail = 0.5 * float(betainc(df / 2.0, 0.5, x))
    return tail if t >= 0 else 1.0 - tail


def paired_t_test(
    a: np.ndarray, b: np.ndarray, alternative: str = "greater"
) -> TTestResult:
    """Paired t-test of ``a`` against ``b``.

    ``alternative="greater"`` tests H1: mean(a − b) > 0 — "method a is
    better than method b" when larger is better (AUC). ``"two-sided"`` is
    also supported.
    """
    if alternative not in ("greater", "two-sided"):
        raise ValueError(f"unknown alternative {alternative!r}")
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError("paired samples must have equal length")
    n = a.size
    if n < 2:
        raise ValueError("need at least two pairs")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        # Degenerate: identical pairs ⇒ no evidence either way unless the
        # mean difference is itself nonzero (then it is infinitely strong).
        stat = np.inf if mean > 0 else (-np.inf if mean < 0 else 0.0)
        p = 0.0 if mean > 0 else 1.0
        if alternative == "two-sided":
            p = 0.0 if mean != 0 else 1.0
        return TTestResult(statistic=stat, p_value=p, df=n - 1, mean_difference=mean)
    stat = mean / (sd / np.sqrt(n))
    if alternative == "greater":
        p = t_sf(stat, n - 1)
    elif alternative == "two-sided":
        p = 2.0 * t_sf(abs(stat), n - 1)
    else:
        raise ValueError(f"unknown alternative {alternative!r}")
    return TTestResult(statistic=float(stat), p_value=float(p), df=n - 1, mean_difference=mean)
