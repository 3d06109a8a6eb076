"""Evaluation metrics: AUC, detection curves, budget-restricted AUC.

The paper's two headline numbers per (model, region):

* **AUC (100%)** — area under the detection curve over the full
  inspection range (equivalently the ROC AUC of the pipe ranking against
  test-year failure labels);
* **AUC (1%)** — area under the detection curve restricted to the first
  1% of inspections (reported in ‱, i.e. units of 1/10,000): the metric
  that matters under the real budget constraint of inspecting ~1% of
  critical mains a year.

Detection curves support weighting the x-axis by pipe length ("1% of pipe
network length inspected", Fig. 18.8) instead of pipe count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The rank-sum machinery lives in exactly one place —
# ``repro.core.ranking.objective`` — and is re-exported here so evaluation
# code and ranking code share the same implementation.
from ..core.ranking.objective import empirical_auc, midranks

__all__ = [
    "empirical_auc",
    "midranks",
    "DetectionCurve",
    "detection_curve",
    "auc_at_budget",
    "permyriad",
]


@dataclass(frozen=True)
class DetectionCurve:
    """Cumulative detection curve.

    ``inspected[i]`` — fraction of the network inspected (by count or
    length) after the ``i``-th ranked pipe; ``detected[i]`` — fraction of
    all test failures found so far. Both start implicitly at (0, 0).
    """

    inspected: np.ndarray
    detected: np.ndarray

    def detected_at(self, budget: float) -> float:
        """Fraction of failures detected when ``budget`` is inspected."""
        if not 0 <= budget <= 1:
            raise ValueError("budget must be in [0, 1]")
        x = np.concatenate([[0.0], self.inspected])
        y = np.concatenate([[0.0], self.detected])
        return float(np.interp(budget, x, y))

    def area(self, budget: float = 1.0) -> float:
        """Area under the curve over ``[0, budget]`` (trapezoidal)."""
        if not 0 < budget <= 1:
            raise ValueError("budget must be in (0, 1]")
        x = np.concatenate([[0.0], self.inspected])
        y = np.concatenate([[0.0], self.detected])
        keep = x <= budget
        xs = np.concatenate([x[keep], [budget]])
        ys = np.concatenate([y[keep], [self.detected_at(budget)]])
        return float(np.trapezoid(ys, xs))


def detection_curve(
    scores: np.ndarray,
    labels: np.ndarray,
    lengths: np.ndarray | None = None,
    seed: int = 0,
) -> DetectionCurve:
    """Detection curve of a ranking against binary failure labels.

    Pipes are inspected in descending score order (ties broken by a fixed
    random shuffle so that constant-score models don't inherit a lucky
    input ordering). When ``lengths`` is given, the x-axis is the fraction
    of total network *length* inspected, else the fraction of pipe count.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float).ravel()
    if scores.shape[0] != labels.shape[0]:
        raise ValueError("scores and labels must align")
    total_pos = labels.sum()
    if total_pos == 0:
        raise ValueError("no failures to detect")
    rng = np.random.default_rng(seed)
    tiebreak = rng.permutation(scores.size)
    order = np.lexsort((tiebreak, -scores))
    if lengths is None:
        weights = np.ones(scores.size)
    else:
        weights = np.asarray(lengths, dtype=float)
        if weights.shape != scores.shape or np.any(weights < 0):
            raise ValueError("lengths must be non-negative and align with scores")
    inspected = np.cumsum(weights[order]) / weights.sum()
    detected = np.cumsum(labels[order]) / total_pos
    return DetectionCurve(inspected=inspected, detected=detected)


def auc_at_budget(
    scores: np.ndarray,
    labels: np.ndarray,
    budget: float = 0.01,
    lengths: np.ndarray | None = None,
) -> float:
    """Area under the detection curve restricted to ``[0, budget]``."""
    return detection_curve(scores, labels, lengths=lengths).area(budget)


def permyriad(value: float) -> float:
    """Express a fraction in ‱ (per ten thousand), the paper's 1%-AUC unit."""
    return value * 10_000.0
