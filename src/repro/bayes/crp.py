"""Chinese restaurant process: the constructive view of the Dirichlet process.

Provides sequential partition sampling (paper Eq. 18.6), the exchangeable
partition probability function (EPPF) used to score partitions, the Gibbs
reseating weights used inside collapsed samplers, and the expected table
count (useful for choosing the concentration ``α``).
"""

from __future__ import annotations

import numpy as np


def sample_partition(n: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """Sequentially seat ``n`` customers with concentration ``alpha``.

    Returns a label vector of length ``n`` with cluster ids ``0..K-1``
    (appearance order). Customer ``l`` joins existing table ``r`` with
    probability ``n_r / (l + alpha)`` and a new table with probability
    ``alpha / (l + alpha)`` — paper Eq. 18.6.
    """
    _check_alpha(alpha)
    if n < 0:
        raise ValueError("n must be non-negative")
    labels = np.empty(n, dtype=np.int64)
    counts: list[float] = []
    for l in range(n):
        if l == 0:
            labels[0] = 0
            counts.append(1.0)
            continue
        weights = np.asarray(counts + [alpha])
        probs = weights / (l + alpha)
        choice = int(rng.choice(probs.size, p=probs))
        if choice == len(counts):
            counts.append(1.0)
        else:
            counts[choice] += 1.0
        labels[l] = choice
    return labels


def table_counts(labels: np.ndarray) -> np.ndarray:
    """Occupancy of each table, ordered by table id."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.bincount(labels)


def log_eppf(counts: np.ndarray, alpha: float) -> float:
    """Log probability of a partition with table occupancies ``counts``.

    The CRP's exchangeable partition probability function:
    ``α^K · Π_k (n_k − 1)! · Γ(α) / Γ(α + n)``. Invariant to customer
    order — the exchangeability property the paper leans on.
    """
    from scipy.special import gammaln  # here, not at import: no grid needs it

    _check_alpha(alpha)
    counts = np.asarray(counts, dtype=float)
    counts = counts[counts > 0]
    n = counts.sum()
    k = counts.size
    if n == 0:
        return 0.0
    return float(
        k * np.log(alpha)
        + np.sum(gammaln(counts))
        + gammaln(alpha)
        - gammaln(alpha + n)
    )


def gibbs_weights(counts: np.ndarray, alpha: float) -> np.ndarray:
    """Unnormalised prior reseating weights ``[n_1, …, n_K, α]``.

    For collapsed Gibbs sampling: remove the customer from its table first
    (so ``counts`` excludes it), multiply by per-table data likelihoods,
    normalise, and sample. The last entry is the new-table weight.
    """
    _check_alpha(alpha)
    counts = np.asarray(counts, dtype=float)
    if np.any(counts < 0):
        raise ValueError("table counts must be non-negative")
    return np.concatenate([counts, [alpha]])


def expected_tables(n: int, alpha: float) -> float:
    """``E[K] = Σ_{i=0}^{n-1} α / (α + i)`` — grows as ``α·log n``."""
    _check_alpha(alpha)
    if n < 0:
        raise ValueError("n must be non-negative")
    i = np.arange(n, dtype=float)
    return float(np.sum(alpha / (alpha + i)))


def alpha_for_expected_tables(n: int, target_tables: float) -> float:
    """Concentration whose expected table count is ``target_tables``.

    Solved by bisection; handy for setting a weakly informative ``α`` from
    a domain prior like "expect a few dozen pipe cohorts".
    """
    if n <= 1:
        raise ValueError("need at least two customers")
    if not 1.0 <= target_tables <= n:
        raise ValueError(f"target tables must lie in [1, {n}]")
    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if expected_tables(n, mid) < target_tables:
            lo = mid
        else:
            hi = mid
    return float(np.sqrt(lo * hi))


def relabel(labels: np.ndarray) -> np.ndarray:
    """Canonical relabelling: clusters numbered 0..K-1 by first appearance."""
    labels = np.asarray(labels)
    mapping: dict[int, int] = {}
    out = np.empty_like(labels)
    for i, lab in enumerate(labels):
        if lab not in mapping:
            mapping[int(lab)] = len(mapping)
        out[i] = mapping[int(lab)]
    return out


def _check_alpha(alpha: float) -> None:
    if alpha <= 0:
        raise ValueError(f"CRP concentration must be positive, got {alpha}")
