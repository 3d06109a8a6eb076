"""Ranking objective: the exact AUC criterion.

The data-mining formulation treats failure prediction as *ranking*: learn
a real-valued function ``H`` maximising

    Σ_{z ∈ P, z' ∈ N} I(H(z) > H(z'))  /  (|P|·|N|)

(the empirical AUC; Eq. 18.10 of the evaluation protocol), where ``P`` are
failure examples and ``N`` non-failures. The indicator makes the objective
piecewise constant, hence the derivative-free evolutionary optimiser in
:mod:`.evolutionary`.
"""

from __future__ import annotations

import numpy as np


def empirical_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Exact AUC of ``scores`` against binary ``labels`` (ties count 1/2).

    Computed with the rank-sum (Mann–Whitney) identity in O(n log n)
    rather than the literal O(|P|·|N|) double sum. Only the positives'
    ranks enter the sum, so one sort of the scores and two binary
    searches per positive give each one's tie block ``[lo, hi)`` and its
    :func:`midranks` value ``0.5·(lo + hi − 1) + 1``. Every term is a
    half-integer, so the sum is exact and equals the full-ranking one.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float).ravel()
    if scores.shape[0] != labels.shape[0]:
        raise ValueError("scores and labels must align")
    pos = labels == 1.0
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    ordered = np.sort(scores)
    pos_scores = scores[pos]
    lo = np.searchsorted(ordered, pos_scores, side="left")
    hi = np.searchsorted(ordered, pos_scores, side="right")
    rank_sum = float((0.5 * (lo + hi - 1) + 1.0).sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their block.

    The full ranking of ``x``; :func:`empirical_auc` computes the same
    values for the positives alone. Fully vectorized: tie blocks are the
    runs between change points of the sorted array, and each block's mean
    rank broadcasts back via ``np.repeat``.
    """
    x = np.asarray(x)
    n = x.size
    order = np.argsort(x, kind="mergesort")
    sorted_x = x[order]
    block_start = np.empty(n, dtype=bool)
    if n:
        block_start[0] = True
        np.not_equal(sorted_x[1:], sorted_x[:-1], out=block_start[1:])
    starts = np.flatnonzero(block_start)
    ends = np.append(starts[1:], n)  # exclusive block ends
    block_rank = 0.5 * (starts + ends - 1) + 1.0
    ranks = np.empty(n, dtype=float)
    ranks[order] = np.repeat(block_rank, ends - starts)
    return ranks
