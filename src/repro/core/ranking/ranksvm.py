"""RankSVM: pairwise hinge-loss ranking with a linear kernel.

The convex instantiation of the ranking objective: for every
(positive z, negative z') pair, penalise ``max(0, 1 − wᵀ(z − z'))``. This
is exactly an SVM on pair-difference vectors, trained here with Pegasos-
style stochastic subgradient steps over sampled pairs (the full pair set
is |P|·|N| and never materialised). The sampled pairs are differenced in
blocks bounded in bytes, so memory stays flat however many pairs are
drawn. The iterate is kept scaled by the step count (``w = u/t``), which
is the same Pegasos iteration in exact arithmetic without the per-step
shrink of every weight; in floating point it agrees with the textbook
loop to about 1e-13 relative.

This is the "SVM-based ranking approach ... with a linear kernel" the
evaluation protocol compares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Target size of one block of pair differences. Blocks are sized in
#: bytes, not pairs, so a wider feature matrix shrinks the block instead
#: of growing the peak RSS.
PAIR_BLOCK_BYTES = 1 << 16


@dataclass
class RankSVM:
    """Linear pairwise ranking SVM trained on sampled positive–negative pairs."""

    lam: float = 1e-3
    n_pairs: int = 50_000
    epochs: int = 3
    seed: int = 0
    coef_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RankSVM":
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be at least 1, got {self.n_pairs}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        pos_idx = np.flatnonzero(y == 1.0)
        neg_idx = np.flatnonzero(y != 1.0)
        if pos_idx.size == 0 or neg_idx.size == 0:
            raise ValueError("RankSVM needs both positive and negative examples")
        rng = np.random.default_rng(self.seed)
        d = X.shape[1]
        block = max(1, PAIR_BLOCK_BYTES // (8 * max(1, d)))
        lam = self.lam
        # Pegasos projection onto the ||w|| <= 1/sqrt(lam) ball.
        radius = 1.0 / math.sqrt(lam)
        # Pegasos shrinks all of w by 1 − 1/t every step. Carrying
        # u = t·w instead folds that shrink into t: the hinge test
        # (1 − 1/t)·w·diff < 1 becomes u·diff < t, an update
        # w += diff/(λt) becomes u += diff/λ, and the ball becomes
        # ||u|| <= radius·t. A step without an update is one dot product.
        u = np.zeros(d)
        t = 0
        for _ in range(self.epochs):
            p = rng.choice(pos_idx, size=self.n_pairs)
            n = rng.choice(neg_idx, size=self.n_pairs)
            for lo in range(0, self.n_pairs, block):
                for diff in X[p[lo : lo + block]] - X[n[lo : lo + block]]:
                    t += 1
                    # ``ndarray.dot`` is the same dot product as ``@`` at half
                    # the call cost; sqrt(u.dot(u)) is np.linalg.norm(u)'s
                    # own formula without its wrapper.
                    if u.dot(diff) < t:
                        u += diff / lam
                        # Only an update can leave the ball: without one,
                        # ||u|| stays put while radius·t grows.
                        norm = math.sqrt(u.dot(u))
                        if norm > radius * t:
                            u *= radius * t / norm
        self.coef_ = u / t
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Ranking scores ``wᵀx`` (only their order is meaningful)."""
        if self.coef_ is None:
            raise RuntimeError("model used before fit()")
        return np.asarray(X, dtype=float) @ self.coef_
