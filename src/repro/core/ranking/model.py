"""Ranking-based failure models (the data-mining method and its SVM variant).

The core formulation: rank pipes by a learned real-valued function so the
empirical AUC (Eq. 18.10) is maximised. Training uses *temporal
snapshots*: for each of the last ``n_snapshots`` training years ``y``, a
design matrix is built from information available before ``y`` and
labelled with year-``y`` failures — exactly the deployment situation of
scoring 2009 with data to 2008.

Three concrete models:

* :class:`AUCRankingModel` — linear scoring function, exact-AUC objective,
  optimised by an evolution strategy warm-started from RankSVM (the titled
  paper's "data mining method");
* :class:`SVMRankingModel` — the convex RankSVM instantiation with a
  linear kernel (the evaluation protocol's "SVM" comparator);
* :class:`SVMClassifierModel` — a plain class-balanced linear SVM
  classifier, included as a secondary baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...features.builder import ModelData
from ...ml.svm import LinearSVM
from ..base import FailureModel, ranking_features
from .evolutionary import EvolutionStrategy, OptimisationResult
from .objective import empirical_auc
from .ranksvm import RankSVM


def build_snapshots(data: ModelData, n_snapshots: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (X, y) over the last ``n_snapshots`` training years.

    Only snapshot years with at least one failure and one non-failure are
    kept (degenerate years teach a ranker nothing).
    """
    if n_snapshots < 1:
        raise ValueError("need at least one snapshot year")
    years = list(data.train_years)[-n_snapshots:]
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    year_col = {y: j for j, y in enumerate(data.train_years)}
    for y in years:
        labels = data.pipe_fail_train[:, year_col[y]].astype(float)
        if labels.sum() == 0 or labels.sum() == labels.size:
            continue
        xs.append(ranking_features(data, score_year=y))
        ys.append(labels)
    if not xs:
        raise ValueError("no usable snapshot years (no failures in recent training years)")
    return np.vstack(xs), np.concatenate(ys)


@dataclass
class AUCRankingModel(FailureModel):
    """Linear ranking function trained by direct AUC maximisation.

    A RankSVM warm start gives the evolution strategy a good basin; the
    evolutionary phase then squeezes the exact, non-smooth objective.
    """

    name: str = "AUC-Rank"
    n_snapshots: int = 5
    generations: int = 60
    population: int = 40
    seed: int = 0
    coef_: np.ndarray | None = None
    result_: OptimisationResult | None = field(default=None, repr=False)

    def fit(self, data: ModelData) -> "AUCRankingModel":
        X, y = build_snapshots(data, self.n_snapshots)
        dim = X.shape[1]

        def objective(w: np.ndarray) -> float:
            return empirical_auc(X @ w, y)

        x0 = RankSVM(seed=self.seed, n_pairs=20_000, epochs=2).fit(X, y).coef_
        norm = float(np.linalg.norm(x0))
        if norm > 0:
            x0 = x0 / norm
        search = EvolutionStrategy(
            population=self.population,
            parents=max(2, self.population // 4),
            generations=self.generations,
            seed=self.seed,
        )
        self.result_ = search.maximise(objective, dim, x0=x0)
        self.coef_ = self.result_.best_params
        return self

    def predict_pipe_risk(self, data: ModelData) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model used before fit()")
        return ranking_features(data) @ self.coef_


@dataclass
class SVMRankingModel(FailureModel):
    """RankSVM (linear kernel) on the same temporal snapshots."""

    name: str = "SVM"
    n_snapshots: int = 5
    lam: float = 1e-3
    seed: int = 0
    _svm: RankSVM | None = field(default=None, repr=False)

    def fit(self, data: ModelData) -> "SVMRankingModel":
        X, y = build_snapshots(data, self.n_snapshots)
        self._svm = RankSVM(lam=self.lam, seed=self.seed).fit(X, y)
        return self

    def predict_pipe_risk(self, data: ModelData) -> np.ndarray:
        if self._svm is None:
            raise RuntimeError("model used before fit()")
        return self._svm.decision_function(ranking_features(data))


@dataclass
class SVMClassifierModel(FailureModel):
    """Class-balanced linear SVM classifier; margin used as the risk score."""

    name: str = "SVM-clf"
    n_snapshots: int = 5
    lam: float = 1e-3
    seed: int = 0
    _svm: LinearSVM | None = field(default=None, repr=False)

    def fit(self, data: ModelData) -> "SVMClassifierModel":
        X, y = build_snapshots(data, self.n_snapshots)
        self._svm = LinearSVM(lam=self.lam, seed=self.seed, epochs=8).fit(X, y.astype(int))
        return self

    def predict_pipe_risk(self, data: ModelData) -> np.ndarray:
        if self._svm is None:
            raise RuntimeError("model used before fit()")
        return self._svm.decision_function(ranking_features(data))
