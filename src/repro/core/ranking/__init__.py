"""Ranking core: AUC objective, evolutionary optimiser, RankSVM, models."""

from .evolutionary import EvolutionStrategy, OptimisationResult
from .model import AUCRankingModel, SVMClassifierModel, SVMRankingModel, build_snapshots
from .objective import empirical_auc, midranks
from .ranksvm import RankSVM

__all__ = [
    "EvolutionStrategy",
    "OptimisationResult",
    "AUCRankingModel",
    "SVMClassifierModel",
    "SVMRankingModel",
    "build_snapshots",
    "empirical_auc",
    "midranks",
    "RankSVM",
]
