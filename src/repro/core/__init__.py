"""Core prediction models: ranking (data-mining method), HBP, DPMHBP, baselines."""

from .base import FailureModel, ranking_features
from .dpmhbp import DPMHBP, DPMHBPModel, DPMHBPPosterior
from .grouping import GROUPINGS, fixed_grouping
from .hbp import HBPModel, HBPPosterior, fit_hbp
from .ranking import (
    AUCRankingModel,
    EvolutionStrategy,
    RankSVM,
    SVMClassifierModel,
    SVMRankingModel,
    empirical_auc,
)
from .survival_models import CoxPHModel, TimeRateModel, WeibullModel

__all__ = [
    "FailureModel",
    "ranking_features",
    "DPMHBP",
    "DPMHBPModel",
    "DPMHBPPosterior",
    "GROUPINGS",
    "fixed_grouping",
    "HBPModel",
    "HBPPosterior",
    "fit_hbp",
    "AUCRankingModel",
    "EvolutionStrategy",
    "RankSVM",
    "SVMClassifierModel",
    "SVMRankingModel",
    "empirical_auc",
    "CoxPHModel",
    "TimeRateModel",
    "WeibullModel",
]
