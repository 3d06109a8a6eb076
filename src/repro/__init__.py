"""repro — water pipe failure prediction, reproduced end to end.

A complete open-source implementation of ranking-based and Bayesian
nonparametric pipe failure prediction:

* the **data-mining ranking method** — a real-valued ranking function
  directly maximising the empirical AUC (Eq. 18.10), optimised with
  from-scratch evolutionary search, plus its convex RankSVM instantiation;
* the **DPMHBP** model — a Dirichlet process mixture of hierarchical beta
  processes over pipe segments with Metropolis-within-Gibbs inference;
* every compared baseline (HBP with fixed groupings, Cox proportional
  hazards, Weibull NHPP, time-exponential/power/linear models);
* a calibrated synthetic metropolitan network substituting the
  proprietary utility data, and the full evaluation harness (AUC,
  budget-restricted AUC, detection curves, paired t-tests, risk maps).

Quickstart::

    from repro import prepare_region_data, default_models, evaluate_models

    data = prepare_region_data("A")
    run = evaluate_models(data, default_models(fast=True), region="A")
    for name, ev in run.evaluations.items():
        print(name, ev.auc)
"""

from .core import (
    AUCRankingModel,
    CoxPHModel,
    DPMHBPModel,
    FailureModel,
    HBPModel,
    SVMRankingModel,
    WeibullModel,
    empirical_auc,
)
from .core.hbp import HBPBestModel
from .data import load_region, load_wastewater_region
from .eval import (
    ComparisonResult,
    NoTestFailuresError,
    RegionRun,
    default_models,
    detection_curve,
    evaluate_models,
    paired_t_test,
    prepare_region_data,
    run_comparison,
)
from .features import FeatureConfig, ModelData, build_model_data
from .physical import PhysicalConditionModel
from .runs import CellSpec, RunJournal, RunPolicy

__version__ = "1.1.0"

__all__ = [
    "AUCRankingModel",
    "CoxPHModel",
    "DPMHBPModel",
    "FailureModel",
    "HBPModel",
    "HBPBestModel",
    "SVMRankingModel",
    "WeibullModel",
    "empirical_auc",
    "load_region",
    "load_wastewater_region",
    "default_models",
    "detection_curve",
    "evaluate_models",
    "paired_t_test",
    "prepare_region_data",
    "run_comparison",
    "ComparisonResult",
    "NoTestFailuresError",
    "RegionRun",
    "FeatureConfig",
    "ModelData",
    "build_model_data",
    "PhysicalConditionModel",
    "CellSpec",
    "RunJournal",
    "RunPolicy",
    "__version__",
]
