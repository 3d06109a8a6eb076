"""Evaluation harness: metrics, significance, experiments, economics, risk maps."""

from .economics import CostModel, PlanEconomics, plan_economics
from .experiment import (
    PAPER_MODELS,
    ComparisonResult,
    ModelEvaluation,
    NoTestFailuresError,
    RegionRun,
    default_models,
    evaluate_models,
    prepare_region_data,
    run_comparison,
)
from .metrics import (
    DetectionCurve,
    auc_at_budget,
    detection_curve,
    empirical_auc,
    permyriad,
)
from .reporting import (
    binned_rate_table,
    detection_readout,
    format_table,
    table_18_1,
    table_18_3,
    table_18_4,
)
from .riskmap import DEFAULT_BANDS, RiskMap
from .significance import TTestResult, paired_t_test, t_sf

__all__ = [
    "CostModel",
    "PlanEconomics",
    "plan_economics",
    "PAPER_MODELS",
    "ComparisonResult",
    "ModelEvaluation",
    "NoTestFailuresError",
    "RegionRun",
    "default_models",
    "evaluate_models",
    "prepare_region_data",
    "run_comparison",
    "DetectionCurve",
    "auc_at_budget",
    "detection_curve",
    "empirical_auc",
    "permyriad",
    "binned_rate_table",
    "detection_readout",
    "format_table",
    "table_18_1",
    "table_18_3",
    "table_18_4",
    "DEFAULT_BANDS",
    "RiskMap",
    "TTestResult",
    "paired_t_test",
    "t_sf",
]
