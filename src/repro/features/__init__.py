"""Feature engineering: Table 18.2 assembly and domain-knowledge screening."""

from .builder import FeatureConfig, ModelData, build_model_data
from .domain import (
    EXPERT_FEATURE_PREFIXES,
    basic_config,
    expert_screen,
    is_expert_endorsed,
    naive_config,
)

__all__ = [
    "FeatureConfig",
    "ModelData",
    "build_model_data",
    "EXPERT_FEATURE_PREFIXES",
    "basic_config",
    "expert_screen",
    "is_expert_endorsed",
    "naive_config",
]
