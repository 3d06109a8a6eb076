"""Domain-knowledge feature handling.

The chapter's central argument (§18.4.2) is that domain experts (a) point
the modeller at informative factors a data-only pipeline would never
collect — soil layers, traffic-intersection distance, tree canopy — and
(b) reject *false correlated* features that a purely data-driven pipeline
would keep. This module encodes both directions:

* :data:`EXPERT_FEATURE_PREFIXES` — the expert include-list (Table 18.2);
* :func:`expert_screen` — drops every feature column the experts did not
  endorse (in particular decoys injected by ``FeatureConfig``);
* preset :class:`FeatureConfig` factories for the basic and naive
  ablation arms.
"""

from __future__ import annotations

from dataclasses import replace

from .builder import FeatureConfig, ModelData

#: Feature-name prefixes endorsed by domain experts (drinking water).
EXPERT_FEATURE_PREFIXES: tuple[str, ...] = (
    "material=",
    "coating=",
    "diameter_mm",
    "log_length_m",
    "soil_corrosiveness=",
    "soil_expansiveness=",
    "soil_geology=",
    "soil_map=",
    "dist_to_intersection_m",
    "tree_canopy_cover",
    "soil_moisture",
)


def basic_config() -> FeatureConfig:
    """Attributes-only features: what a utility's asset register holds."""
    return FeatureConfig(include_soil=False, include_traffic=False)


def naive_config(n_decoys: int = 8) -> FeatureConfig:
    """A data-driven pipeline without expert screening: everything plus decoys."""
    return FeatureConfig(n_noise_decoys=n_decoys)


def is_expert_endorsed(name: str) -> bool:
    """True when a feature column is on the expert include-list."""
    return any(name.startswith(prefix) for prefix in EXPERT_FEATURE_PREFIXES)


def expert_screen(data: ModelData) -> ModelData:
    """Drop all feature columns the domain experts did not endorse."""
    keep = [i for i, name in enumerate(data.feature_names) if is_expert_endorsed(name)]
    if not keep:
        raise ValueError("expert screening removed every feature")
    return _select_columns(data, keep)


def _select_columns(data: ModelData, keep: list[int]) -> ModelData:
    return replace(
        data,
        X_pipe=data.X_pipe[:, keep],
        X_seg=data.X_seg[:, keep],
        feature_names=[data.feature_names[i] for i in keep],
    )
