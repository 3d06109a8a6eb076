"""Synthetic data: region specs, network generation, failure simulation, loaders."""

from .datasets import (
    EnvironmentLayers,
    PipeDataset,
    build_environment,
    load_region,
)
from .failures import GroundTruth, build_ground_truth, simulate_failures
from .generator import era_bucket, generate_network
from .regions import (
    DEFAULT_SCALE,
    OBSERVATION_YEARS,
    REGION_A,
    REGION_B,
    REGION_C,
    REGIONS,
    TEST_YEAR,
    TRAIN_YEARS,
    RegionSpec,
    default_scale,
    get_region,
)
from .schema import FailureRecord
from .wastewater import (
    generate_wastewater_network,
    load_wastewater_region,
    simulate_chokes,
)

__all__ = [
    "EnvironmentLayers",
    "PipeDataset",
    "build_environment",
    "load_region",
    "GroundTruth",
    "build_ground_truth",
    "simulate_failures",
    "era_bucket",
    "generate_network",
    "DEFAULT_SCALE",
    "OBSERVATION_YEARS",
    "REGION_A",
    "REGION_B",
    "REGION_C",
    "REGIONS",
    "TEST_YEAR",
    "TRAIN_YEARS",
    "RegionSpec",
    "default_scale",
    "get_region",
    "FailureRecord",
    "generate_wastewater_network",
    "load_wastewater_region",
    "simulate_chokes",
]
