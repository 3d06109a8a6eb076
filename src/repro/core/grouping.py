"""Fixed (heuristic) pipe groupings for the HBP model.

The HBP baseline groups pipes by one expert-chosen attribute, with the
group count fixed beforehand — the rigidity the DP mixture removes. Three
groupings from the evaluation protocol: material, diameter band, and
laid-year decade.
"""

from __future__ import annotations

import numpy as np

from ..features.builder import ModelData

#: Grouping names accepted by :func:`fixed_grouping`.
GROUPINGS = ("material", "diameter", "laid_year")


def group_by_material(data: ModelData) -> np.ndarray:
    """Group index per pipe by material type."""
    materials = sorted(set(data.pipe_material))
    index = {m: i for i, m in enumerate(materials)}
    return np.asarray([index[m] for m in data.pipe_material], dtype=np.int64)


def group_by_diameter(data: ModelData, bands: tuple[float, ...] = (150.0, 250.0, 375.0, 500.0)) -> np.ndarray:
    """Group index per pipe by diameter band (edges in mm)."""
    return np.searchsorted(np.asarray(bands), data.pipe_diameter, side="right")


def group_by_laid_year(data: ModelData, decade: int = 10) -> np.ndarray:
    """Group index per pipe by laid-year bucket (default: decades)."""
    if decade < 1:
        raise ValueError("decade width must be >= 1")
    buckets = (data.pipe_laid_year // decade).astype(np.int64)
    _, labels = np.unique(buckets, return_inverse=True)
    return labels


def fixed_grouping(data: ModelData, scheme: str) -> np.ndarray:
    """Pipe group labels (0..K-1) for a named scheme."""
    if scheme == "material":
        labels = group_by_material(data)
    elif scheme == "diameter":
        labels = group_by_diameter(data)
    elif scheme == "laid_year":
        labels = group_by_laid_year(data)
    else:
        raise ValueError(f"unknown grouping {scheme!r}; choose from {GROUPINGS}")
    _, dense = np.unique(labels, return_inverse=True)
    return dense.astype(np.int64)
