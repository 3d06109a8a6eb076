"""Spatial field primitives: categorical Voronoi fields and smooth scalar fields.

These stand in for the paper's GIS layers. Soil attributes are *categorical
partitions of the plane* ("the selected local government areas are
partitioned into small regions according to the distinct values of soil
factors"), which a nearest-seed Voronoi field reproduces exactly. Tree
canopy and soil moisture are continuous rasters, reproduced by smooth
Gaussian-bump random fields normalised to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..network.geometry import BoundingBox, Point
from ..network.spatial import nearest


@dataclass
class CategoricalField:
    """Piecewise-constant categorical field: value = category of nearest seed."""

    seeds: np.ndarray  # (n, 2)
    labels: list[str]  # one per seed
    categories: list[str]  # distinct values, deterministic order

    def __post_init__(self) -> None:
        self.seeds = np.asarray(self.seeds, dtype=float)
        if self.seeds.ndim != 2 or self.seeds.shape[1] != 2:
            raise ValueError("seeds must be (n, 2)")
        if len(self.labels) != len(self.seeds):
            raise ValueError("need one label per seed")
        unknown = set(self.labels) - set(self.categories)
        if unknown:
            raise ValueError(f"labels {unknown} missing from categories")

    def values_at(self, points: Sequence[Point] | np.ndarray) -> list[str]:
        """Categories at many points (an ``(n, 2)`` array or point sequence)."""
        idx, _ = nearest(points, self.seeds)
        return [self.labels[i] for i in idx.tolist()]

    @staticmethod
    def random(
        bbox: BoundingBox,
        categories: Sequence[str],
        n_seeds: int,
        rng: np.random.Generator,
        weights: Sequence[float] | None = None,
    ) -> "CategoricalField":
        """Random Voronoi field over ``bbox``.

        ``weights`` optionally biases how often each category is used for
        seeds (e.g. mostly-benign soil with pockets of severe corrosivity).
        Every category is guaranteed at least one seed when
        ``n_seeds >= len(categories)``.
        """
        if n_seeds < 1:
            raise ValueError("need at least one seed")
        cats = list(categories)
        if not cats:
            raise ValueError("need at least one category")
        p = None
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if w.size != len(cats) or np.any(w < 0) or w.sum() == 0:
                raise ValueError("weights must be non-negative, one per category")
            p = w / w.sum()
        seeds = np.column_stack(
            [
                rng.uniform(bbox.min_x, bbox.max_x, n_seeds),
                rng.uniform(bbox.min_y, bbox.max_y, n_seeds),
            ]
        )
        labels = [str(c) for c in rng.choice(cats, size=n_seeds, p=p)]
        # Guarantee full category coverage where possible.
        if n_seeds >= len(cats):
            for i, c in enumerate(cats):
                if c not in labels:
                    labels[i] = c
        return CategoricalField(seeds=seeds, labels=labels, categories=cats)


@dataclass
class ScalarField:
    """Smooth field in [0, 1]: a normalised sum of Gaussian bumps."""

    centers: np.ndarray  # (n, 2)
    amplitudes: np.ndarray  # (n,)
    length_scale: float
    baseline: float = 0.0

    def __post_init__(self) -> None:
        self.centers = np.asarray(self.centers, dtype=float)
        self.amplitudes = np.asarray(self.amplitudes, dtype=float)
        if self.centers.ndim != 2 or self.centers.shape[1] != 2:
            raise ValueError("centers must be (n, 2)")
        if self.amplitudes.shape != (len(self.centers),):
            raise ValueError("need one amplitude per center")
        if self.length_scale <= 0:
            raise ValueError("length_scale must be positive")

    def values_at(self, points: Sequence[Point] | np.ndarray) -> np.ndarray:
        """Vectorised evaluation; output clipped to [0, 1]."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        sq = (
            np.sum(pts**2, axis=1)[:, None]
            - 2.0 * pts @ self.centers.T
            + np.sum(self.centers**2, axis=1)[None, :]
        )
        bumps = np.exp(-np.maximum(sq, 0.0) / (2.0 * self.length_scale**2))
        return np.clip(self.baseline + bumps @ self.amplitudes, 0.0, 1.0)

    @staticmethod
    def random(
        bbox: BoundingBox,
        rng: np.random.Generator,
        n_bumps: int = 40,
        length_scale_fraction: float = 0.08,
        baseline: float = 0.1,
        amplitude: float = 0.5,
    ) -> "ScalarField":
        """Random smooth field: bump centres uniform over ``bbox``."""
        if n_bumps < 1:
            raise ValueError("need at least one bump")
        centers = np.column_stack(
            [
                rng.uniform(bbox.min_x, bbox.max_x, n_bumps),
                rng.uniform(bbox.min_y, bbox.max_y, n_bumps),
            ]
        )
        scale = max(bbox.width, bbox.height) * length_scale_fraction
        amplitudes = rng.uniform(0.2, 1.0, n_bumps) * amplitude
        return ScalarField(
            centers=centers, amplitudes=amplitudes, length_scale=scale, baseline=baseline
        )
