"""Soil condition layers: corrosiveness, expansiveness, geology, soil map.

Four categorical GIS layers per region (Table 18.2). Each layer partitions
the plane into contiguous zones sharing one categorical value; pipe
segments sample the layers at their midpoints ("pipe segments falling into
the same region share the same soil factor value").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..network.geometry import BoundingBox, Point
from .fields import CategoricalField

#: Pitting (metal corrosion) risk classes, from a linear polarisation test.
CORROSIVENESS_LEVELS = ("low", "moderate", "high", "severe")
#: Shrink–swell reactivity of expansive clays.
EXPANSIVENESS_LEVELS = ("low", "moderate", "high")
#: Dominant rock type.
GEOLOGY_TYPES = ("sandstone", "shale", "alluvium", "granite")
#: Landscape class from the soil map.
SOIL_MAP_TYPES = ("fluvial", "colluvial", "erosional", "residual")

#: Ordinal severity used by the failure simulator (not by the models —
#: models only ever see the categorical values, as in the paper).
CORROSIVENESS_SEVERITY = {"low": 0.0, "moderate": 0.4, "high": 0.75, "severe": 1.0}
EXPANSIVENESS_SEVERITY = {"low": 0.0, "moderate": 0.5, "high": 1.0}


@dataclass
class SoilLayers:
    """The four categorical soil layers of one region."""

    corrosiveness: CategoricalField
    expansiveness: CategoricalField
    geology: CategoricalField
    soil_map: CategoricalField

    def sample(self, points: Sequence[Point] | np.ndarray) -> dict[str, list[str]]:
        """Layer values at each point, keyed by layer name.

        ``points`` is an ``(n, 2)`` array or a sequence of points.
        """
        return {
            "soil_corrosiveness": self.corrosiveness.values_at(points),
            "soil_expansiveness": self.expansiveness.values_at(points),
            "soil_geology": self.geology.values_at(points),
            "soil_map": self.soil_map.values_at(points),
        }

    @staticmethod
    def random(bbox: BoundingBox, rng: np.random.Generator, zones_per_layer: int = 24) -> "SoilLayers":
        """Random soil layers with realistic category prevalences.

        Corrosive and expansive zones are the minority (severe corrosion
        pockets are rare but high-impact), matching how the simulator uses
        them to create spatially clustered failure hot spots.
        """
        return SoilLayers(
            corrosiveness=CategoricalField.random(
                bbox, CORROSIVENESS_LEVELS, zones_per_layer, rng, weights=(0.4, 0.3, 0.2, 0.1)
            ),
            expansiveness=CategoricalField.random(
                bbox, EXPANSIVENESS_LEVELS, zones_per_layer, rng, weights=(0.5, 0.3, 0.2)
            ),
            geology=CategoricalField.random(bbox, GEOLOGY_TYPES, zones_per_layer, rng),
            soil_map=CategoricalField.random(bbox, SOIL_MAP_TYPES, zones_per_layer, rng),
        )


def corrosiveness_severity(levels: Sequence[str]) -> np.ndarray:
    """Ordinal severity in [0, 1] for corrosiveness categories."""
    return np.asarray([CORROSIVENESS_SEVERITY[level] for level in levels], dtype=float)


def expansiveness_severity(levels: Sequence[str]) -> np.ndarray:
    """Ordinal severity in [0, 1] for expansiveness categories."""
    return np.asarray([EXPANSIVENESS_SEVERITY[level] for level in levels], dtype=float)
