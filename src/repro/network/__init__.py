"""Pipe network substrate: geometry, asset model, network container, nearest-point queries."""

from .geometry import (
    BoundingBox,
    Point,
    distance,
    interpolate,
    midpoint,
)
from .network import PipeNetwork
from .pipe import (
    CWM_DIAMETER_MM,
    FERROUS_MATERIALS,
    Coating,
    Material,
    Pipe,
    PipeClass,
    PipeSegment,
)
from .spatial import nearest

__all__ = [
    "BoundingBox",
    "Point",
    "distance",
    "interpolate",
    "midpoint",
    "PipeNetwork",
    "CWM_DIAMETER_MM",
    "FERROUS_MATERIALS",
    "Coating",
    "Material",
    "Pipe",
    "PipeClass",
    "PipeSegment",
    "nearest",
]
