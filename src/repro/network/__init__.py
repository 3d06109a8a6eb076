"""Pipe network substrate: geometry, asset model, network container, nearest-point queries."""

from .geometry import (
    BoundingBox,
    Point,
    distance,
    interpolate,
    midpoint,
    point_segment_distance,
    polyline_length,
    resample_polyline,
    split_segment,
)
from .network import PipeNetwork, summarise
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
    "point_segment_distance",
    "polyline_length",
    "resample_polyline",
    "split_segment",
    "PipeNetwork",
    "summarise",
    "CWM_DIAMETER_MM",
    "FERROUS_MATERIALS",
    "Coating",
    "Material",
    "Pipe",
    "PipeClass",
    "PipeSegment",
    "nearest",
]
