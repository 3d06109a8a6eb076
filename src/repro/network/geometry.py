"""Planar geometry primitives for pipe networks.

Pipes are polylines in a projected (metre-based) plane. Everything here is
pure computation on coordinates: distances, interpolation and bounding
boxes. The functions accept plain ``(x, y)`` tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

Point = tuple[float, float]


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def interpolate(a: Point, b: Point, t: float) -> Point:
    """Point at parameter ``t`` (0 → ``a``, 1 → ``b``) along segment ``a``–``b``."""
    return (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


def midpoint(a: Point, b: Point) -> Point:
    """Midpoint of segment ``a``–``b``."""
    return interpolate(a, b, 0.5)


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned bounding box ``[min_x, max_x] × [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @staticmethod
    def around(points: Iterable[Point], margin: float = 0.0) -> "BoundingBox":
        """Smallest box containing ``points``, expanded by ``margin`` on all sides."""
        arr = np.asarray(list(points), dtype=float)
        if arr.size == 0:
            raise ValueError("cannot bound an empty point set")
        return BoundingBox(
            float(arr[:, 0].min()) - margin,
            float(arr[:, 1].min()) - margin,
            float(arr[:, 0].max()) + margin,
            float(arr[:, 1].max()) + margin,
        )
