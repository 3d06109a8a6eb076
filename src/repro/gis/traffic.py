"""Traffic intersections and distance-to-intersection computation.

Frequent vehicle starting/stopping at intersections cycles the road
surface pressure above buried mains, which correlates with failures; the
feature used in the paper is each pipe segment's distance to its closest
traffic intersection (Table 18.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..network.geometry import BoundingBox, Point
from ..network.spatial import nearest


@dataclass
class TrafficNetwork:
    """A set of traffic-intersection locations with batched nearest queries."""

    intersections: np.ndarray  # (n, 2)

    def __post_init__(self) -> None:
        self.intersections = np.asarray(self.intersections, dtype=float)
        if self.intersections.ndim != 2 or self.intersections.shape[1] != 2:
            raise ValueError("intersections must be (n, 2)")
        if len(self.intersections) == 0:
            raise ValueError("need at least one intersection")

    def distance_to_nearest(self, points: Sequence[Point] | np.ndarray) -> np.ndarray:
        """Distance (m) from each point to its closest intersection.

        ``points`` is an ``(n, 2)`` array or a sequence of points.
        """
        return nearest(points, self.intersections)[1]

    @staticmethod
    def from_street_grid(
        bbox: BoundingBox,
        block_size: float,
        rng: np.random.Generator,
        keep_fraction: float = 0.7,
        jitter_fraction: float = 0.15,
    ) -> "TrafficNetwork":
        """Intersections of a jittered street grid over ``bbox``.

        ``keep_fraction`` thins the grid (not every street crossing is
        signalised); jitter breaks the artificial exact regularity.
        """
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if not 0 < keep_fraction <= 1:
            raise ValueError("keep_fraction must be in (0, 1]")
        xs = np.arange(bbox.min_x, bbox.max_x + block_size, block_size)
        ys = np.arange(bbox.min_y, bbox.max_y + block_size, block_size)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        keep = rng.random(len(pts)) < keep_fraction
        pts = pts[keep]
        if len(pts) == 0:  # degenerate tiny bbox: keep one
            pts = np.array([[bbox.min_x, bbox.min_y]])
        pts = pts + rng.normal(0.0, jitter_fraction * block_size, pts.shape)
        return TrafficNetwork(intersections=pts)
