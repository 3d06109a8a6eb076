"""Unit tests for planar geometry primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network.geometry import (
    BoundingBox,
    distance,
    interpolate,
    midpoint,
)

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords)


class TestDistance:
    def test_zero_for_same_point(self):
        assert distance((3.0, 4.0), (3.0, 4.0)) == 0.0

    def test_pythagorean(self):
        assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0

    @given(points, points)
    def test_symmetry(self, a, b):
        assert distance(a, b) == pytest.approx(distance(b, a))

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-6


class TestInterpolate:
    def test_endpoints(self):
        assert interpolate((0.0, 0.0), (2.0, 4.0), 0.0) == (0.0, 0.0)
        assert interpolate((0.0, 0.0), (2.0, 4.0), 1.0) == (2.0, 4.0)

    def test_midpoint_matches(self):
        assert midpoint((0.0, 0.0), (2.0, 4.0)) == interpolate((0.0, 0.0), (2.0, 4.0), 0.5)


class TestBoundingBox:
    def test_around_points(self):
        box = BoundingBox.around([(0.0, 1.0), (4.0, -2.0)])
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0.0, -2.0, 4.0, 1.0)

    def test_margin(self):
        box = BoundingBox.around([(0.0, 0.0), (2.0, 2.0)], margin=1.0)
        assert box.min_x == -1.0 and box.max_y == 3.0

    def test_dims(self):
        box = BoundingBox(0.0, 0.0, 4.0, 5.0)
        assert box.width == 4.0 and box.height == 5.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            BoundingBox.around([])
