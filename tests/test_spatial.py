"""Exactness tests for the batched nearest-point helper.

Every check compares against a per-query brute-force reference: the
lowest index among the smallest ``dx*dx + dy*dy``, and a distance computed
with ``math.hypot`` on that pair. Distances must be bit-equal, not close.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import load_region
from repro.network.spatial import block_rows, nearest


def reference(queries, points):
    """Per-query brute force over all points; returns (indices, distances) lists."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    px, py = pts[:, 0], pts[:, 1]
    idx, dist = [], []
    for qx, qy in np.asarray(queries, dtype=float).reshape(-1, 2).tolist():
        dx, dy = qx - px, qy - py
        j = int(np.argmin(dx * dx + dy * dy))  # first minimum = lowest index
        idx.append(j)
        dist.append(math.hypot(qx - float(px[j]), qy - float(py[j])))
    return idx, dist


def assert_matches_reference(queries, points):
    got_idx, got_dist = nearest(queries, points)
    ref_idx, ref_dist = reference(queries, points)
    assert got_idx.tolist() == ref_idx
    assert got_dist.tolist() == ref_dist  # float == float: bit-equal


class TestNearestBasics:
    def test_single_point(self):
        idx, dist = nearest([(4.0, 5.0)], [(1.0, 1.0)])
        assert idx.tolist() == [0]
        assert dist.tolist() == [5.0]

    def test_query_on_indexed_point(self):
        idx, dist = nearest([(5.0, 5.0)], [(0.0, 0.0), (10.0, 0.0), (5.0, 5.0)])
        assert idx.tolist() == [2] and dist.tolist() == [0.0]

    def test_accepts_arrays_and_point_lists(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0]])
        q = np.array([[1.0, 0.0], [9.0, 0.0]])
        a_idx, a_dist = nearest(q, pts)
        b_idx, b_dist = nearest([tuple(p) for p in q], [tuple(p) for p in pts])
        assert a_idx.tolist() == b_idx.tolist() == [0, 1]
        assert a_dist.tolist() == b_dist.tolist() == [1.0, 1.0]
        assert a_idx.dtype == np.int64 and a_dist.dtype == np.float64

    def test_lowest_index_wins_exact_ties(self):
        pts = [(2.0, 0.0), (-2.0, 0.0), (0.0, 2.0), (2.0, 0.0)]
        idx, dist = nearest([(0.0, 0.0), (2.0, 0.0)], pts)
        assert idx.tolist() == [0, 0]
        assert dist.tolist() == [2.0, 0.0]

    def test_rejects_empty_point_set(self):
        with pytest.raises(ValueError):
            nearest([(0.0, 0.0)], [])
        with pytest.raises(ValueError):
            nearest(np.empty((0, 2)), np.empty((0, 2)))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            nearest([(0.0, 0.0, 0.0)], [(1.0, 1.0)])
        with pytest.raises(ValueError):
            nearest([(0.0, 0.0)], [1.0, 2.0, 3.0])


class TestBlocks:
    """Query counts around the block size, where the row loop changes shape."""

    N_POINTS = 100

    @pytest.mark.parametrize("size", ["zero", "one", "block-1", "block", "block+1"])
    def test_block_boundaries(self, size):
        block = block_rows(self.N_POINTS)
        n = {"zero": 0, "one": 1, "block-1": block - 1, "block": block, "block+1": block + 1}[size]
        rng = np.random.default_rng(n)
        pts = rng.uniform(0, 1000, size=(self.N_POINTS, 2))
        queries = rng.uniform(-100, 1100, size=(n, 2))
        idx, dist = nearest(queries, pts)
        assert idx.shape == dist.shape == (n,)
        assert_matches_reference(queries, pts)

    def test_block_shrinks_with_point_count(self):
        assert block_rows(100) > block_rows(10_000) >= 1
        assert block_rows(10**9) == 1


coords = st.one_of(
    st.integers(min_value=-4, max_value=4).map(float),  # small lattice: exact ties
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


class TestNearestExactness:
    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1000, size=(200, 2))
        assert_matches_reference(rng.uniform(-100, 1100, size=(50, 2)), pts)

    def test_clustered_points(self):
        rng = np.random.default_rng(1)
        pts = np.concatenate([rng.normal(0, 1, (50, 2)), rng.normal(500, 1, (50, 2))])
        assert_matches_reference([(250.0, 250.0), (0.0, 0.0), (500.0, 500.0)], pts)

    @settings(max_examples=60, deadline=None)
    @given(
        points=st.lists(st.tuples(coords, coords), min_size=1, max_size=40),
        queries=st.lists(st.tuples(coords, coords), max_size=20),
    )
    def test_property_matches_brute_force(self, points, queries):
        assert_matches_reference(queries, points)


class TestRegionMidpoints:
    """The two Table 18.2 spatial features on region A's real segment midpoints."""

    @pytest.fixture(scope="class")
    def region(self):
        dataset = load_region("A", scale=0.05)
        mid = np.asarray([s.midpoint for s in dataset.network.segments()])
        return dataset.environment, mid

    def test_traffic_distances(self, region):
        env, mid = region
        _, ref_dist = reference(mid, env.traffic.intersections)
        assert env.traffic.distance_to_nearest(mid).tolist() == ref_dist

    def test_soil_layer_categories(self, region):
        env, mid = region
        field = env.soil.corrosiveness
        ref_idx, _ = reference(mid, field.seeds)
        assert field.values_at(mid) == [field.labels[i] for i in ref_idx]
