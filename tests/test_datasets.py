"""Unit tests for dataset assembly, splits and subsets."""

import numpy as np
import pytest

from repro.data.datasets import load_region
from repro.network.pipe import PipeClass


class TestLoadRegion:
    def test_cached(self):
        a = load_region("A", scale=0.05, seed=9)
        b = load_region("A", scale=0.05, seed=9)
        assert a is b  # lru_cache identity

    def test_distinct_seeds_differ(self):
        a = load_region("A", scale=0.03, seed=1)
        b = load_region("A", scale=0.03, seed=2)
        assert len(a.failures) != len(b.failures) or a.failures != b.failures

    def test_environment_attached(self, tiny_dataset):
        assert tiny_dataset.environment.soil is not None
        assert len(tiny_dataset.environment.traffic.intersections) > 0
        assert tiny_dataset.environment.canopy is None  # drinking water


class TestMatrices:
    def test_segment_matrix_matches_records(self, tiny_dataset):
        m = tiny_dataset.segment_failure_matrix()
        assert m.shape == (tiny_dataset.network.n_segments, 12)
        # Every record lands exactly one cell; dedupe (segment, year).
        cells = {(r.segment_id, r.year) for r in tiny_dataset.failures}
        assert m.sum() == len(cells)

    def test_pipe_matrix_is_binary_or(self, tiny_dataset):
        seg = tiny_dataset.segment_failure_matrix()
        pipe = tiny_dataset.pipe_failure_matrix()
        assert set(np.unique(pipe)) <= {0, 1}
        # Pipe-year marked iff one of its segments failed that year.
        seg_ids = tiny_dataset.segment_ids()
        pipe_index = {p: i for i, p in enumerate(tiny_dataset.pipe_ids())}
        owner = np.asarray(
            [pipe_index[tiny_dataset.network.segment(s).pipe_id] for s in seg_ids]
        )
        expected = np.zeros_like(pipe)
        np.maximum.at(expected, owner, seg)
        assert np.array_equal(pipe, expected)


class TestSplitsAndSubsets:
    def test_train_years_property(self, tiny_dataset):
        assert tiny_dataset.train_years == tuple(range(1998, 2009))
        assert tiny_dataset.test_year == 2009

    def test_subset_cwm(self, tiny_cwm, tiny_dataset):
        assert tiny_cwm.network.n_pipes < tiny_dataset.network.n_pipes
        assert all(
            p.pipe_class is PipeClass.CWM for p in tiny_cwm.network.iter_pipes()
        )
        cwm_ids = {p.pipe_id for p in tiny_cwm.network.iter_pipes()}
        assert all(r.pipe_id in cwm_ids for r in tiny_cwm.failures)

    def test_subset_drops_ground_truth(self, tiny_cwm):
        assert tiny_cwm.ground_truth is None

    def test_n_failures_by_class(self, tiny_dataset):
        total = tiny_dataset.n_failures()
        cwm = tiny_dataset.n_failures(PipeClass.CWM)
        rwm = tiny_dataset.n_failures(PipeClass.RWM)
        assert cwm + rwm == total

    def test_cwm_failure_share_plausible(self, tiny_dataset):
        """Paper: CWM failures are ~12% of all failures."""
        share = tiny_dataset.n_failures(PipeClass.CWM) / tiny_dataset.n_failures()
        assert 0.04 < share < 0.30
