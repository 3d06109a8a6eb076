"""Unit tests for the network generator."""

import numpy as np
import pytest

from repro.data.generator import era_bucket, generate_network
from repro.data.regions import get_region
from repro.network.pipe import CWM_DIAMETER_MM, Material, PipeClass


@pytest.fixture(scope="module")
def net_and_spec():
    spec = get_region("A", scale=0.03)
    rng = np.random.default_rng(42)
    return generate_network(spec, rng), spec


class TestEraBucket:
    def test_boundaries(self):
        assert era_bucket(1900) == 0
        assert era_bucket(1930) == 1  # boundary year joins the later era
        assert era_bucket(1954) == 1
        assert era_bucket(1955) == 2
        assert era_bucket(1990) == 4
        assert era_bucket(1997) == 4

    def test_array_matches_scalar(self):
        years = np.array([1900, 1929, 1930, 1954.0, 1955, 1974, 1975, 1989, 1990, 2008])
        eras = era_bucket(years)
        assert isinstance(eras, np.ndarray) and eras.dtype.kind == "i"
        assert eras.tolist() == [era_bucket(int(y)) for y in years]
        assert isinstance(era_bucket(1955), int)


class TestCounts:
    def test_pipe_counts_match_spec(self, net_and_spec):
        net, spec = net_and_spec
        assert net.n_pipes == spec.n_pipes
        assert len(net.pipes(PipeClass.CWM)) == spec.n_cwm

    def test_class_consistent_with_diameter(self, net_and_spec):
        net, _ = net_and_spec
        for pipe in net.iter_pipes():
            if pipe.pipe_class is PipeClass.CWM:
                assert pipe.diameter_mm >= CWM_DIAMETER_MM
            else:
                assert pipe.diameter_mm < CWM_DIAMETER_MM


class TestAttributes:
    def test_laid_years_within_range(self, net_and_spec):
        net, spec = net_and_spec
        lo, hi = net.laid_year_range()
        assert lo >= spec.laid_year_lo and hi <= spec.laid_year_hi

    def test_laid_years_span_range(self, net_and_spec):
        net, spec = net_and_spec
        lo, hi = net.laid_year_range()
        span = spec.laid_year_hi - spec.laid_year_lo
        assert hi - lo > 0.8 * span  # booms + backfill cover the era

    def test_materials_era_appropriate(self, net_and_spec):
        net, _ = net_and_spec
        for pipe in net.iter_pipes():
            if pipe.material is Material.PVC:
                assert pipe.laid_year >= 1975  # PVC arrives in era 3
            if pipe.material is Material.CI:
                assert pipe.laid_year < 1955  # bare cast iron is early stock

    def test_segment_lengths_roughly_constant(self, net_and_spec):
        """The DPMHBP premise: segment lengths have small variance."""
        net, _ = net_and_spec
        lengths = np.asarray([s.length for s in net.segments()])
        # Single-segment short pipes widen the spread; the bulk is tight.
        assert np.std(lengths) / np.mean(lengths) < 0.5

    def test_segments_connected_in_series(self, net_and_spec):
        net, _ = net_and_spec
        for pipe in list(net.iter_pipes())[:50]:
            for a, b in zip(pipe.segments[:-1], pipe.segments[1:]):
                assert a.end == pytest.approx(b.start)

    def test_pipe_ids_unique_and_prefixed(self, net_and_spec):
        net, spec = net_and_spec
        ids = [p.pipe_id for p in net.iter_pipes()]
        assert len(set(ids)) == len(ids)
        assert all(i.startswith(spec.name) for i in ids)


class TestDeterminism:
    def test_same_seed_same_network(self):
        spec = get_region("B", scale=0.02)
        a = generate_network(spec, np.random.default_rng(7))
        b = generate_network(spec, np.random.default_rng(7))
        pa, pb = a.pipes()[10], b.pipes()[10]
        assert pa.pipe_id == pb.pipe_id
        assert pa.material == pb.material
        assert pa.laid_year == pb.laid_year
        assert pa.segments[0].start == pb.segments[0].start

    def test_different_seed_different_network(self):
        spec = get_region("B", scale=0.02)
        a = generate_network(spec, np.random.default_rng(1))
        b = generate_network(spec, np.random.default_rng(2))
        assert any(
            x.laid_year != y.laid_year for x, y in zip(a.pipes()[:50], b.pipes()[:50])
        )
