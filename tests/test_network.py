"""Unit tests for the PipeNetwork container."""

import pytest

from repro.network.network import PipeNetwork
from repro.network.pipe import Coating, Material, Pipe, PipeClass, PipeSegment


def make_pipe(pipe_id, diameter=300.0, laid=1950, x0=0.0):
    segs = [
        PipeSegment(f"{pipe_id}/s{k}", pipe_id, (x0 + k * 10.0, 0.0), (x0 + (k + 1) * 10.0, 0.0))
        for k in range(2)
    ]
    return Pipe(pipe_id, Material.CICL, Coating.NONE, diameter, laid, segs)


@pytest.fixture()
def net():
    network = PipeNetwork(region="T")
    network.add_pipe(make_pipe("P1", diameter=300.0, laid=1940))
    network.add_pipe(make_pipe("P2", diameter=100.0, laid=1980, x0=100.0))
    return network


class TestInsertAndLookup:
    def test_counts(self, net):
        assert len(net) == 2
        assert net.n_pipes == 2
        assert net.n_segments == 4

    def test_lookup(self, net):
        assert net.pipe("P1").pipe_id == "P1"
        assert net.segment("P2/s1").pipe_id == "P2"
        assert "P1" in net and "P9" not in net

    def test_duplicate_pipe_rejected(self, net):
        with pytest.raises(ValueError):
            net.add_pipe(make_pipe("P1"))

    def test_duplicate_segment_rejected(self, net):
        clone = make_pipe("P3")
        # Rename the pipe but keep a colliding segment id.
        bad = Pipe(
            "P3",
            Material.PVC,
            Coating.NONE,
            100.0,
            1990,
            [PipeSegment("P1/s0", "P3", (0.0, 0.0), (1.0, 0.0))],
        )
        with pytest.raises(ValueError):
            net.add_pipe(bad)
        del clone

    def test_missing_raises_keyerror(self, net):
        with pytest.raises(KeyError):
            net.pipe("nope")


class TestFiltersAndAggregates:
    def test_class_filter(self, net):
        assert [p.pipe_id for p in net.pipes(PipeClass.CWM)] == ["P1"]
        assert [p.pipe_id for p in net.pipes(PipeClass.RWM)] == ["P2"]

    def test_segments_filter(self, net):
        assert len(net.segments(PipeClass.CWM)) == 2

    def test_laid_year_range(self, net):
        assert net.laid_year_range() == (1940, 1980)

    def test_laid_year_range_empty_class(self):
        empty = PipeNetwork(region="E")
        with pytest.raises(ValueError):
            empty.laid_year_range()

    def test_bounding_box(self, net):
        box = net.bounding_box()
        assert box.min_x == 0.0 and box.max_x == 120.0
