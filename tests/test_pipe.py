"""Unit tests for the pipe / segment asset model."""

import pytest

from repro.network.pipe import (
    CWM_DIAMETER_MM,
    Coating,
    Material,
    Pipe,
    PipeClass,
    PipeSegment,
)


def make_pipe(diameter=300.0, laid=1950, n_segments=3, pipe_id="P1"):
    segs = [
        PipeSegment(f"{pipe_id}/s{k}", pipe_id, (k * 10.0, 0.0), ((k + 1) * 10.0, 0.0))
        for k in range(n_segments)
    ]
    return Pipe(
        pipe_id=pipe_id,
        material=Material.CICL,
        coating=Coating.TAR,
        diameter_mm=diameter,
        laid_year=laid,
        segments=segs,
    )


class TestPipeSegment:
    def test_length(self):
        seg = PipeSegment("s", "p", (0.0, 0.0), (3.0, 4.0))
        assert seg.length == pytest.approx(5.0)

    def test_midpoint(self):
        seg = PipeSegment("s", "p", (0.0, 0.0), (4.0, 2.0))
        assert seg.midpoint == (2.0, 1.0)

    def test_frozen(self):
        seg = PipeSegment("s", "p", (0.0, 0.0), (1.0, 0.0))
        with pytest.raises(AttributeError):
            seg.pipe_id = "other"


class TestPipe:
    def test_length_sums_segments(self):
        assert make_pipe(n_segments=4).length == pytest.approx(40.0)

    def test_n_segments(self):
        assert make_pipe(n_segments=5).n_segments == 5

    def test_class_boundary(self):
        assert make_pipe(diameter=CWM_DIAMETER_MM).pipe_class is PipeClass.CWM
        assert make_pipe(diameter=CWM_DIAMETER_MM - 1).pipe_class is PipeClass.RWM
        assert make_pipe(diameter=750.0).pipe_class is PipeClass.CWM

    def test_rejects_non_positive_diameter(self):
        with pytest.raises(ValueError):
            make_pipe(diameter=0.0)

    def test_rejects_foreign_segments(self):
        seg = PipeSegment("X/s0", "X", (0.0, 0.0), (1.0, 0.0))
        with pytest.raises(ValueError):
            Pipe("P1", Material.PVC, Coating.NONE, 100.0, 1990, [seg])

    def test_empty_pipe_has_zero_length(self):
        pipe = Pipe("P9", Material.PVC, Coating.NONE, 100.0, 1990, [])
        assert pipe.length == 0.0
        assert pipe.n_segments == 0
