"""Container for a regional pipe network.

`PipeNetwork` owns the pipes of one region and provides id-based lookup for
pipes and segments, class filters (CWM / RWM) and aggregate statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .geometry import BoundingBox, Point
from .pipe import Pipe, PipeClass, PipeSegment


@dataclass
class PipeNetwork:
    """All pipes of one region, with id indexes kept consistent on insert."""

    region: str
    _pipes: dict[str, Pipe] = field(default_factory=dict)
    _segments: dict[str, PipeSegment] = field(default_factory=dict)

    def add_pipe(self, pipe: Pipe) -> None:
        """Insert ``pipe`` and index its segments; IDs must be unique."""
        if pipe.pipe_id in self._pipes:
            raise ValueError(f"duplicate pipe id {pipe.pipe_id!r}")
        for seg in pipe.segments:
            if seg.segment_id in self._segments:
                raise ValueError(f"duplicate segment id {seg.segment_id!r}")
        self._pipes[pipe.pipe_id] = pipe
        for seg in pipe.segments:
            self._segments[seg.segment_id] = seg

    # -- lookup ---------------------------------------------------------

    def pipe(self, pipe_id: str) -> Pipe:
        """Pipe by ID; raises ``KeyError`` when absent."""
        return self._pipes[pipe_id]

    def segment(self, segment_id: str) -> PipeSegment:
        """Segment by ID; raises ``KeyError`` when absent."""
        return self._segments[segment_id]

    def __contains__(self, pipe_id: str) -> bool:
        return pipe_id in self._pipes

    def __len__(self) -> int:
        return len(self._pipes)

    # -- iteration & filters ---------------------------------------------

    def pipes(self, pipe_class: PipeClass | None = None) -> list[Pipe]:
        """All pipes, optionally restricted to one class, in insertion order."""
        if pipe_class is None:
            return list(self._pipes.values())
        return [p for p in self._pipes.values() if p.pipe_class is pipe_class]

    def segments(self, pipe_class: PipeClass | None = None) -> list[PipeSegment]:
        """All segments (optionally of one pipe class), grouped by pipe."""
        if pipe_class is None:
            return list(self._segments.values())
        return [s for p in self.pipes(pipe_class) for s in p.segments]

    def iter_pipes(self) -> Iterator[Pipe]:
        return iter(self._pipes.values())

    # -- aggregates -------------------------------------------------------

    @property
    def n_pipes(self) -> int:
        return len(self._pipes)

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    def laid_year_range(self, pipe_class: PipeClass | None = None) -> tuple[int, int]:
        """(earliest, latest) laid year over the selected pipes."""
        years = [p.laid_year for p in self.pipes(pipe_class)]
        if not years:
            raise ValueError("network has no pipes of the requested class")
        return min(years), max(years)

    def bounding_box(self, margin: float = 0.0) -> BoundingBox:
        """Bounding box of all segment endpoints."""
        points: list[Point] = []
        for seg in self._segments.values():
            points.append(seg.start)
            points.append(seg.end)
        return BoundingBox.around(points, margin=margin)
