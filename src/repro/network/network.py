"""Container for a regional pipe network.

`PipeNetwork` owns the pipes of one region, provides id-based lookup for
pipes and segments, class filters (CWM / RWM), aggregate statistics, and a
`networkx` view of the physical connectivity (segments as edges between
their endpoints) for topological analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .geometry import BoundingBox, Point
from .pipe import Pipe, PipeClass, PipeSegment

if TYPE_CHECKING:
    import networkx as nx


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

    def select(self, predicate: Callable[[Pipe], bool]) -> list[Pipe]:
        """Pipes satisfying ``predicate``."""
        return [p for p in self._pipes.values() if predicate(p)]

    # -- aggregates -------------------------------------------------------

    @property
    def n_pipes(self) -> int:
        return len(self._pipes)

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    def total_length(self, pipe_class: PipeClass | None = None) -> float:
        """Summed pipe length in metres."""
        return sum(p.length for p in self.pipes(pipe_class))

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

    # -- graph view -------------------------------------------------------

    def to_graph(self, precision: int = 1) -> nx.Graph:
        """Physical connectivity graph.

        Nodes are segment endpoints rounded to ``precision`` decimals
        (metres); edges carry ``segment_id``, ``pipe_id`` and ``length``.
        Junctions shared by several pipes collapse to one node, so the
        graph reflects hydraulic adjacency well enough for neighbourhood
        feature extraction.
        """
        import networkx as nx  # only this view needs it; keeps `import repro` light

        graph = nx.Graph()
        for seg in self._segments.values():
            u = (round(seg.start[0], precision), round(seg.start[1], precision))
            v = (round(seg.end[0], precision), round(seg.end[1], precision))
            graph.add_edge(
                u, v, segment_id=seg.segment_id, pipe_id=seg.pipe_id, length=seg.length
            )
        return graph

    def merge(self, other: "PipeNetwork") -> "PipeNetwork":
        """New network containing this network's pipes plus ``other``'s."""
        merged = PipeNetwork(region=f"{self.region}+{other.region}")
        for pipe in self.iter_pipes():
            merged.add_pipe(pipe)
        for pipe in other.iter_pipes():
            merged.add_pipe(pipe)
        return merged


def summarise(networks: Iterable[PipeNetwork]) -> list[dict[str, object]]:
    """Per-region summary rows (pipe counts, lengths, laid-year ranges)."""
    rows: list[dict[str, object]] = []
    for net in networks:
        lo, hi = net.laid_year_range()
        rows.append(
            {
                "region": net.region,
                "n_pipes": net.n_pipes,
                "n_cwm": len(net.pipes(PipeClass.CWM)),
                "n_segments": net.n_segments,
                "total_length_km": net.total_length() / 1000.0,
                "laid_years": (lo, hi),
            }
        )
    return rows
