"""Domain model for water pipes and pipe segments.

The paper's asset model: each *pipe* (an asset with one ID, one material,
one laid date, one diameter) is a set of *pipe segments* connected in
series; failure records are matched to segments. Critical water mains
(CWM) are pipes with diameter >= 300 mm, reticulation water mains (RWM)
are smaller.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .geometry import Point, distance, midpoint

CWM_DIAMETER_MM = 300.0


class PipeClass(enum.Enum):
    """Functional class of a water main."""

    CWM = "critical_water_main"
    RWM = "reticulation_water_main"


class Material(enum.Enum):
    """Pipe wall material (drinking water and waste water)."""

    CICL = "cast_iron_cement_lined"
    CI = "cast_iron"
    DICL = "ductile_iron_cement_lined"
    AC = "asbestos_cement"
    PVC = "polyvinyl_chloride"
    PE = "polyethylene"
    STEEL = "steel"
    VC = "vitrified_clay"
    CONC = "concrete"


class Coating(enum.Enum):
    """Protective coating applied to the pipe."""

    NONE = "none"
    POLYETHYLENE_SLEEVE = "polyethylene_sleeve"
    TAR = "tar"
    EPOXY = "epoxy"
    ZINC = "zinc"


#: Materials considered ferrous (subject to pitting corrosion).
FERROUS_MATERIALS = frozenset({Material.CICL, Material.CI, Material.DICL, Material.STEEL})


@dataclass(frozen=True)
class PipeSegment:
    """One straight segment of a pipe, the unit failure events attach to.

    Attributes
    ----------
    segment_id:
        Unique ID within a network (``"<pipe_id>/s<k>"`` by convention).
    pipe_id:
        Owning pipe's ID.
    start, end:
        Segment endpoints in metres (projected plane).
    """

    segment_id: str
    pipe_id: str
    start: Point
    end: Point

    @property
    def length(self) -> float:
        """Segment length in metres."""
        return distance(self.start, self.end)

    @property
    def midpoint(self) -> Point:
        """Segment midpoint — used to sample environmental layers."""
        return midpoint(self.start, self.end)


@dataclass
class Pipe:
    """A water pipe asset: attributes shared by its serially connected segments.

    Attributes mirror Table 18.2 of the evaluation protocol: protective
    coating, diameter, length (derived from segments), laid date and
    material.
    """

    pipe_id: str
    material: Material
    coating: Coating
    diameter_mm: float
    laid_year: int
    segments: list[PipeSegment] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.diameter_mm <= 0:
            raise ValueError(f"pipe {self.pipe_id}: diameter must be positive")
        for seg in self.segments:
            if seg.pipe_id != self.pipe_id:
                raise ValueError(
                    f"segment {seg.segment_id} belongs to {seg.pipe_id}, not {self.pipe_id}"
                )

    @property
    def length(self) -> float:
        """Total pipe length in metres (sum over segments)."""
        return sum(seg.length for seg in self.segments)

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def pipe_class(self) -> PipeClass:
        """CWM when the diameter is at least 300 mm, else RWM."""
        return PipeClass.CWM if self.diameter_mm >= CWM_DIAMETER_MM else PipeClass.RWM
