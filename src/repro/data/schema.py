"""Record schema for failure data.

Mirrors the paper's data collection section: *network data* consists of
pipe IDs, attributes, locations (connected line segments) and environmental
factors; *failure data* contains pipe IDs, failure dates and failure
locations, precise enough to match each failure to a pipe segment.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..network.geometry import Point


@dataclass(frozen=True, order=True)
class FailureRecord:
    """One failure event, matched to a pipe segment.

    ``year`` is the calendar year of the failure (the models work on the
    binary pipe/segment × year matrices of Fig. 18.3); ``location`` is the
    failure's coordinates, by construction on the failed segment.
    """

    year: int
    pipe_id: str
    segment_id: str
    location: Point

    def __post_init__(self) -> None:
        if self.year < 1800 or self.year > 2200:
            raise ValueError(f"implausible failure year {self.year}")
