"""Cell identity: the frozen spec of one (region, repeat) experiment cell.

:class:`CellSpec` is what :func:`repro.eval.experiment.run_comparison`
ships to its workers. It is the *on-disk identity* of a cell:
:class:`~repro.runs.journal.RunJournal` keys checkpoints by
:attr:`CellSpec.cell_id` and stores :meth:`CellSpec.identity` alongside
them, so a resumed run can prove it is re-assembling the same grid.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

from ..features.builder import FeatureConfig

@dataclass(frozen=True)
class CellSpec:
    """Everything one independent (region, repeat) cell needs to run.

    A cell regenerates/fetches its region from the seed it carries and fits
    a fresh model line-up, so two equal specs produce bit-identical
    :class:`~repro.eval.experiment.RegionRun` results on any executor.
    """

    region: str
    repeat: int
    seed: int | None = None
    scale: float | None = None
    budget: float = 0.01
    fast: bool = True
    feature_config: FeatureConfig | None = None
    models_factory: Callable[[int], list] | None = None

    @property
    def cell_id(self) -> str:
        """Stable on-disk identity, e.g. ``"A-r003"`` (region A, repeat 3)."""
        return f"{self.region}-r{self.repeat:03d}"

    def identity(self) -> dict:
        """JSON-able identity record for the journal.

        The models factory is a callable and cannot round-trip through
        JSON; it is represented by its qualified name (``None`` for the
        default line-up), which is enough to detect a changed line-up on
        resume.
        """
        factory = self.models_factory
        return {
            "region": self.region,
            "repeat": self.repeat,
            "seed": self.seed,
            "scale": self.scale,
            "budget": self.budget,
            "fast": self.fast,
            "feature_config": (
                asdict(self.feature_config) if self.feature_config is not None else None
            ),
            "models_factory": (
                f"{getattr(factory, '__module__', '?')}.{getattr(factory, '__qualname__', repr(factory))}"
                if factory is not None
                else None
            ),
        }
