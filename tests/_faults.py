"""Deterministic fault injection for the fault-tolerance tests.

:class:`FaultInjector` kills chosen experiment cells on purpose. It
carries a plan keyed by :attr:`CellSpec.cell_id` and counts its trips in
``state_dir`` *files*, so a plan with ``times=N`` charges survive a fresh
injector over the same directory. It is inert for every cell not named
in its plan.

The injector reaches production code through one seam: :meth:`wrap`
turns a cell ``compute`` into one that trips the plan first. Tests
monkeypatch ``repro.eval.experiment._comparison_cell`` with it (see
:func:`inject`) and run the grid serially, so the patched function is the
one every cell calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.eval import experiment

#: Recognised fault kinds.
FAULT_KINDS = ("raise",)


class InjectedFault(RuntimeError):
    """The deterministic failure a ``kind="raise"`` fault produces."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: what happens and for how many attempts.

    The one ``kind``, ``"raise"``, raises :class:`InjectedFault`
    (simulates a crashed cell).

    ``times`` bounds how many attempts the fault affects; after that the
    cell runs clean, which is what lets ``on_error="retry"`` tests converge.
    """

    kind: str = "raise"
    times: int = 1
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")


@dataclass(frozen=True)
class FaultInjector:
    """File-backed deterministic fault plan for experiment cells.

    Trip counts live in ``state_dir/<cell_id>.trips``.
    """

    state_dir: str
    plan: dict[str, FaultSpec] = field(default_factory=dict)

    def _count_path(self, cell_id: str) -> Path:
        return Path(self.state_dir) / f"{cell_id}.trips"

    def trips(self, cell_id: str) -> int:
        """How many faults this cell has absorbed so far."""
        path = self._count_path(cell_id)
        try:
            return int(path.read_text())
        except (OSError, ValueError):
            return 0

    def trip(self, cell_id: str) -> None:
        """Apply the planned fault for ``cell_id``, if any charge remains."""
        spec = self.plan.get(cell_id)
        if spec is None:
            return
        used = self.trips(cell_id)
        if used >= spec.times:
            return
        Path(self.state_dir).mkdir(parents=True, exist_ok=True)
        self._count_path(cell_id).write_text(str(used + 1))
        raise InjectedFault(f"{spec.message} (cell {cell_id})")

    def reset(self) -> None:
        """Forget every trip count (fresh test scenario, same plan)."""
        for path in Path(self.state_dir).glob("*.trips"):
            path.unlink(missing_ok=True)

    def wrap(self, compute: Callable) -> Callable:
        """``compute`` preceded by this plan's fault for the cell, if any."""

        def tripped(spec):
            self.trip(spec.cell_id)
            return compute(spec)

        return tripped


def inject(monkeypatch, injector: FaultInjector) -> None:
    """Route every grid cell through ``injector`` for the rest of the test.

    Only a serial grid is guaranteed to call the patched function: pin
    ``executor="serial"`` so a ``REPRO_EXECUTOR`` set in the environment
    cannot send the cells to a pool.
    """
    monkeypatch.setattr(
        experiment, "_comparison_cell", injector.wrap(experiment._comparison_cell)
    )
