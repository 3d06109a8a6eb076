"""Fault-isolating cell execution: policy, outcome envelopes, retries.

:func:`execute_cell` is the unit every journalled grid maps over its
executor. It never lets a cell's exception escape — each attempt is
wrapped and timed on the caller's thread, and the result (success or
final failure) comes back as a :class:`CellOutcome` envelope.
The *caller* decides what a failure means (``on_error="raise"`` re-raises
at the grid level; ``"skip"`` drops the cell; ``"retry"`` already happened
here), so a process-pool worker never dies mid-grid and one bad cell can
no longer discard its siblings' work.

Retry semantics (``on_error="retry"``): a failed attempt reruns the
*same* spec, so a crashed cell reruns bit-identically. A region without
test-year failures is no fault of the cell's: region preparation already
draws the region again until it has one
(:func:`~repro.eval.experiment.cell_region_data`).

Completed cells are checkpointed from inside the worker (not after the
grid joins), which is what makes a killed run resumable: everything that
finished before the kill is already on disk. A stuck cell is handled
the same way: kill the run and resume it.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .. import telemetry
from .journal import RunJournal
from .spec import CellSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..eval.experiment import RegionRun

#: Grid-level failure handling modes.
ON_ERROR_MODES = ("raise", "skip", "retry")


@dataclass(frozen=True)
class RunPolicy:
    """How a grid treats failing cells. Frozen and picklable (ships to workers)."""

    on_error: str = "raise"
    retries: int = 2  # extra attempts per cell when on_error == "retry"

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {self.on_error!r}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")

    @property
    def attempts(self) -> int:
        """Total attempts a cell gets under this policy."""
        return 1 + (self.retries if self.on_error == "retry" else 0)


@dataclass
class CellOutcome:
    """Envelope for one cell's execution: success, failure, or checkpoint hit."""

    spec: CellSpec
    status: str  # "ok" | "failed"
    run: "RegionRun | None" = None
    error: str | None = None  # formatted traceback of the final attempt
    error_type: str | None = None
    attempts: int = 1
    duration_s: float = 0.0
    from_checkpoint: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @classmethod
    def restored(cls, spec: CellSpec, run: "RegionRun") -> "CellOutcome":
        return cls(spec=spec, status="ok", run=run, attempts=0, from_checkpoint=True)


def execute_cell(
    task: tuple[CellSpec, Callable[[CellSpec], "RegionRun"], str | None, RunPolicy],
) -> CellOutcome:
    """Run one cell under a policy; never raises for cell-level failures.

    ``task`` is a picklable tuple ``(spec, compute, run_dir, policy)`` —
    ``compute`` must be a module-level function for process pools. With a
    ``run_dir`` the worker journals lifecycle events and checkpoints the
    finished cell atomically before returning.
    """
    spec, compute, run_dir, policy = task
    journal = RunJournal.open(run_dir) if run_dir else None
    cell_id = spec.cell_id

    if journal is not None and journal.cell_done(cell_id):
        # Belt and braces: the parent already filters completed cells, but a
        # concurrent/restarted producer may have finished this one meanwhile.
        try:
            with telemetry.span("cell.restore", cell=cell_id):
                restored = journal.load_cell(spec)
            telemetry.count("cell.restored")
            return CellOutcome.restored(spec, restored)
        except Exception:  # noqa: BLE001 — fall through to recompute
            pass

    start = time.perf_counter()
    last_error: BaseException | None = None
    attempt = 0
    for attempt in range(1, policy.attempts + 1):
        if journal is not None:
            journal.log_event(
                "cell_started", cell=cell_id, attempt=attempt, seed=spec.seed
            )
        try:
            with telemetry.span("cell.attempt", cell=cell_id, attempt=attempt):
                with telemetry.span("cell.compute", cell=cell_id, attempt=attempt):
                    run = compute(spec)
                # Worker-side checkpoint: what makes a killed run resumable.
                if journal is not None:
                    with telemetry.span("cell.checkpoint", cell=cell_id):
                        journal.save_cell(spec, run, attempts=attempt)
        except Exception as exc:  # noqa: BLE001 — envelope, never a bare raise
            last_error = exc
            telemetry.count("cell.failures")
            if journal is not None:
                journal.log_event(
                    "cell_failed",
                    cell=cell_id,
                    attempt=attempt,
                    error_type=type(exc).__name__,
                    error=str(exc),
                )
            if attempt < policy.attempts:
                telemetry.count("cell.retries")
                if journal is not None:
                    journal.log_event("cell_retried", cell=cell_id)
                continue
            break
        duration = time.perf_counter() - start
        if journal is not None:
            journal.log_event(
                "cell_completed",
                cell=cell_id,
                attempt=attempt,
                seed=spec.seed,
                duration_s=duration,
                models=list(run.evaluations),
            )
        return CellOutcome(
            spec=spec, status="ok", run=run, attempts=attempt, duration_s=duration
        )

    error_text = "".join(
        traceback.format_exception(type(last_error), last_error, last_error.__traceback__)
    )
    outcome = CellOutcome(
        spec=spec,
        status="failed",
        error=error_text,
        error_type=type(last_error).__name__,
        attempts=attempt,
        duration_s=time.perf_counter() - start,
    )
    if journal is not None:
        journal.record_failure(
            spec, error=error_text, error_type=outcome.error_type, attempts=attempt
        )
    return outcome


class CellExecutionError(RuntimeError):
    """Raised at grid level for a cell's final failure.

    Under ``on_error="raise"`` that is the first failed cell; under
    ``"skip"``/``"retry"`` it is raised only when every cell failed, and
    ``failures`` then lists them all.
    """

    def __init__(self, outcome: CellOutcome, failures: list[CellOutcome] | None = None):
        self.outcome = outcome
        self.failures = failures if failures is not None else [outcome]
        super().__init__(
            f"cell {outcome.spec.cell_id} failed after {outcome.attempts} attempt(s) "
            f"[{outcome.error_type}]:\n{outcome.error}"
        )
