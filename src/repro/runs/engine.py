"""Fault-isolating cell execution: policy, outcome envelopes, retries.

:func:`execute_cell` is the unit every journalled grid maps over its
executor. It never lets a cell's exception escape — each attempt is
wrapped, timed, optionally guarded by the soft timeout, and the result
(success or final failure) comes back as a :class:`CellOutcome` envelope.
The *caller* decides what a failure means (``on_error="raise"`` re-raises
at the grid level; ``"skip"`` drops the cell; ``"retry"`` already happened
here), so a process-pool worker never dies mid-grid and one bad cell can
no longer discard its siblings' work.

Retry semantics (``on_error="retry"``):

* transient faults (anything but the degenerate-region case) retry the
  *same* spec — a crashed cell reruns bit-identically;
* :class:`~repro.eval.experiment.NoTestFailuresError` — the known "this
  generated region has no test-year failures" mode — retries a
  deterministically *reseeded* spec (:meth:`CellSpec.reseeded`), because
  rerunning the same degenerate seed can only fail again.

Completed cells are checkpointed from inside the worker (not after the
grid joins), which is what makes a killed run resumable: everything that
finished before the kill is already on disk. The checkpoint runs inside
the timeout-guarded attempt and is suppressed once the attempt's
:class:`~repro.runs.faults.CancelToken` is cancelled, so a timed-out cell
that finishes late in its abandoned daemon thread can no longer record
itself as completed after the grid marked it failed.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .. import telemetry
from .faults import CancelToken, FaultInjector, call_with_timeout
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
    cell_timeout: float | None = None  # soft, seconds
    fault_injector: FaultInjector | None = None  # tests only

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {self.on_error!r}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be positive, got {self.cell_timeout}")

    @property
    def attempts(self) -> int:
        """Total attempts a cell gets under this policy."""
        return 1 + (self.retries if self.on_error == "retry" else 0)


@dataclass
class CellOutcome:
    """Envelope for one cell's execution: success, failure, or checkpoint hit."""

    spec: CellSpec  # the spec that actually ran (reseeded retries differ from the grid's)
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
    from ..eval.experiment import NoTestFailuresError

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

    current = spec
    start = time.perf_counter()
    last_error: BaseException | None = None
    attempt = 0
    for attempt in range(1, policy.attempts + 1):
        if journal is not None:
            journal.log_event(
                "cell_started", cell=cell_id, attempt=attempt, seed=current.seed
            )
        # Fresh token per attempt: timing out attempt N must not poison a
        # clean attempt N+1 of the same cell.
        token = CancelToken()

        def _attempt(
            spec_now: CellSpec = current,
            attempt_now: int = attempt,
            token: CancelToken = token,
        ) -> "RegionRun":
            # The injector trips inside the guarded call so an injected
            # stall ("sleep" faults) is subject to the soft timeout too.
            if policy.fault_injector is not None:
                policy.fault_injector.trip(cell_id)
            with telemetry.span("cell.compute", cell=cell_id, attempt=attempt_now):
                run = compute(spec_now)
            # Worker-side checkpoint (what makes a killed run resumable) —
            # but only while the grid is still waiting on this attempt. An
            # abandoned (timed-out) body that finishes late must not plant
            # a completion marker over the failure the grid recorded;
            # ``save_cell`` re-checks the token before the marker lands.
            if journal is not None and not token.cancelled:
                with telemetry.span("cell.checkpoint", cell=cell_id):
                    journal.save_cell(
                        spec_now,
                        run,
                        attempts=attempt_now,
                        abandoned=lambda: token.cancelled,
                    )
            return run

        try:
            with telemetry.span("cell.attempt", cell=cell_id, attempt=attempt):
                run = call_with_timeout(_attempt, policy.cell_timeout, cancel=token)
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
                if isinstance(exc, NoTestFailuresError):
                    current = spec.reseeded(attempt)
                telemetry.count("cell.retries")
                if journal is not None:
                    journal.log_event(
                        "cell_retried", cell=cell_id, next_seed=current.seed
                    )
                continue
            break
        duration = time.perf_counter() - start
        if journal is not None:
            journal.log_event(
                "cell_completed",
                cell=cell_id,
                attempt=attempt,
                seed=current.seed,
                duration_s=duration,
                models=list(run.evaluations),
            )
        return CellOutcome(
            spec=current, status="ok", run=run, attempts=attempt, duration_s=duration
        )

    error_text = "".join(
        traceback.format_exception(type(last_error), last_error, last_error.__traceback__)
    )
    outcome = CellOutcome(
        spec=current,
        status="failed",
        error=error_text,
        error_type=type(last_error).__name__,
        attempts=attempt,
        duration_s=time.perf_counter() - start,
    )
    if journal is not None:
        journal.record_failure(
            current, error=error_text, error_type=outcome.error_type, attempts=attempt
        )
    return outcome


class CellExecutionError(RuntimeError):
    """Raised at grid level (``on_error="raise"``) for a cell's final failure."""

    def __init__(self, outcome: CellOutcome):
        self.outcome = outcome
        super().__init__(
            f"cell {outcome.spec.cell_id} failed after {outcome.attempts} attempt(s) "
            f"[{outcome.error_type}]:\n{outcome.error}"
        )
