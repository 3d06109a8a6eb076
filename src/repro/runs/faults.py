"""Deterministic fault injection and the soft per-cell timeout guard.

:class:`FaultInjector` is the test hook the fault-tolerance suite uses to
kill or slow down specific experiment cells on purpose: the
injector carries a plan keyed by :attr:`CellSpec.cell_id` and counts its
trips in ``state_dir`` *files*, so the count survives process boundaries —
a cell retried in a fresh process-pool worker still sees how many faults
it has already absorbed. The injector is inert for every cell not named in
its plan, and the production path never constructs one.

:func:`call_with_timeout` is the soft per-cell timeout: the cell body runs
in a daemon thread and the caller gives up waiting after ``timeout``
seconds. "Soft" because an abandoned cell may keep computing in the
background until its process exits — the guard bounds how long the *grid*
waits, not the CPU the straggler burns.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Recognised fault kinds.
FAULT_KINDS = ("raise", "sleep")


class InjectedFault(RuntimeError):
    """The deterministic failure a ``kind="raise"`` fault produces."""


class CellTimeoutError(RuntimeError):
    """A cell exceeded its soft timeout and was abandoned."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: what happens and for how many attempts.

    ``kind``:

    * ``"raise"`` — raise :class:`InjectedFault` (simulates a crashed cell);
    * ``"sleep"`` — stall for ``delay`` seconds (simulates a straggler, for
      exercising the soft timeout).

    ``times`` bounds how many attempts the fault affects; after that the
    cell runs clean, which is what lets ``on_error="retry"`` tests converge.
    """

    kind: str = "raise"
    times: int = 1
    delay: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")


@dataclass(frozen=True)
class FaultInjector:
    """File-backed deterministic fault plan for experiment cells.

    Picklable (ships to process-pool workers) and frozen (a plan never
    mutates mid-run). Trip counts live in ``state_dir/<cell_id>.trips``.
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
        """Apply the planned fault for ``cell_id``, if any charge remains.

        Called by the cell executor at the top of every attempt. A cell is
        only ever executed by one worker at a time, so the read-increment
        on the count file needs no cross-process lock.
        """
        spec = self.plan.get(cell_id)
        if spec is None:
            return
        used = self.trips(cell_id)
        if used >= spec.times:
            return
        Path(self.state_dir).mkdir(parents=True, exist_ok=True)
        self._count_path(cell_id).write_text(str(used + 1))
        if spec.kind == "sleep":
            time.sleep(spec.delay)
            return
        raise InjectedFault(f"{spec.message} (cell {cell_id})")

    def reset(self) -> None:
        """Forget every trip count (fresh test scenario, same plan)."""
        for path in Path(self.state_dir).glob("*.trips"):
            path.unlink(missing_ok=True)


class CancelToken:
    """Cooperative cancellation flag shared with an abandoned cell body.

    :func:`call_with_timeout` sets the token *before* raising
    :class:`CellTimeoutError`, so the daemon thread it walks away from can
    see it was abandoned. The guarded body must check :attr:`cancelled`
    before any externally visible effect — in particular the worker-side
    journal checkpoint: without the check, a timed-out cell that
    eventually finishes in the background would checkpoint itself as
    *completed* after the grid already recorded it as *failed*, and a
    later resume would silently pick up the contradictory cell.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


def call_with_timeout(
    fn: Callable[[], Any], timeout: float | None, cancel: CancelToken | None = None
) -> Any:
    """Run ``fn()``, abandoning it after ``timeout`` seconds (soft).

    Without a timeout this is a plain call. With one, ``fn`` runs in a
    daemon thread; if it has not finished in time, ``cancel`` (when given)
    is set, then :class:`CellTimeoutError` is raised and the thread is
    left to die with the process. The abandoned body keeps burning CPU —
    the guard bounds how long the *caller* waits — but by observing the
    token it must not produce side effects after abandonment. Exceptions
    from ``fn`` propagate unchanged.
    """
    if timeout is None:
        return fn()
    if timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    outcome: dict[str, Any] = {}
    done = threading.Event()

    def _target() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 — relayed to the caller below
            outcome["error"] = exc
        finally:
            done.set()

    thread = threading.Thread(target=_target, daemon=True, name="cell-timeout-guard")
    thread.start()
    if not done.wait(timeout):
        if cancel is not None:
            cancel.cancel()
        raise CellTimeoutError(f"cell exceeded its soft timeout of {timeout:.3g}s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]
