"""The soft per-cell timeout guard and its cancellation token.

:func:`call_with_timeout` is the soft per-cell timeout: the cell body runs
in a daemon thread and the caller gives up waiting after ``timeout``
seconds. "Soft" because an abandoned cell may keep computing in the
background until its process exits — the guard bounds how long the *grid*
waits, not the CPU the straggler burns.
"""

from __future__ import annotations

import threading
from typing import Any, Callable


class CellTimeoutError(RuntimeError):
    """A cell exceeded its soft timeout and was abandoned."""


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
