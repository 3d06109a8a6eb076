"""Executor abstraction: serial or multi-process fan-out.

:func:`parallel_map` is an order-preserving ``map`` whose backend is
chosen by an :class:`ExecutorConfig` — built explicitly, or resolved from
the ``REPRO_JOBS`` (worker count) and ``REPRO_EXECUTOR``
(``serial``/``processes``) environment variables via
:func:`resolve_executor`.

Backend notes
-------------
* ``serial`` — a plain loop; always available, the reference semantics.
* ``processes`` — requires the mapped function and its arguments to be
  picklable (module-level functions, plain data). Each map builds its own
  context-managed ``ProcessPoolExecutor`` sized to the work and joins it
  before returning, so nested maps inside a worker (a grid cell fitting
  multi-chain DPMHBP) are safe and no worker outlives its map. Workers
  trace into the parent's file: a forked worker inherits the recorder, a
  spawned one reads ``REPRO_TRACE``. Items go one per IPC round-trip,
  since the repo's maps are a few heavy items (grid cells, MCMC chains).

Because every unit of work seeds its own ``np.random.Generator``, both
backends produce bit-identical results; the determinism tests in
``tests/test_parallel.py`` enforce this.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Generic, Iterable, Sequence, TypeVar

from .. import telemetry

T = TypeVar("T")
R = TypeVar("R")

#: Recognised executor modes (the CLI's ``--executor`` choices).
MODES = ("serial", "processes")


@dataclass(frozen=True)
class ExecutorConfig:
    """How to fan independent units of work across workers."""

    mode: str = "serial"
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    @property
    def is_serial(self) -> bool:
        return self.mode == "serial" or self.jobs == 1


def _normalise_mode(mode: str) -> str:
    normalised = mode.strip().lower()
    if normalised not in MODES:
        raise ValueError(f"unknown executor mode {mode!r}; use one of {list(MODES)}")
    return normalised


def _validate_jobs(jobs: int, source: str) -> None:
    """Reject non-positive worker counts where the value enters the system.

    Validating at resolution time (not only in :class:`ExecutorConfig`)
    names the *source* of the bad value — ``REPRO_JOBS=0`` reads very
    differently from a buggy ``jobs=-2`` argument — and guarantees no
    worker-count ever reaches ``ProcessPoolExecutor`` (which rejects
    ``max_workers <= 0`` with an opaque crash).
    """
    if jobs < 1:
        raise ValueError(
            f"jobs must be >= 1, got {jobs} (from {source}); "
            "use jobs=1 (or mode='serial') for serial execution"
        )


def resolve_executor(
    jobs: int | None = None, mode: str | None = None
) -> ExecutorConfig:
    """Build a config from explicit arguments, falling back to the environment.

    Precedence per field: explicit argument → environment variable →
    default. ``jobs`` defaults to the CPU count whenever a non-serial mode
    is requested without a count, and mode defaults to ``processes``
    whenever a count > 1 is requested without a mode. ``jobs`` must be
    >= 1 wherever it comes from — there is no "0 = auto" or
    negative-count convention.
    """
    if jobs is not None:
        _validate_jobs(jobs, "the jobs argument")
    else:
        raw = os.environ.get("REPRO_JOBS")
        if raw is not None:
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(f"REPRO_JOBS must be an integer, got {raw!r}") from None
            _validate_jobs(jobs, f"REPRO_JOBS={raw}")
    if mode is None:
        raw_mode = os.environ.get("REPRO_EXECUTOR")
        mode = _normalise_mode(raw_mode) if raw_mode else None
    else:
        mode = _normalise_mode(mode)

    if mode is None:
        mode = "serial" if jobs in (None, 1) else "processes"
    if jobs is None:
        jobs = 1 if mode == "serial" else (os.cpu_count() or 1)
    return ExecutorConfig(mode=mode, jobs=jobs)


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    config: ExecutorConfig | None = None,
) -> list[R]:
    """Apply ``fn`` to every item, preserving input order.

    The serial path is a plain loop (zero overhead, trivially debuggable).
    The processes backend builds a per-call pool capped at ``len(items)``
    workers and shuts it down before returning. Worker exceptions
    propagate to the caller, as they would serially.
    """
    config = config or ExecutorConfig()
    work: Sequence[T] = list(items)
    if not work:
        return []
    if config.is_serial or len(work) == 1:
        with telemetry.span("parallel.map", mode="serial", jobs=1, items=len(work)):
            return [fn(item) for item in work]
    n_workers = min(config.jobs, len(work))
    with telemetry.span(
        "parallel.map", mode=config.mode, jobs=n_workers, items=len(work)
    ):
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            return list(pool.map(fn, work))


class WorkError(RuntimeError):
    """Raised by :meth:`WorkResult.unwrap` for a captured worker failure."""


@dataclass
class WorkResult(Generic[R]):
    """Envelope for one unit of mapped work: value or captured error.

    Exceptions are carried as *strings* (type name + formatted traceback)
    rather than live objects, so envelopes from process-pool workers are
    always picklable regardless of what the worker raised.
    """

    index: int
    value: R | None = None
    error: str | None = None
    error_type: str | None = None
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> R:
        """The value, or :class:`WorkError` re-raising the captured failure."""
        if self.error is not None:
            raise WorkError(
                f"work item {self.index} failed [{self.error_type}]:\n{self.error}"
            )
        return self.value  # type: ignore[return-value]


class _EnvelopedCall(Generic[T, R]):
    """Picklable wrapper that turns ``fn(item)`` into a :class:`WorkResult`.

    A class (not a closure) so process pools can pickle it whenever ``fn``
    itself is picklable.
    """

    def __init__(self, fn: Callable[[T], R]):
        self.fn = fn

    def __call__(self, indexed: tuple[int, T]) -> WorkResult[R]:
        index, item = indexed
        start = time.perf_counter()
        try:
            with telemetry.span("parallel.worker", index=index):
                value = self.fn(item)
        except Exception as exc:  # noqa: BLE001 — the envelope is the contract
            telemetry.count("parallel.worker.errors")
            return WorkResult(
                index=index,
                error="".join(
                    traceback.format_exception(type(exc), exc, exc.__traceback__)
                ),
                error_type=type(exc).__name__,
                duration_s=time.perf_counter() - start,
            )
        return WorkResult(
            index=index, value=value, duration_s=time.perf_counter() - start
        )


def safe_parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    config: ExecutorConfig | None = None,
) -> list[WorkResult[R]]:
    """:func:`parallel_map` with error-wrapping envelopes instead of bare raises.

    Every item yields a :class:`WorkResult` in input order; a failing item
    captures its exception (type name + traceback text) without aborting
    its siblings. This is the fan-out primitive fault-tolerant callers
    (the journalled experiment grid) build on.
    """
    return parallel_map(_EnvelopedCall(fn), list(enumerate(items)), config)
