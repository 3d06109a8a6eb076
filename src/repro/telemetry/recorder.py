"""The telemetry recorder: hierarchical spans, counters, JSONL traces.

One process-global :class:`TelemetryRecorder` backs the module-level
:func:`span` / :func:`count` helpers that the instrumented
hot paths call. Telemetry is **off by default** and the disabled path is a
single attribute check returning a shared no-op context manager — cheap
enough to leave instrumentation permanently in sweep loops (the perf
smoke's ``telemetry_noop_200k`` check asserts this stays true).

Enabled, the recorder keeps everything in memory (thread-safe; span
parentage via a per-thread stack) and, when given a ``trace_path``,
appends finished spans and counter deltas as JSONL — one JSON
object per ``write`` call, the same torn-line-free append discipline as
the run journal's event log. Counter increments are buffered and flushed
as deltas whenever a top-level span closes (and on :func:`flush`), so a
tight loop bumping ``dpmhbp.sweeps`` costs a dict update, not a write.

Cross-process: :func:`configure` exports ``REPRO_TRACE`` so process-pool
workers (which import this module fresh, or inherit the environment via
fork) auto-configure themselves against the *same* trace file; every line
carries its pid/thread, and the aggregation helpers in
:mod:`repro.telemetry.aggregate` merge them back together. A forked child
starts from an empty recorder: it inherits neither the parent's open span
stack (its own spans are then top-level and flush their counters) nor the
parent's unflushed counter deltas (which only the parent may export).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Environment variable carrying the trace path into worker processes.
TRACE_ENV = "REPRO_TRACE"

#: Name of the trace file inside a run directory (written by ``--trace``).
TRACE_NAME = "trace.jsonl"

#: In-memory span retention cap; the trace file keeps the full history.
MAX_RETAINED_SPANS = 20_000


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: what ran, where in the tree, and for how long."""

    name: str
    path: str  # "/"-joined ancestry, e.g. "cell/fit/sweep"
    start_unix: float
    duration_s: float
    attrs: dict[str, Any] = field(default_factory=dict)
    pid: int = 0
    thread: str = ""

    def to_json(self) -> dict:
        return {
            "kind": "span",
            "name": self.name,
            "path": self.path,
            "t": self.start_unix,
            "dur_s": self.duration_s,
            "pid": self.pid,
            "thread": self.thread,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared, reusable no-op context manager for disabled telemetry."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span; closing it records (and possibly exports) the result."""

    __slots__ = ("recorder", "name", "attrs", "_start", "_stack")

    def __init__(self, recorder: "TelemetryRecorder", name: str, attrs: dict):
        self.recorder = recorder
        self.name = name
        self.attrs = attrs
        self._start = 0.0
        self._stack: list[str] | None = None

    def __enter__(self) -> "_Span":
        self._stack = self.recorder._thread_stack()
        self._stack.append(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        duration = time.perf_counter() - self._start
        stack = self._stack if self._stack is not None else [self.name]
        path = "/".join(stack)
        if stack and stack[-1] == self.name:
            stack.pop()
        self.recorder._finish_span(
            SpanRecord(
                name=self.name,
                path=path,
                start_unix=time.time() - duration,
                duration_s=duration,
                attrs=self.attrs,
                pid=os.getpid(),
                thread=threading.current_thread().name,
            ),
            top_level=not stack,
        )


class TelemetryRecorder:
    """Thread-safe collector of spans and counters.

    ``enabled=False`` (the default global recorder) makes every operation
    a no-op; instrumented code never needs its own guard beyond calling
    the module-level helpers.
    """

    def __init__(self, enabled: bool = False, trace_path: str | Path | None = None):
        self.enabled = enabled
        self._trace_path: Path | None = Path(trace_path) if trace_path else None
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list[SpanRecord] = []
        self._dropped_spans = 0
        self.counters: dict[str, float] = {}
        self._pending_counts: dict[str, float] = {}

    # ------------------------------------------------------------- recording
    def span(self, name: str, **attrs: Any) -> "_Span | _NullSpan":
        """A timed context manager; nested spans record their ancestry path."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    def count(self, name: str, n: float = 1) -> None:
        """Increment a counter (buffered; exported on the next flush)."""
        if not self.enabled:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + n
            self._pending_counts[name] = self._pending_counts.get(name, 0.0) + n

    # -------------------------------------------------------------- internals
    def _thread_stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _finish_span(self, record: SpanRecord, top_level: bool) -> None:
        with self._lock:
            if len(self.spans) < MAX_RETAINED_SPANS:
                self.spans.append(record)
            else:
                self._dropped_spans += 1
        self._export(record.to_json())
        if top_level:
            self.flush()

    def _export(self, payload: dict) -> None:
        if self._trace_path is None:
            return
        line = json.dumps(payload, sort_keys=True, default=str) + "\n"
        try:
            with open(self._trace_path, "a", encoding="utf-8") as handle:
                handle.write(line)
        except OSError:
            # Telemetry must never take a run down with it.
            pass

    # ------------------------------------------------------------- lifecycle
    @property
    def trace_path(self) -> Path | None:
        return self._trace_path

    def set_trace_path(self, path: str | Path) -> None:
        """Point the exporter at ``path`` (e.g. the run journal directory)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._trace_path = path
        os.environ[TRACE_ENV] = str(path)

    def flush(self) -> None:
        """Export buffered counter deltas (one ``counters`` line if any)."""
        with self._lock:
            pending, self._pending_counts = self._pending_counts, {}
        if pending:
            self._export(
                {
                    "kind": "counters",
                    "t": time.time(),
                    "pid": os.getpid(),
                    "counts": pending,
                }
            )

    def snapshot(self) -> dict:
        """Point-in-time view of everything collected in this process."""
        with self._lock:
            return {
                "spans": list(self.spans),
                "dropped_spans": self._dropped_spans,
                "counters": dict(self.counters),
            }

    def reset(self) -> None:
        """Drop all collected data (tests; between unrelated runs)."""
        with self._lock:
            self.spans.clear()
            self._dropped_spans = 0
            self.counters.clear()
            self._pending_counts.clear()

    def _forget_parent(self) -> None:
        """Drop what a forked child inherited: locks, span stacks, data."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()


# The process-global recorder. Starts disabled; a worker process spawned
# with REPRO_TRACE in its environment wakes up already exporting.
_recorder = TelemetryRecorder(
    enabled=TRACE_ENV in os.environ, trace_path=os.environ.get(TRACE_ENV) or None
)
# Looked up at fork time: configure() may have replaced the recorder since.
os.register_at_fork(after_in_child=lambda: _recorder._forget_parent())


def get_recorder() -> TelemetryRecorder:
    """The active process-global recorder."""
    return _recorder


def configure(
    trace_path: str | Path | None = None, enabled: bool = True
) -> TelemetryRecorder:
    """Replace the global recorder; with ``trace_path``, export JSONL there.

    The path is also published via the ``REPRO_TRACE`` environment
    variable so process-pool workers trace into the same file.
    """
    global _recorder
    _recorder = TelemetryRecorder(enabled=enabled)
    if trace_path is not None:
        _recorder.set_trace_path(trace_path)
    else:
        os.environ.pop(TRACE_ENV, None)
    return _recorder


def disable() -> None:
    """Back to the zero-overhead no-op recorder."""
    configure(trace_path=None, enabled=False)


def enabled() -> bool:
    return _recorder.enabled


def span(name: str, **attrs: Any) -> "_Span | _NullSpan":
    """Module-level :meth:`TelemetryRecorder.span` on the global recorder."""
    rec = _recorder
    if not rec.enabled:
        return _NULL_SPAN
    return rec.span(name, **attrs)


def count(name: str, n: float = 1) -> None:
    rec = _recorder
    if rec.enabled:
        rec.count(name, n)


def flush() -> None:
    _recorder.flush()

