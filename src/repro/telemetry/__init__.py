"""Zero-dependency observability: spans, counters, traces.

The third leg of the production stool (after the parallel executor and
the journalled run engine): one consistent instrumentation API threaded
through inference, parallel fan-out and the grid engine.

* :func:`span` — hierarchical timed spans (``with span("fit"): ...``),
  thread-safe, with per-thread ancestry paths;
* :func:`count` — sweeps, fits, cache hits, retries;
* :func:`configure` — switch telemetry on, optionally exporting a JSONL
  trace (``--trace`` on every CLI subcommand writes it into the run
  journal's directory so traces resume with the run);
* :mod:`~repro.telemetry.aggregate` — fold a trace back into
  where-the-time-went tables (``repro status`` renders them for a
  journalled run; see :mod:`repro.monitor.report`).

Convergence is not telemetry: each chain's health report lives in its
cell's completion marker (``repro doctor``).

Telemetry is **disabled by default** and the disabled path is a no-op
recorder (one attribute check per call) — cheap enough that the
instrumentation lives permanently in the hot paths; the perf smoke
(``make perfcheck``) asserts the overhead stays unmeasurable.
"""

from .aggregate import (
    SpanStats,
    aggregate_counters,
    aggregate_spans,
    format_trace_report,
    read_trace,
    summarize_trace,
)
from .recorder import (
    MAX_RETAINED_SPANS,
    TRACE_ENV,
    TRACE_NAME,
    SpanRecord,
    TelemetryRecorder,
    configure,
    count,
    disable,
    enabled,
    flush,
    get_recorder,
    span,
)

__all__ = [
    "MAX_RETAINED_SPANS",
    "TRACE_ENV",
    "TRACE_NAME",
    "SpanRecord",
    "SpanStats",
    "TelemetryRecorder",
    "aggregate_counters",
    "aggregate_spans",
    "configure",
    "count",
    "disable",
    "enabled",
    "flush",
    "format_trace_report",
    "get_recorder",
    "read_trace",
    "span",
    "summarize_trace",
]
