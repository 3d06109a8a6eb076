"""Zero-dependency observability: spans, counters, gauges, traces.

The third leg of the production stool (after the parallel executor and
the journalled run engine): one consistent instrumentation API threaded
through inference, parallel fan-out and the grid engine.

* :func:`span` — hierarchical timed spans (``with span("fit"): ...``),
  thread-safe, with per-thread ancestry paths;
* :func:`count` / :func:`gauge` — sweeps, acceptance rates, cluster
  counts, cache hits, retries;
* :func:`configure` — switch telemetry on, optionally exporting a JSONL
  trace (``--trace`` on every CLI subcommand writes it into the run
  journal's directory so traces resume with the run);
* :mod:`~repro.telemetry.aggregate` — fold a trace back into
  where-the-time-went tables (``repro status`` renders them for a
  journalled run; see :mod:`repro.monitor.report`).

Telemetry is **disabled by default** and the disabled path is a no-op
recorder (one attribute check per call) — cheap enough that the
instrumentation lives permanently in the hot paths; the perf smoke
(``make perfcheck``) asserts the overhead stays unmeasurable.
"""

from .aggregate import (
    SpanStats,
    aggregate_counters,
    aggregate_gauges,
    aggregate_spans,
    format_trace_report,
    read_trace,
    summarize_trace,
)
from .prometheus import (
    METRIC_PREFIX,
    render_metrics,
    render_recorder,
    sanitize_metric_name,
    write_metrics,
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
    gauge,
    get_recorder,
    span,
)

__all__ = [
    "MAX_RETAINED_SPANS",
    "METRIC_PREFIX",
    "TRACE_ENV",
    "TRACE_NAME",
    "SpanRecord",
    "SpanStats",
    "TelemetryRecorder",
    "aggregate_counters",
    "aggregate_gauges",
    "aggregate_spans",
    "configure",
    "count",
    "disable",
    "enabled",
    "flush",
    "format_trace_report",
    "gauge",
    "get_recorder",
    "read_trace",
    "render_metrics",
    "render_recorder",
    "sanitize_metric_name",
    "span",
    "summarize_trace",
    "write_metrics",
]
