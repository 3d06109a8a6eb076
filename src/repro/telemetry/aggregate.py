"""Aggregation of JSONL traces into where-the-time-went tables.

The trace file interleaves span and counter lines from every process
and thread that worked on a run. These helpers fold it back into the
numbers a human asks for — total/mean/max per span name and counter
totals — and render the ``docs/performance.md``-style report
``repro status`` and the docs build on. Every helper skips lines of any
other kind, such as the ``"kind": "gauge"`` lines of older traces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .recorder import SpanRecord, TelemetryRecorder

__all__ = [
    "SpanStats",
    "read_trace",
    "aggregate_spans",
    "aggregate_counters",
    "summarize_trace",
    "format_trace_report",
]


@dataclass
class SpanStats:
    """Aggregate timing of every span sharing one name."""

    name: str
    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0
    min_s: float = field(default=float("inf"))

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def add(self, duration_s: float) -> None:
        self.count += 1
        self.total_s += duration_s
        self.max_s = max(self.max_s, duration_s)
        self.min_s = min(self.min_s, duration_s)


def read_trace(path: str | Path) -> list[dict]:
    """Parsed trace lines, skipping any torn/partial trailing writes."""
    path = Path(path)
    if not path.exists():
        return []
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def _span_dicts(records: list[dict | SpanRecord]) -> list[dict]:
    out = []
    for record in records:
        if isinstance(record, SpanRecord):
            out.append(record.to_json())
        elif record.get("kind") == "span":
            out.append(record)
    return out


def aggregate_spans(records: list[dict | SpanRecord]) -> dict[str, SpanStats]:
    """Per-``name`` timing stats over the span records."""
    stats: dict[str, SpanStats] = {}
    for record in _span_dicts(records):
        key = str(record.get("name", "?"))
        stats.setdefault(key, SpanStats(name=key)).add(float(record.get("dur_s", 0.0)))
    return stats


def aggregate_counters(records: list[dict]) -> dict[str, float]:
    """Summed counter deltas across every ``counters`` line in the trace."""
    totals: dict[str, float] = {}
    for record in records:
        if record.get("kind") != "counters":
            continue
        for name, value in (record.get("counts") or {}).items():
            totals[name] = totals.get(name, 0.0) + float(value)
    return totals


def summarize_trace(source: str | Path | list[dict] | TelemetryRecorder) -> dict:
    """One-stop summary of a trace file, parsed records, or a live recorder."""
    if isinstance(source, TelemetryRecorder):
        snap = source.snapshot()
        return {
            "spans": aggregate_spans(snap["spans"]),
            "counters": snap["counters"],
        }
    records = read_trace(source) if isinstance(source, (str, Path)) else source
    return {
        "spans": aggregate_spans(records),
        "counters": aggregate_counters(records),
    }


def format_trace_report(summary: dict, top: int = 15) -> str:
    """Render a summary (see :func:`summarize_trace`) as an aligned table."""
    lines: list[str] = []
    spans: dict[str, SpanStats] = summary.get("spans", {})
    if spans:
        lines.append(
            f"{'span':<28s} {'count':>7s} {'total':>10s} {'mean':>10s} {'max':>10s}"
        )
        ranked = sorted(spans.values(), key=lambda s: s.total_s, reverse=True)
        for stat in ranked[:top]:
            lines.append(
                f"{stat.name:<28s} {stat.count:>7d} {stat.total_s:>9.2f}s"
                f" {1000 * stat.mean_s:>8.1f}ms {1000 * stat.max_s:>8.1f}ms"
            )
        if len(ranked) > top:
            lines.append(f"… {len(ranked) - top} more span name(s)")
    counters = summary.get("counters", {})
    if counters:
        if lines:  # blank separator only between sections, never leading
            lines.append("")
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:<30s} {counters[name]:>12g}")
    if not lines:
        return "no telemetry recorded"
    return "\n".join(lines)
