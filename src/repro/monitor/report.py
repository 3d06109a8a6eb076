"""One run report over a journalled run directory.

:func:`run_report` reads a run directory once — the manifest (grid
shape), the completion markers and the health reports they carry, the
``.failed.json`` records, the event log (attempts, retries, timing,
liveness) and, when the run was traced, ``trace.jsonl`` — and returns a
:class:`RunReport` of plain data. Two commands render it:

* ``repro status`` (:func:`format_status`) — progress, timing, failures,
  each cell's worst convergence verdict, and the trace tables;
* ``repro doctor`` (:func:`repro.monitor.doctor.diagnose`) — the
  per-(cell, model) convergence tables, failure context, and one CI
  exit code.

Everything here is read-only, so it works on an in-flight run (a
concurrent writer only ever appends whole lines / renames complete
files) as well as on a finished one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..telemetry import TRACE_NAME, format_trace_report, summarize_trace
from .health import HealthReport, fold_verdicts


@dataclass
class CellReport:
    """One grid cell's lifecycle as the journal records it."""

    cell_id: str
    state: str  # "done" | "failed" | "running" | "pending"
    attempts: int = 0
    duration_s: float | None = None
    error_type: str | None = None
    error: str | None = None
    verdict: str | None = None  # worst health verdict; None without a report


@dataclass
class RunReport:
    """Everything ``repro status`` and ``repro doctor`` render, as plain data."""

    run_dir: str
    fingerprint: str
    regions: list[str]
    n_repeats: int
    cells: list[CellReport]
    retries: dict[str, int] = field(default_factory=dict)
    health: dict[str, HealthReport] = field(default_factory=dict)  # "<cell>/<model>"
    started_unix: float | None = None
    finished: bool = False
    trace_summary: dict | None = None

    @property
    def total(self) -> int:
        return len(self.cells)

    def counts(self) -> dict[str, int]:
        out = {"done": 0, "failed": 0, "running": 0, "pending": 0}
        for cell in self.cells:
            out[cell.state] += 1
        return out


def run_report(run_dir: str | Path) -> RunReport:
    """Read a run directory's artifacts into one :class:`RunReport`.

    Raises :class:`~repro.runs.journal.JournalError` when ``run_dir`` is
    not a run directory.
    """
    from ..runs import CellSpec, RunJournal

    journal = RunJournal.open(run_dir)
    config = journal.manifest.get("config", {})
    regions = [str(r) for r in (config.get("regions") or [])]
    n_repeats = int(config.get("n_repeats") or 0)
    completed = journal.completed_cells()
    failed = journal.failed_cells()
    cell_health = journal.cell_health()

    # Per-cell evidence from the event log. Each run_started (a fresh run
    # or a resume) reopens the run until its run_completed/run_aborted; a
    # cell is live from its cell_started until that attempt ends.
    attempts: dict[str, int] = {}
    durations: dict[str, float] = {}
    retries: dict[str, int] = {}
    live: set[str] = set()
    started_unix: float | None = None
    finished = False
    for event in journal.events():
        kind = event.get("event")
        cell = event.get("cell")
        if kind == "run_started":
            started_unix = float(event.get("t", 0.0)) or None
            finished = False
            live.clear()
        elif kind in ("run_completed", "run_aborted"):
            finished = True
        elif not cell:
            continue
        elif kind == "cell_started":
            live.add(cell)
            attempts[cell] = max(attempts.get(cell, 0), int(event.get("attempt", 1)))
        elif kind == "cell_failed":
            live.discard(cell)
        elif kind == "cell_retried":
            retries[cell] = retries.get(cell, 0) + 1
        elif kind == "cell_completed":
            live.discard(cell)
            durations[cell] = float(event.get("duration_s", 0.0))

    expected = [
        CellSpec(region=region, repeat=repeat).cell_id
        for region in regions
        for repeat in range(n_repeats)
    ]
    # A journal can hold cells outside the manifest grid (defensive).
    extras = sorted((completed | set(failed)) - set(expected))
    cells: list[CellReport] = []
    for cell_id in expected + extras:
        failure = failed.get(cell_id, {})
        if cell_id in completed:
            state = "done"
        elif cell_id in live and not finished:
            state = "running"
        elif cell_id in failed:
            state = "failed"
        else:
            state = "pending"
        models = cell_health.get(cell_id, {})
        cells.append(
            CellReport(
                cell_id=cell_id,
                state=state,
                # A failure record counts the attempts of the execution
                # that gave up; the event log spans every execution.
                attempts=(
                    int(failure.get("attempts") or 0)
                    if state == "failed"
                    else attempts.get(cell_id, 0)
                ),
                duration_s=durations.get(cell_id),
                error_type=failure.get("error_type"),
                error=failure.get("error"),
                verdict=(
                    fold_verdicts(h.verdict for h in models.values()) if models else None
                ),
            )
        )

    trace_path = Path(run_dir) / TRACE_NAME
    return RunReport(
        run_dir=str(journal.run_dir),
        fingerprint=journal.fingerprint,
        regions=regions,
        n_repeats=n_repeats,
        cells=cells,
        retries=retries,
        health={
            f"{cell}/{model}": health
            for cell, models in cell_health.items()
            for model, health in models.items()
        },
        started_unix=started_unix,
        finished=finished,
        trace_summary=summarize_trace(trace_path) if trace_path.exists() else None,
    )


_STATE_GLYPH = {"done": "#", "failed": "x", "running": ">", "pending": "."}


def format_status(report: RunReport, verbose: bool = False) -> str:
    """Render a :class:`RunReport` as the ``repro status`` report."""
    counts = report.counts()
    lines = [
        f"run: {report.run_dir}  (fingerprint {report.fingerprint[:12]}…)",
        f"grid: regions {', '.join(report.regions) or '?'} × {report.n_repeats} "
        f"repeat(s) = {report.total} cell(s)   "
        f"[{'finished' if report.finished else 'in flight'}]",
        f"progress: {counts['done']}/{report.total} done, {counts['failed']} failed, "
        f"{counts['running']} running, {counts['pending']} pending",
    ]
    if report.started_unix is not None:
        age = time.time() - report.started_unix
        lines.append(f"last (re)start: {age:.0f}s ago")

    by_region: dict[str, list[CellReport]] = {}
    for cell in report.cells:
        by_region.setdefault(cell.cell_id.rsplit("-r", 1)[0], []).append(cell)
    for region, region_cells in by_region.items():
        strip = "".join(_STATE_GLYPH[c.state] for c in region_cells)
        done = sum(c.state == "done" for c in region_cells)
        lines.append(f"  region {region:<4s} [{strip}] {done}/{len(region_cells)}")

    timed = [c for c in report.cells if c.duration_s is not None]
    # Verbose renders the table even when nothing has a duration yet (a
    # freshly started or traced-but-uncompleted run has cells worth
    # listing); the total/mean footer still needs at least one timing.
    if timed or (verbose and report.cells):
        lines.append("")
        lines.append(
            f"{'cell':<12s} {'state':<8s} {'attempts':>8s} {'duration':>10s}  verdict"
        )
        for cell in report.cells:
            if cell.duration_s is None and not verbose:
                continue
            dur = f"{cell.duration_s:.2f}s" if cell.duration_s is not None else "—"
            lines.append(
                f"{cell.cell_id:<12s} {cell.state:<8s} {cell.attempts:>8d} {dur:>10s}"
                f"  {cell.verdict or '—'}"
            )
        if timed:
            total_s = sum(c.duration_s for c in timed)
            mean_s = total_s / len(timed)
            lines.append(
                f"cell time: total {total_s:.2f}s, mean {mean_s:.2f}s over {len(timed)} cell(s)"
            )

    failures = [c for c in report.cells if c.state == "failed"]
    if failures:
        lines.append("")
        lines.append("failures:")
        for cell in failures:
            first = (cell.error or "").strip().splitlines()
            detail = first[-1] if first else ""
            lines.append(
                f"  {cell.cell_id}: {cell.error_type or '?'} "
                f"after {cell.attempts} attempt(s)  {detail[:80]}"
            )
    if report.retries:
        total_retries = sum(report.retries.values())
        per_cell = ", ".join(
            f"{cell}×{n}" for cell, n in sorted(report.retries.items())
        )
        lines.append(f"retries: {total_retries} ({per_cell})")

    if report.trace_summary is not None:
        lines.append("")
        lines.append(f"trace ({TRACE_NAME}):")
        lines.append(format_trace_report(report.trace_summary))
    return "\n".join(lines)
