"""``repro doctor <run_dir>`` — one verdict over a journalled run's health.

The doctor folds three independent signals into a single CI-friendly
exit code (0 healthy / 1 warnings / 2 failures):

* **convergence** — the health report each chain-fitting model (in the
  default line-up, :class:`~repro.core.dpmhbp.DPMHBPModel`) left in its
  cell's completion marker, one verdict per (cell, model); completed
  cells that carry no report at all are a warning, never a pass;
* **drift** — the run's per-cell metrics vs. a ``HEALTH_<rev>.json``
  baseline (omitted when no baseline is given or discoverable);
* **failures** — cells whose last attempt failed, with error types and
  retry counts pulled from the journal.

``nan`` diagnostics stay "undiagnosable": they are printed but never
escalate the verdict. The doctor reads only the journal, so its output
for a finished run is the same before and after a ``--resume``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .. import telemetry
from .drift import DEFAULT_BAND, DriftReport, compare_to_baseline, load_baseline, metrics_snapshot
from .health import HealthReport, VERDICT_CODES

#: Verdict → process exit code (the doctor's contract with CI).
EXIT_CODES = {"pass": 0, "undiagnosable": 0, "warn": 1, "fail": 2}


@dataclass
class DoctorReport:
    """Everything ``repro doctor`` found, plus the folded verdict."""

    run_dir: str
    verdict: str = "pass"
    health: dict[str, HealthReport] = field(default_factory=dict)
    drift: DriftReport | None = None
    cells_completed: int = 0
    cells_failed: dict[str, dict] = field(default_factory=dict)
    retries: int = 0

    @property
    def exit_code(self) -> int:
        return EXIT_CODES.get(self.verdict, 1)

    def to_json(self) -> dict:
        return {
            "run_dir": self.run_dir,
            "verdict": self.verdict,
            "exit_code": self.exit_code,
            "health": {label: r.to_json() for label, r in self.health.items()},
            "drift": self.drift.to_json() if self.drift is not None else None,
            "cells_completed": self.cells_completed,
            "cells_failed": {
                cell: {
                    "error_type": record.get("error_type"),
                    "attempts": record.get("attempts"),
                }
                for cell, record in self.cells_failed.items()
            },
            "retries": self.retries,
        }

    def format(self) -> str:
        lines = [f"run: {self.run_dir}"]
        lines.append(
            f"cells: {self.cells_completed} completed, "
            f"{len(self.cells_failed)} failed, {self.retries} retried attempt(s)"
        )
        for cell, record in sorted(self.cells_failed.items()):
            lines.append(
                f"FAILED {cell}: {record.get('error_type', '?')} "
                f"after {record.get('attempts', '?')} attempt(s)"
            )
        if self.health:
            lines.append("")
            lines.append("convergence:")
            for label, report in self.health.items():
                lines.append(f"[{label}]")
                lines.append(report.format())
        else:
            lines.append("convergence: no completed cell carries a health report")
        lines.append("")
        if self.drift is not None:
            lines.append("drift:")
            lines.append(self.drift.format())
            lines.append("")
        lines.append(f"doctor verdict: {self.verdict.upper()} (exit {self.exit_code})")
        return "\n".join(lines)


def diagnose(
    run_dir: str | Path,
    baseline: str | Path | None = None,
    band: float = DEFAULT_BAND,
) -> DoctorReport:
    """Inspect a journalled run directory and fold a doctor verdict.

    Raises :class:`~repro.runs.journal.JournalError` when ``run_dir`` is
    not a run directory. When telemetry is enabled, the findings are also
    published as gauges (``repro_chain_rhat``, ``repro_doctor_health``,
    …) so ``--metrics-out`` exports a scrape-ready snapshot.
    """
    from ..runs.journal import RunJournal

    run_dir = Path(run_dir)
    journal = RunJournal.open(run_dir)
    report = DoctorReport(run_dir=str(run_dir))
    report.cells_completed = len(journal.completed_cells())
    report.cells_failed = journal.failed_cells()
    report.retries = sum(
        1 for event in journal.events() if event.get("event") == "cell_retried"
    )
    report.health = {
        f"{cell}/{model}": health
        for cell, models in journal.cell_health().items()
        for model, health in models.items()
    }
    if baseline is not None:
        report.drift = compare_to_baseline(
            load_baseline(baseline), metrics_snapshot(run_dir), band=band
        )

    # Fold: failures dominate, then chain-health, then drift warnings.
    # A run with no health report to fold is a warning, not a pass.
    level = 0 if report.health else 1
    rank = {"pass": 0, "undiagnosable": 0, "warn": 1, "fail": 2}
    for health in report.health.values():
        level = max(level, rank.get(health.verdict, 1))
    if report.drift is not None and not report.drift.ok:
        level = max(level, 1)
    if report.cells_failed:
        level = max(level, 2)
    report.verdict = {0: "pass", 1: "warn", 2: "fail"}[level]

    if telemetry.enabled():
        for health in report.health.values():
            health.publish_gauges()
        telemetry.gauge("doctor.health", VERDICT_CODES.get(report.verdict, 1.0))
        telemetry.gauge("doctor.cells_completed", float(report.cells_completed))
        telemetry.gauge("doctor.cells_failed", float(len(report.cells_failed)))
        if report.drift is not None:
            telemetry.gauge("doctor.drift_flags", float(len(report.drift.flags)))
    return report
