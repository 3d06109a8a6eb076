"""``repro doctor <run_dir>`` — one verdict over a journalled run's health.

The doctor folds two signals into a single CI-friendly exit code
(0 healthy / 1 warnings / 2 failures):

* **convergence** — the health report each chain-fitting model (in the
  default line-up, :class:`~repro.core.dpmhbp.DPMHBPModel`) left in its
  cell's completion marker, one verdict per (cell, model); completed
  cells that carry no report at all are a warning, never a pass;
* **failures** — cells whose last attempt failed, with error types and
  retry counts pulled from the journal.

``nan`` diagnostics stay "undiagnosable": they are printed but never
escalate the verdict (a stuck chain is graded, see
:mod:`repro.monitor.health`). The doctor renders the same
:class:`~repro.monitor.report.RunReport` as ``repro status``, read only
from the journal, so its output for a finished run is the same before
and after a ``--resume``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .health import HealthReport
from .report import CellReport, RunReport, run_report

#: Verdict → severity rank, which is also the process exit code (the
#: doctor's contract with CI).
EXIT_CODES = {"pass": 0, "undiagnosable": 0, "warn": 1, "fail": 2}


@dataclass
class DoctorReport:
    """The run report ``repro doctor`` renders, plus the folded verdict."""

    run: RunReport
    verdict: str = "pass"

    @property
    def run_dir(self) -> str:
        return self.run.run_dir

    @property
    def health(self) -> dict[str, HealthReport]:
        return self.run.health

    @property
    def cells_completed(self) -> int:
        return self.run.counts()["done"]

    @property
    def cells_failed(self) -> dict[str, CellReport]:
        return {c.cell_id: c for c in self.run.cells if c.state == "failed"}

    @property
    def retries(self) -> int:
        return sum(self.run.retries.values())

    @property
    def exit_code(self) -> int:
        return EXIT_CODES.get(self.verdict, 1)

    def to_json(self) -> dict:
        return {
            "run_dir": self.run_dir,
            "verdict": self.verdict,
            "exit_code": self.exit_code,
            "health": {label: r.to_json() for label, r in self.health.items()},
            "cells_completed": self.cells_completed,
            "cells_failed": {
                cell_id: {"error_type": cell.error_type, "attempts": cell.attempts}
                for cell_id, cell in self.cells_failed.items()
            },
            "retries": self.retries,
        }

    def format(self) -> str:
        cells_failed = self.cells_failed
        lines = [f"run: {self.run_dir}"]
        lines.append(
            f"cells: {self.cells_completed} completed, "
            f"{len(cells_failed)} failed, {self.retries} retried attempt(s)"
        )
        for cell_id, cell in sorted(cells_failed.items()):
            lines.append(
                f"FAILED {cell_id}: {cell.error_type or '?'} after {cell.attempts} attempt(s)"
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
        lines.append(f"doctor verdict: {self.verdict.upper()} (exit {self.exit_code})")
        return "\n".join(lines)


def diagnose(run_dir: str | Path) -> DoctorReport:
    """Inspect a journalled run directory and fold a doctor verdict.

    Raises :class:`~repro.runs.journal.JournalError` when ``run_dir`` is
    not a run directory.
    """
    report = DoctorReport(run=run_report(run_dir))

    # Fold: failed cells dominate, then chain health.
    # A run with no health report to fold is a warning, not a pass.
    level = 0 if report.health else 1
    for health in report.health.values():
        level = max(level, EXIT_CODES.get(health.verdict, 1))
    if report.cells_failed:
        level = max(level, 2)
    report.verdict = {0: "pass", 1: "warn", 2: "fail"}[level]
    return report
