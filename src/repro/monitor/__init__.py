"""Model-health monitoring: convergence verdicts, the run report, doctor.

Three layers on top of the telemetry and diagnostics primitives:

* :mod:`repro.monitor.health` — :class:`ChainHealth` folds the samplers'
  per-sweep scalars into a :class:`HealthReport` (per-quantity ESS /
  Geweke z / split-R̂ with a pass/warn/fail verdict), which the run
  journal keeps per cell;
* :mod:`repro.monitor.report` — :func:`run_report` reads a journalled
  run directory once into a :class:`RunReport` (per-cell state, attempts,
  timing, failures, retries, health, trace summary); ``repro status``
  renders it with :func:`format_status`;
* :mod:`repro.monitor.doctor` — the ``repro doctor <run_dir>``
  subcommand renders the same report: per-cell convergence tables,
  failure context, and CI exit codes (0 healthy / 1 warnings / 2
  failures).
"""

from .doctor import DoctorReport, diagnose
from .health import ChainHealth, HealthReport, QuantityHealth
from .report import CellReport, RunReport, format_status, run_report

__all__ = [
    "CellReport",
    "ChainHealth",
    "DoctorReport",
    "HealthReport",
    "QuantityHealth",
    "RunReport",
    "diagnose",
    "format_status",
    "run_report",
]
