"""Model-health monitoring: convergence verdicts, metric drift, doctor.

Four layers on top of the telemetry and diagnostics primitives:

* :mod:`repro.monitor.health` — :class:`ChainHealth` folds the samplers'
  per-sweep scalars into a :class:`HealthReport` (per-quantity ESS /
  Geweke z / split-R̂ with a pass/warn/fail verdict), which the run
  journal keeps per cell;
* :mod:`repro.monitor.drift` — per-cell metric history in the run
  journal, compared against saved ``HEALTH_<rev>.json`` baselines;
* :mod:`repro.monitor.report` — :func:`run_report` reads a journalled
  run directory once into a :class:`RunReport` (per-cell state, attempts,
  timing, failures, retries, health, trace summary); ``repro status``
  renders it with :func:`format_status`;
* :mod:`repro.monitor.doctor` — the ``repro doctor <run_dir>``
  subcommand renders the same report: per-cell convergence tables, drift
  flags, failure context, and CI exit codes (0 healthy / 1 warnings / 2
  failures).
"""

from .doctor import DoctorReport, diagnose
from .drift import (
    DEFAULT_BAND,
    DriftFlag,
    DriftReport,
    compare_to_baseline,
    load_baseline,
    metrics_snapshot,
    save_baseline,
)
from .health import (
    ChainHealth,
    HealthReport,
    HealthThresholds,
    QuantityHealth,
)
from .report import CellReport, RunReport, format_status, run_report

__all__ = [
    "DEFAULT_BAND",
    "CellReport",
    "ChainHealth",
    "DoctorReport",
    "DriftFlag",
    "DriftReport",
    "HealthReport",
    "HealthThresholds",
    "QuantityHealth",
    "RunReport",
    "compare_to_baseline",
    "diagnose",
    "format_status",
    "load_baseline",
    "metrics_snapshot",
    "run_report",
    "save_baseline",
]
