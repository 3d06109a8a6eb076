"""Run journal + checkpoint subsystem: fault-tolerant, resumable grids.

``repro.runs`` turns a grid experiment from "a script that must finish"
into "an engine that survives": every :func:`repro.run_comparison`
invocation can own a run directory whose :class:`RunJournal` records a
config-fingerprinted manifest, an append-only JSONL event log, and an
atomic per-cell checkpoint for every completed (region, repeat) cell. A
re-invocation with ``resume=<run_dir>`` skips finished cells
*bit-identically*; failing cells are isolated by :class:`RunPolicy`
(``on_error="raise"/"skip"/"retry"``, bounded same-seed retries). A
stuck run is killed and resumed; there is no per-cell timeout.

Layering: this package owns identity (:class:`CellSpec`), persistence
(:class:`RunJournal`) and policy (:class:`RunPolicy`/:func:`execute_cell`);
the experiment protocol itself stays in :mod:`repro.eval.experiment`,
and reading a run back is :mod:`repro.monitor`'s job
(:func:`repro.monitor.run_report`).
"""

from .engine import (
    ON_ERROR_MODES,
    CellExecutionError,
    CellOutcome,
    RunPolicy,
    execute_cell,
)
from .journal import (
    CheckpointCorruptError,
    JournalError,
    RunJournal,
    config_fingerprint,
)
from .spec import CellSpec

__all__ = [
    "ON_ERROR_MODES",
    "CellExecutionError",
    "CellOutcome",
    "RunPolicy",
    "execute_cell",
    "CheckpointCorruptError",
    "JournalError",
    "RunJournal",
    "config_fingerprint",
    "CellSpec",
]
