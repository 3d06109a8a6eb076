"""Metric-drift tracking: per-cell metric history vs. saved baselines.

This module pins the repo's *accuracy* trajectory. ``make health-save``
reads every completed cell's metrics (AUC, budget-restricted AUC) out of
a run journal's completion markers and writes them to
``HEALTH_<rev>.json``; ``make health-compare`` re-reads a run directory
and flags every cell×model×metric that moved beyond a configurable band
from the saved baseline. (Speed is pinned elsewhere: ``gridbench`` end
to end, and pytest-benchmark's save/compare on the sampler suite.)

Band semantics: metrics whose baseline and current values both lie in
``[0, 1]`` (AUC-family) compare on an **absolute** band (default
``0.02``); anything else compares on a **relative** band of the same
numeric value (default 2%⇒band·|baseline|), so unbounded metrics don't
inherit a meaningless absolute tolerance.

A comparison that checked nothing is not a pass: when the run shares no
metric with the baseline (``n_compared == 0``) the verdict is ``warn``,
even though ``missing``/``added`` entries never flag on their own.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

#: Default drift band (absolute for [0,1]-scale metrics, relative otherwise).
DEFAULT_BAND = 0.02

#: Baseline snapshot filename stem.
BASELINE_PREFIX = "HEALTH_"


@dataclass(frozen=True)
class DriftFlag:
    """One cell×model×metric that moved outside the band."""

    cell_id: str
    model: str
    metric: str
    baseline: float
    current: float
    band: float
    relative: bool  # True when the band applied as band·|baseline|

    @property
    def delta(self) -> float:
        return self.current - self.baseline

    @property
    def key(self) -> str:
        return f"{self.cell_id}/{self.model}/{self.metric}"

    def to_json(self) -> dict:
        return {
            "cell_id": self.cell_id,
            "model": self.model,
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "delta": self.delta,
            "band": self.band,
            "relative": self.relative,
        }


@dataclass
class DriftReport:
    """Outcome of comparing a run's metrics against a baseline snapshot."""

    flags: list[DriftFlag] = field(default_factory=list)
    n_compared: int = 0
    missing: list[str] = field(default_factory=list)  # in baseline, not in run
    added: list[str] = field(default_factory=list)  # in run, not in baseline
    baseline_rev: str = "?"

    @property
    def ok(self) -> bool:
        # A gate that found nothing to check must not pass.
        return self.n_compared > 0 and not self.flags

    @property
    def verdict(self) -> str:
        return "pass" if self.ok else "warn"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "n_compared": self.n_compared,
            "baseline_rev": self.baseline_rev,
            "flags": [flag.to_json() for flag in self.flags],
            "missing": list(self.missing),
            "added": list(self.added),
        }

    def format(self) -> str:
        lines = [
            f"compared {self.n_compared} metric(s) against baseline rev "
            f"{self.baseline_rev}"
        ]
        for flag in self.flags:
            kind = "rel" if flag.relative else "abs"
            lines.append(
                f"DRIFT: {flag.key}  {flag.baseline:.4f} -> {flag.current:.4f}"
                f"  (Δ {flag.delta:+.4f}, {kind} band {flag.band:g})"
            )
        if self.missing:
            lines.append(f"missing vs baseline: {', '.join(self.missing)}")
        if self.added:
            lines.append(f"new vs baseline: {', '.join(self.added)}")
        if self.ok:
            lines.append("ok: no metric drifted outside the band")
        elif not self.n_compared:
            lines.append("warn: the run shares no metric with the baseline")
        return "\n".join(lines)


def current_rev() -> str:
    """Short git revision of the working tree, or ``"worktree"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
        return out.stdout.strip() or "worktree"
    except (OSError, subprocess.SubprocessError):
        return "worktree"


def metrics_snapshot(run_dir: str | Path) -> dict:
    """Every completed cell's per-model scalar metrics, as plain data.

    Shape: ``{"fingerprint": ..., "cells": {cell_id: {model: {metric:
    value}}}}`` — exactly what gets persisted to ``HEALTH_<rev>.json``
    and what :func:`compare_to_baseline` consumes on both sides.
    """
    from ..runs.journal import RunJournal

    journal = RunJournal.open(run_dir)
    return {
        "fingerprint": journal.fingerprint,
        "cells": journal.cell_metrics(),
    }


def baseline_path(directory: Path | str = ".", rev: str | None = None) -> Path:
    """``HEALTH_<rev>.json`` inside ``directory``."""
    return Path(directory) / f"{BASELINE_PREFIX}{rev or current_rev()}.json"


def save_baseline(
    run_dir: str | Path, directory: Path | str = ".", rev: str | None = None
) -> Path:
    """Snapshot a run's cell metrics to ``HEALTH_<rev>.json``."""
    rev = rev or current_rev()
    payload = {"rev": rev, **metrics_snapshot(run_dir)}
    path = baseline_path(directory, rev)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: Path | str) -> dict:
    """Read a ``HEALTH_*.json`` baseline snapshot."""
    payload = json.loads(Path(path).read_text())
    if "cells" not in payload:
        raise ValueError(f"{path} is not a metric baseline (no 'cells' key)")
    return payload


def latest_baseline(directory: Path | str = ".") -> Path | None:
    """Most recently modified ``HEALTH_*.json`` in ``directory``, if any."""
    candidates = sorted(
        Path(directory).glob(f"{BASELINE_PREFIX}*.json"),
        key=lambda p: p.stat().st_mtime,
    )
    return candidates[-1] if candidates else None


def compare_to_baseline(
    baseline: dict, current: dict, band: float = DEFAULT_BAND
) -> DriftReport:
    """Flag every cell×model×metric outside ``band`` of the baseline.

    Metrics present on only one side cannot drift; they are reported in
    ``missing`` / ``added`` instead so renamed models and new cells are
    visible without flagging. A comparison with no metric in common
    still grades ``warn`` (see :attr:`DriftReport.ok`).
    """
    if band <= 0:
        raise ValueError("band must be positive")
    base_cells = baseline.get("cells") or {}
    cur_cells = current.get("cells") or {}

    def flatten(cells: dict) -> dict[tuple[str, str, str], float]:
        flat = {}
        for cell_id, models in cells.items():
            for model, metrics in (models or {}).items():
                for metric, value in (metrics or {}).items():
                    flat[(cell_id, model, metric)] = float(value)
        return flat

    base_flat = flatten(base_cells)
    cur_flat = flatten(cur_cells)
    report = DriftReport(baseline_rev=str(baseline.get("rev", "?")))
    report.missing = sorted("/".join(k) for k in base_flat.keys() - cur_flat.keys())
    report.added = sorted("/".join(k) for k in cur_flat.keys() - base_flat.keys())
    for key in sorted(base_flat.keys() & cur_flat.keys()):
        ref, now = base_flat[key], cur_flat[key]
        report.n_compared += 1
        unit_scale = 0.0 <= ref <= 1.0 and 0.0 <= now <= 1.0
        limit = band if unit_scale else band * max(abs(ref), 1e-12)
        if abs(now - ref) > limit:
            cell_id, model, metric = key
            report.flags.append(
                DriftFlag(
                    cell_id=cell_id,
                    model=model,
                    metric=metric,
                    baseline=ref,
                    current=now,
                    band=band,
                    relative=not unit_scale,
                )
            )
    return report
