"""Paper-style text tables for the reproduced results.

Formatters for:

* Table 18.1 — pipe/failure counts per region and class;
* Table 18.3 — AUC (100%) and AUC (1%, ‱) per model per region;
* Table 18.4 — one-sided paired t statistics of DPMHBP against the rest;
* Figures 18.5/18.6 — binned choke-rate relationships;
* Figures 18.7/18.8 — detection-curve readouts at fixed budgets.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..data.datasets import PipeDataset
from ..network.pipe import PipeClass
from .experiment import ComparisonResult


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Monospace table with right-padded columns."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[j]) for r in cells) for j in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(widths[j]) for j, c in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def table_18_1(datasets: Sequence[PipeDataset]) -> str:
    """Data summary in the shape of the paper's Table 18.1."""
    rows = []
    for ds in datasets:
        lo, hi = ds.network.laid_year_range()
        obs = f"{ds.years[0]}-{ds.years[-1]}"
        rows.append(
            [f"Region {ds.spec.name}", "All", ds.network.n_pipes, len(ds.failures), f"{lo}-{hi}", obs]
        )
        cwm_pipes = ds.network.pipes(PipeClass.CWM)
        if cwm_pipes:
            lo_c = min(p.laid_year for p in cwm_pipes)
            hi_c = max(p.laid_year for p in cwm_pipes)
            rows.append(
                ["", "CWM", len(cwm_pipes), ds.n_failures(PipeClass.CWM), f"{lo_c}-{hi_c}", obs]
            )
    return format_table(
        ["Region", "Class", "# Pipes", "# Failures", "Laid years", "Observation"], rows
    )


def table_18_3(result: ComparisonResult, models: Sequence[str] | None = None) -> str:
    """AUC table: one row for AUC(100%), one for AUC(1%) in ‱."""
    models = list(models or result.model_names())
    headers = ["Metric"] + [f"{r}:{m}" for r in result.regions for m in models]
    row_full = ["AUC(100%)"] + [
        f"{100 * result.mean_auc(r, m):.2f}%" for r in result.regions for m in models
    ]
    row_budget = ["AUC(1%)"] + [
        f"{result.mean_budget_auc(r, m):.2f}bp" for r in result.regions for m in models
    ]
    return format_table(headers, [row_full, row_budget])


def table_18_4(
    result: ComparisonResult,
    reference: str = "DPMHBP",
    models: Sequence[str] | None = None,
    regions: Sequence[str] | None = None,
) -> str:
    """Paired t statistics (one-sided, reference beats other) per region.

    ``regions`` defaults to every region of ``result``; each needs at
    least two completed repeats to pair.
    """
    models = [m for m in (models or result.model_names()) if m != reference]
    rows = []
    for metric, label in (("auc", "AUC(100%)"), ("budget", "AUC(1%)")):
        for region in regions or result.regions:
            row = [f"{label} {region}"]
            for m in models:
                t = result.t_test(region, reference, m, metric=metric)
                stamp = "<0.05" if t.p_value < 0.05 else f"={t.p_value:.2f}"
                row.append(f"{t.statistic:.2f}({stamp})")
            rows.append(row)
    return format_table(["Setting"] + [f"vs {m}" for m in models], rows)


def binned_rate_table(
    values: np.ndarray,
    failures: np.ndarray,
    exposure: np.ndarray,
    n_bins: int = 8,
    value_name: str = "value",
) -> tuple[str, np.ndarray, np.ndarray]:
    """Binned failure-rate relationship (Figs 18.5/18.6 as a table).

    Bins ``values`` into quantile bins and reports the failure rate
    (failures per unit exposure) per bin. Returns (table, bin centres,
    bin rates) so benchmarks can assert monotonicity.
    """
    values = np.asarray(values, dtype=float)
    failures = np.asarray(failures, dtype=float)
    exposure = np.asarray(exposure, dtype=float)
    if not (values.shape == failures.shape == exposure.shape):
        raise ValueError("values, failures and exposure must align")
    edges = np.quantile(values, np.linspace(0.0, 1.0, n_bins + 1))
    edges[-1] += 1e-9
    centres, rates, rows = [], [], []
    for b in range(n_bins):
        mask = (values >= edges[b]) & (values < edges[b + 1])
        exp_sum = exposure[mask].sum()
        if exp_sum <= 0:
            continue
        rate = failures[mask].sum() / exp_sum
        centre = float(values[mask].mean())
        centres.append(centre)
        rates.append(rate)
        rows.append([f"{centre:.3f}", f"{int(failures[mask].sum())}", f"{rate:.4f}"])
    table = format_table([value_name, "failures", "rate"], rows)
    return table, np.asarray(centres), np.asarray(rates)


def detection_readout(result: ComparisonResult, budgets: Sequence[float] = (0.01, 0.05, 0.10, 0.20)) -> str:
    """Detected-failure percentages at fixed budgets (Fig. 18.7/18.8 readout)."""
    rows = []
    for region in result.regions:
        run = result.runs[region][0]
        for name, ev in run.evaluations.items():
            curve = ev.curve(run.labels)
            rows.append(
                [region, name]
                + [f"{100 * curve.detected_at(b):.0f}%" for b in budgets]
            )
    headers = ["Region", "Model"] + [f"@{100 * b:g}%" for b in budgets]
    return format_table(headers, rows)
