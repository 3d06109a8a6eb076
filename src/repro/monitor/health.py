"""Chain-health monitoring: per-sweep scalars → convergence verdicts.

The convergence diagnostics in :mod:`repro.inference.diagnostics` were a
dead-end library until this module: nothing called them, so a silently
divergent chain produced a confident Table 18.3 row. :class:`ChainHealth`
closes that loop — it records per-sweep scalars (cluster count, collapsed
log-likelihood, acceptance rates) as one plain array per quantity and
chain, and at fit end folds per-quantity ESS, Geweke z and pooled
split-R̂ into a :class:`HealthReport` with a pass/warn/fail verdict.

The bands are the module constants below (R̂ 1.1 / 1.3, ESS 25 / 10,
|z| 2.5 / 4).

``nan`` diagnostics keep the meaning the diagnostics module defines:
**undiagnosable**. An undiagnosable statistic never passes *or* fails a
quantity — it is reported as-is and excluded from the verdict. A
quantity whose every chain is constant is graded on that instead, since
a stuck chain is not a converged one: the same value in every retained
sweep of every chain is a ``warn`` ("stuck at <value>"), and chains each
stuck at a different value ``fail``. Only a series too short for any
statistic stays undiagnosable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ..inference.diagnostics import (
    effective_sample_size,
    geweke_zscore,
    split_rhat,
)

#: Geweke needs this many retained samples to say anything.
MIN_GEWEKE_SAMPLES = 20

#: Pass/warn/fail bands. R̂ and |geweke z| escalate when they reach their
#: bound; ESS (summed across chains) when it falls below its bound.
RHAT_WARN, RHAT_FAIL = 1.1, 1.3
ESS_WARN, ESS_FAIL = 25.0, 10.0
GEWEKE_WARN, GEWEKE_FAIL = 2.5, 4.0

#: Split-R̂ needs this many retained samples per chain. A shorter series
#: gets no statistic at all (ESS would just echo its length) and is
#: undiagnosable even when it is constant.
MIN_RHAT_SAMPLES = 4


def _nan_to_none(value: float) -> float | None:
    return None if value is None or not np.isfinite(value) else float(value)


def _none_to_nan(value: float | None) -> float:
    return float("nan") if value is None else float(value)


@dataclass(frozen=True)
class QuantityHealth:
    """Convergence diagnostics of one scalar quantity across the chains."""

    name: str
    n_chains: int
    n_samples: int  # retained per chain (after trimming to the shortest)
    mean: float
    ess: float  # summed across chains; nan = undiagnosable
    geweke_z: float  # worst |z| across chains (signed); nan = undiagnosable
    rhat: float  # pooled split-R̂; nan = undiagnosable
    verdict: str  # "pass" | "warn" | "fail" | "undiagnosable"
    reasons: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "n_chains": self.n_chains,
            "n_samples": self.n_samples,
            "mean": _nan_to_none(self.mean),
            "ess": _nan_to_none(self.ess),
            "geweke_z": _nan_to_none(self.geweke_z),
            "rhat": _nan_to_none(self.rhat),
            "verdict": self.verdict,
            "reasons": list(self.reasons),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "QuantityHealth":
        return cls(
            name=str(payload["name"]),
            n_chains=int(payload["n_chains"]),
            n_samples=int(payload["n_samples"]),
            mean=_none_to_nan(payload.get("mean")),
            ess=_none_to_nan(payload.get("ess")),
            geweke_z=_none_to_nan(payload.get("geweke_z")),
            rhat=_none_to_nan(payload.get("rhat")),
            verdict=str(payload["verdict"]),
            reasons=tuple(payload.get("reasons") or ()),
        )


@dataclass
class HealthReport:
    """Every monitored quantity's diagnostics plus the folded verdict."""

    quantities: dict[str, QuantityHealth]
    verdict: str = "undiagnosable"

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "quantities": {
                name: q.to_json() for name, q in self.quantities.items()
            },
        }

    @classmethod
    def from_json(cls, payload: dict) -> "HealthReport":
        # Reports written before the bands became constants also carry a
        # "thresholds" entry; it is ignored.
        return cls(
            quantities={
                name: QuantityHealth.from_json(entry)
                for name, entry in (payload.get("quantities") or {}).items()
            },
            verdict=str(payload.get("verdict", "undiagnosable")),
        )

    def format(self) -> str:
        """Render the per-quantity convergence table plus the verdict."""
        lines = [
            f"{'quantity':<16s} {'chains':>6s} {'samples':>8s} {'mean':>10s}"
            f" {'ESS':>8s} {'geweke z':>9s} {'R-hat':>7s}  verdict"
        ]

        def cell(value: float, fmt: str) -> str:
            return format(value, fmt) if np.isfinite(value) else "nan"

        for q in self.quantities.values():
            lines.append(
                f"{q.name:<16s} {q.n_chains:>6d} {q.n_samples:>8d}"
                f" {cell(q.mean, '>10.4g'):>10s} {cell(q.ess, '>8.1f'):>8s}"
                f" {cell(q.geweke_z, '>9.2f'):>9s} {cell(q.rhat, '>7.3f'):>7s}"
                f"  {q.verdict}"
                + (f"  ({'; '.join(q.reasons)})" if q.reasons else "")
            )
        lines.append(f"health verdict: {self.verdict.upper()}")
        return "\n".join(lines)


def fold_verdicts(verdicts: Iterable[str]) -> str:
    """Worst diagnosable verdict; "undiagnosable" only when nothing is."""
    folded = "undiagnosable"
    rank = {"undiagnosable": -1, "pass": 0, "warn": 1, "fail": 2}
    level = -1
    for verdict in verdicts:
        if rank.get(verdict, -1) > level:
            level = rank[verdict]
            folded = verdict
    return folded


def _classify(
    samples: np.ndarray, ess: float, geweke_z: float, rhat: float
) -> tuple[str, tuple[str, ...]]:
    """Fold one quantity's ``(n_chains, n_samples)`` series into a verdict.

    Chains that are each constant carry no statistic, so they are graded
    on their values: all equal is stuck (warn), unequal fails. Otherwise
    undiagnosable (nan) statistics are skipped: they can neither pass nor
    fail the quantity, and one with *no* diagnosable statistic is
    "undiagnosable" overall.
    """
    if samples.shape[1] >= MIN_RHAT_SAMPLES and not np.ptp(samples, axis=1).any():
        values = samples[:, 0]
        if not np.ptp(values):
            return "warn", (f"stuck at {values[0]:g}",)
        stuck = ", ".join(f"{v:g}" for v in values)
        return "fail", (f"chains stuck at different values: {stuck}",)
    level = -1  # -1 undiagnosable, 0 pass, 1 warn, 2 fail
    reasons: list[str] = []
    if np.isfinite(rhat):
        if rhat >= RHAT_FAIL:
            level = max(level, 2)
            reasons.append(f"R-hat {rhat:.3f} >= {RHAT_FAIL}")
        elif rhat >= RHAT_WARN:
            level = max(level, 1)
            reasons.append(f"R-hat {rhat:.3f} >= {RHAT_WARN}")
        else:
            level = max(level, 0)
    if np.isfinite(ess):
        if ess < ESS_FAIL:
            level = max(level, 2)
            reasons.append(f"ESS {ess:.1f} < {ESS_FAIL}")
        elif ess < ESS_WARN:
            level = max(level, 1)
            reasons.append(f"ESS {ess:.1f} < {ESS_WARN}")
        else:
            level = max(level, 0)
    if np.isfinite(geweke_z):
        if abs(geweke_z) >= GEWEKE_FAIL:
            level = max(level, 2)
            reasons.append(f"|geweke z| {abs(geweke_z):.2f} >= {GEWEKE_FAIL}")
        elif abs(geweke_z) >= GEWEKE_WARN:
            level = max(level, 1)
            reasons.append(f"|geweke z| {abs(geweke_z):.2f} >= {GEWEKE_WARN}")
        else:
            level = max(level, 0)
    verdict = {-1: "undiagnosable", 0: "pass", 1: "warn", 2: "fail"}[level]
    return verdict, tuple(reasons)


class ChainHealth:
    """Per-sweep scalar recorder and end-of-fit convergence judge.

    :meth:`ingest_chain` adds one chain's whole per-sweep series (how
    :class:`~repro.core.dpmhbp.DPMHBPModel` pools its worker-fitted
    chains). :meth:`report` trims every chain's series to the shortest,
    drops ``burn_in`` leading sweeps, and computes per-quantity ESS
    (summed across chains), the worst per-chain Geweke z, and the pooled
    split-R̂.
    """

    def __init__(self, burn_in: int = 0):
        if burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        self.burn_in = int(burn_in)
        self._chains: dict[int, dict[str, np.ndarray]] = {}

    # ------------------------------------------------------------ recording
    def ingest_chain(
        self, quantities: Mapping[str, np.ndarray], chain: int | None = None
    ) -> int:
        """Bulk-add one chain's per-sweep series; returns its chain index."""
        index = chain if chain is not None else (max(self._chains, default=-1) + 1)
        series = self._chains.setdefault(index, {})
        for name, values in quantities.items():
            values = np.asarray(values, dtype=float).ravel()
            series[name] = np.concatenate([series[name], values]) if name in series else values
        return index

    # ------------------------------------------------------------- verdicts
    def report(self) -> HealthReport:
        """Compute the :class:`HealthReport` over everything recorded."""
        chain_ids = sorted(self._chains)
        names: list[str] = []
        for cid in chain_ids:
            for name in self._chains[cid]:
                if name not in names:
                    names.append(name)

        quantities: dict[str, QuantityHealth] = {}
        for name in names:
            series = []
            for cid in chain_ids:
                samples = self._chains[cid].get(name, np.zeros(0))[self.burn_in :]
                if samples.size > 0:
                    series.append(samples)
            if not series:
                continue
            n = min(s.size for s in series)
            trimmed = np.stack([s[:n] for s in series])
            ess = geweke = rhat = float("nan")
            if n >= MIN_RHAT_SAMPLES:
                with np.errstate(divide="ignore", invalid="ignore"):
                    ess = self._pooled_ess(trimmed)
                    geweke = self._worst_geweke(trimmed)
                    rhat = split_rhat(trimmed)
            verdict, reasons = _classify(trimmed, ess, geweke, rhat)
            quantities[name] = QuantityHealth(
                name=name,
                n_chains=trimmed.shape[0],
                n_samples=n,
                mean=float(trimmed.mean()),
                ess=ess,
                geweke_z=geweke,
                rhat=rhat,
                verdict=verdict,
                reasons=reasons,
            )

        verdict = fold_verdicts(q.verdict for q in quantities.values())
        return HealthReport(quantities=quantities, verdict=verdict)

    @staticmethod
    def _pooled_ess(chains: np.ndarray) -> float:
        """Summed per-chain ESS; nan only when *every* chain is undiagnosable."""
        values = [effective_sample_size(chain) for chain in chains]
        finite = [v for v in values if np.isfinite(v)]
        return float(sum(finite)) if finite else float("nan")

    @staticmethod
    def _worst_geweke(chains: np.ndarray) -> float:
        """The per-chain z with the largest magnitude (signed); nan if none."""
        worst = float("nan")
        for chain in chains:
            if chain.size < MIN_GEWEKE_SAMPLES:
                continue
            z = geweke_zscore(chain)
            if np.isfinite(z) and (not np.isfinite(worst) or abs(z) > abs(worst)):
                worst = z
        return worst
