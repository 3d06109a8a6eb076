"""Economic evaluation of inspection plans.

The chapter motivates prioritisation economically: unplanned CWM failures
carry "tremendous economic and social costs", physical inspection is
expensive, and only ~1% of critical mains can be assessed a year. This
module turns a risk ranking into money: given per-kilometre inspection
cost and the cost gap between a reactive failure (emergency repair +
service interruption + third-party damage) and a proactive renewal, it
computes the expected net savings of inspecting the top of the ranking —
the quantity a utility actually optimises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features.builder import ModelData


@dataclass(frozen=True)
class CostModel:
    """Unit costs in arbitrary currency.

    Defaults are order-of-magnitude figures for metropolitan critical
    mains: condition assessment ~10k/km; a reactive trunk-main failure
    (emergency repair, water loss, flooding damage, traffic disruption)
    ~250k; a planned renewal of the weak section ~60k.
    """

    inspection_per_km: float = 10_000.0
    reactive_failure: float = 250_000.0
    proactive_renewal: float = 60_000.0
    #: Probability an inspection catches an incipient failure in time.
    detection_effectiveness: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 <= self.detection_effectiveness <= 1.0:
            raise ValueError("detection_effectiveness must lie in [0, 1]")
        if min(self.inspection_per_km, self.reactive_failure, self.proactive_renewal) < 0:
            raise ValueError("costs must be non-negative")

    @property
    def averted_cost_per_failure(self) -> float:
        """Expected saving when a failing pipe is inspected in time."""
        return self.detection_effectiveness * (self.reactive_failure - self.proactive_renewal)


@dataclass(frozen=True)
class PlanEconomics:
    """Outcome of costing one inspection plan against test-year failures."""

    n_inspected: int
    inspected_km: float
    inspection_cost: float
    failures_caught: int
    failures_missed: int
    averted_cost: float

    @property
    def net_savings(self) -> float:
        """Averted failure cost minus inspection spend."""
        return self.averted_cost - self.inspection_cost


def plan_economics(
    data: ModelData,
    scores: np.ndarray,
    budget_fraction: float,
    costs: CostModel | None = None,
) -> PlanEconomics:
    """Cost out inspecting the top of a ranking under a length budget.

    Pipes are taken in descending score order until ``budget_fraction`` of
    the total network length is reached; a test-year failure on an
    inspected pipe counts as caught (with the cost model's detection
    effectiveness applied in expectation).
    """
    if not 0 < budget_fraction <= 1:
        raise ValueError("budget_fraction must be in (0, 1]")
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (data.n_pipes,):
        raise ValueError("need one score per pipe")
    costs = costs or CostModel()

    budget_m = budget_fraction * float(data.pipe_lengths.sum())
    order = np.argsort(-scores, kind="mergesort")
    cum = np.cumsum(data.pipe_lengths[order])
    n_take = int(np.searchsorted(cum, budget_m, side="right"))
    n_take = max(n_take, 1)
    chosen = order[:n_take]

    inspected_km = float(data.pipe_lengths[chosen].sum()) / 1000.0
    caught = int(data.pipe_fail_test[chosen].sum())
    total = int(data.pipe_fail_test.sum())
    return PlanEconomics(
        n_inspected=n_take,
        inspected_km=inspected_km,
        inspection_cost=inspected_km * costs.inspection_per_km,
        failures_caught=caught,
        failures_missed=total - caught,
        averted_cost=caught * costs.averted_cost_per_failure,
    )
