"""FailureModel adapters for the classical survival baselines.

These translate the shared :class:`~repro.features.ModelData` into the
representations the survival models expect:

* **Cox PH** — time axis is pipe *age*; each pipe enters observation at
  its 1998 age (left truncation), exits at its first training-period
  failure (event) or its 2008 age (censored); the test-year risk is the
  conditional probability of failing in the one-year age window of 2009.
* **Weibull NHPP** — one row per pipe with one exposure window per
  training year; the test-year score is the expected failure count in
  the 2009 age window.
* **time-exponential / power / linear** — age-only rate models applied to
  pipe length exposure (the related-work single-covariate baselines).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..features.builder import ModelData
from ..survival.cox import CoxPH
from ..survival.time_models import TimeExponentialModel, TimeLinearModel, TimePowerModel
from ..survival.weibull import WeibullNHPP
from .base import FailureModel


def _cox_arrays(data: ModelData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(entry age, exit age, event) for the training window."""
    first_year = data.train_years[0]
    last_year = data.train_years[-1]
    entry = data.pipe_ages(first_year)
    fail_any = data.pipe_fail_train.sum(axis=1) > 0
    first_fail_col = np.argmax(data.pipe_fail_train, axis=1)  # 0 when no failure
    fail_year = np.asarray(data.train_years, dtype=float)[first_fail_col]
    exit_age = np.where(
        fail_any,
        np.maximum(fail_year - data.pipe_laid_year, 0.0) + 0.5,  # mid-year failure
        np.maximum(float(last_year) - data.pipe_laid_year, 0.0) + 1.0,
    )
    return entry, exit_age, fail_any.astype(float)


@dataclass
class CoxPHModel(FailureModel):
    """Cox proportional hazards on pipe ages with Table 18.2 covariates."""

    name: str = "Cox"
    l2: float = 1e-3
    ties: str = "breslow"
    _cox: CoxPH | None = field(default=None, repr=False)

    def fit(self, data: ModelData) -> "CoxPHModel":
        entry, exit_age, event = _cox_arrays(data)
        self._cox = CoxPH(l2=self.l2, ties=self.ties).fit(
            data.X_pipe, exit_age, event, entry_time=entry
        )
        return self

    def predict_pipe_risk(self, data: ModelData) -> np.ndarray:
        if self._cox is None:
            raise RuntimeError("model used before fit()")
        age_start = data.pipe_ages(data.test_year)
        return self._cox.interval_failure_probability(
            data.X_pipe, age_start, age_start + 1.0
        )


def _pipe_year_windows(data: ModelData) -> tuple[np.ndarray, np.ndarray]:
    """(failure counts, age at the year's start), both (pipes × training years)."""
    counts = data.pipe_fail_train.astype(float)
    ages = np.stack([data.pipe_ages(y) for y in data.train_years], axis=1)
    return counts, ages


@dataclass
class WeibullModel(FailureModel):
    """Weibull power-law NHPP with multiplicative covariates."""

    name: str = "Weibull"
    l2: float = 1e-3
    _model: WeibullNHPP | None = field(default=None, repr=False)

    def fit(self, data: ModelData) -> "WeibullModel":
        counts, ages = _pipe_year_windows(data)
        self._model = WeibullNHPP(l2=self.l2).fit(data.X_pipe, counts, ages, ages + 1.0)
        return self

    def predict_pipe_risk(self, data: ModelData) -> np.ndarray:
        if self._model is None:
            raise RuntimeError("model used before fit()")
        age = data.pipe_ages(data.test_year)
        return self._model.expected_failures(data.X_pipe, age, age + 1.0)


@dataclass
class TimeRateModel(FailureModel):
    """Adapter for the age-only rate baselines.

    ``kind`` is "exponential", "power" or "linear" (Shamir–Howard, Mavin,
    Kettler–Goulter respectively).
    """

    name: str = "TimeExp"
    kind: str = "exponential"
    _model: TimeExponentialModel | TimePowerModel | TimeLinearModel | None = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        names = {"exponential": "TimeExp", "power": "TimePow", "linear": "TimeLin"}
        if self.kind not in names:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.name == "TimeExp":
            self.name = names[self.kind]

    def fit(self, data: ModelData) -> "TimeRateModel":
        counts, ages = _pipe_year_windows(data)
        counts, a0 = counts.ravel(), ages.ravel()
        lengths = np.repeat(data.pipe_lengths, len(data.train_years))
        if self.kind == "exponential":
            self._model = TimeExponentialModel().fit(a0, counts, lengths)
        elif self.kind == "power":
            self._model = TimePowerModel().fit(a0, counts, lengths)
        else:
            self._model = TimeLinearModel().fit(a0, counts, lengths)
        return self

    def predict_pipe_risk(self, data: ModelData) -> np.ndarray:
        if self._model is None:
            raise RuntimeError("model used before fit()")
        age = data.pipe_ages(data.test_year)
        return self._model.expected_failures(age, data.pipe_lengths)
