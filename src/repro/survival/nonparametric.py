"""Nonparametric survival estimators: Kaplan–Meier, Nelson–Aalen, log-rank.

Exploration utilities for failure data: the survival function of pipe
lifetimes (with the left truncation pipe records force — assets enter
observation at their 1998 age), the cumulative hazard that the beta
process puts its prior over (Hjort's original motivation), and the
log-rank test for comparing failure behaviour across pipe strata (e.g.
materials), which is how domain experts sanity-check candidate groupings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _validate(
    exit_time: np.ndarray, event: np.ndarray, entry_time: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    exit_time = np.asarray(exit_time, dtype=float).ravel()
    event = np.asarray(event, dtype=float).ravel()
    entry = (
        np.zeros_like(exit_time)
        if entry_time is None
        else np.asarray(entry_time, dtype=float).ravel()
    )
    if not (exit_time.shape == event.shape == entry.shape):
        raise ValueError("exit_time, event and entry_time must align")
    if set(np.unique(event)) - {0.0, 1.0}:
        raise ValueError("event must be binary 0/1")
    if np.any(exit_time < entry):
        raise ValueError("exit before entry")
    return exit_time, event, entry


@dataclass(frozen=True)
class SurvivalCurve:
    """A right-continuous step function estimated at event times."""

    times: np.ndarray
    values: np.ndarray

    def at(self, t: np.ndarray | float) -> np.ndarray:
        """Curve value at time(s) ``t`` (step function, right-continuous)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.times.size == 0:
            return np.full(t.shape, self._initial())
        idx = np.searchsorted(self.times, t, side="right") - 1
        return np.where(idx >= 0, self.values[np.maximum(idx, 0)], self._initial())

    def _initial(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class KaplanMeier(SurvivalCurve):
    """Product-limit estimate of S(t) = P(T > t)."""

    def _initial(self) -> float:
        return 1.0


@dataclass(frozen=True)
class NelsonAalen(SurvivalCurve):
    """Nelson–Aalen estimate of the cumulative hazard H(t)."""

    def _initial(self) -> float:
        return 0.0


def _risk_and_deaths(
    exit_time: np.ndarray, event: np.ndarray, entry: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(event times, at-risk counts, death counts) with left truncation."""
    times = np.unique(exit_time[event == 1.0])
    at_risk = np.array(
        [np.sum((entry < t) & (exit_time >= t)) for t in times], dtype=float
    )
    deaths = np.array(
        [np.sum((exit_time == t) & (event == 1.0)) for t in times], dtype=float
    )
    return times, at_risk, deaths


def kaplan_meier(
    exit_time: np.ndarray, event: np.ndarray, entry_time: np.ndarray | None = None
) -> KaplanMeier:
    """Kaplan–Meier survival curve (left truncation supported)."""
    exit_time, event, entry = _validate(exit_time, event, entry_time)
    times, at_risk, deaths = _risk_and_deaths(exit_time, event, entry)
    if times.size == 0:
        return KaplanMeier(times=np.zeros(0), values=np.zeros(0))
    surv = np.cumprod(1.0 - deaths / np.maximum(at_risk, 1e-300))
    return KaplanMeier(times=times, values=surv)


def nelson_aalen(
    exit_time: np.ndarray, event: np.ndarray, entry_time: np.ndarray | None = None
) -> NelsonAalen:
    """Nelson–Aalen cumulative hazard (left truncation supported)."""
    exit_time, event, entry = _validate(exit_time, event, entry_time)
    times, at_risk, deaths = _risk_and_deaths(exit_time, event, entry)
    if times.size == 0:
        return NelsonAalen(times=np.zeros(0), values=np.zeros(0))
    cumhaz = np.cumsum(deaths / np.maximum(at_risk, 1e-300))
    return NelsonAalen(times=times, values=cumhaz)


@dataclass(frozen=True)
class LogRankResult:
    """Outcome of a two-sample log-rank test."""

    statistic: float  # chi-squared with 1 df
    p_value: float
    observed: tuple[float, float]
    expected: tuple[float, float]


def chi2_sf(x: float, df: int) -> float:
    """Chi-squared survival function via the regularised lower gamma."""
    from scipy.special import gammainc  # here, not at import: no grid needs it

    if df < 1:
        raise ValueError("df must be >= 1")
    if x <= 0:
        return 1.0
    return float(1.0 - gammainc(df / 2.0, x / 2.0))


def logrank_test(
    exit_a: np.ndarray,
    event_a: np.ndarray,
    exit_b: np.ndarray,
    event_b: np.ndarray,
    entry_a: np.ndarray | None = None,
    entry_b: np.ndarray | None = None,
) -> LogRankResult:
    """Two-sample log-rank test for equality of hazard functions.

    The standard Mantel–Haenszel construction: at each event time, compare
    group A's observed deaths against the expectation under a common
    hazard, accumulate the hypergeometric variance, and refer
    ``(O − E)² / V`` to chi-squared with one degree of freedom.
    """
    exit_a, event_a, ent_a = _validate(exit_a, event_a, entry_a)
    exit_b, event_b, ent_b = _validate(exit_b, event_b, entry_b)
    all_times = np.unique(
        np.concatenate([exit_a[event_a == 1.0], exit_b[event_b == 1.0]])
    )
    if all_times.size == 0:
        raise ValueError("no events in either group")
    o_a = e_a = var = 0.0
    obs_a = obs_b = 0.0
    for t in all_times:
        n_a = float(np.sum((ent_a < t) & (exit_a >= t)))
        n_b = float(np.sum((ent_b < t) & (exit_b >= t)))
        d_a = float(np.sum((exit_a == t) & (event_a == 1.0)))
        d_b = float(np.sum((exit_b == t) & (event_b == 1.0)))
        n = n_a + n_b
        d = d_a + d_b
        if n < 2 or d == 0:
            obs_a += d_a
            obs_b += d_b
            continue
        o_a += d_a
        e_a += d * n_a / n
        if n > 1:
            var += d * (n_a / n) * (n_b / n) * (n - d) / (n - 1)
        obs_a += d_a
        obs_b += d_b
    if var <= 0:
        return LogRankResult(0.0, 1.0, (obs_a, obs_b), (e_a, obs_a + obs_b - e_a))
    stat = (o_a - e_a) ** 2 / var
    return LogRankResult(
        statistic=float(stat),
        p_value=chi2_sf(float(stat), 1),
        observed=(obs_a, obs_b),
        expected=(float(e_a), float(obs_a + obs_b - e_a)),
    )
