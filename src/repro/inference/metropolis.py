"""Random-walk Metropolis steps with Robbins–Monro step-size adaptation.

These are the building blocks the HBP and DPMHBP samplers compose:
Metropolis updates for group failure rates (on the logit scale so the
proposal respects the (0, 1) support), one at a time or all of a sweep's
independent rates in one batch, with optional adaptation toward a
target acceptance probability during burn-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

#: Classic optimal acceptance rate for 1-D random-walk Metropolis.
TARGET_ACCEPT_1D = 0.44


def logit(p: float) -> float:
    """Log-odds transform mapping ``(0, 1)`` to the real line."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return math.log(p / (1.0 - p))


def expit(x: float) -> float:
    """Inverse logit, numerically safe for large ``|x|``."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass
class AdaptiveScale:
    """Robbins–Monro adaptation of a proposal log-scale.

    After each step call :meth:`update` with whether the proposal was
    accepted; the log step size moves toward the target acceptance rate
    with a decaying gain, so adaptation vanishes asymptotically (keeping
    the chain valid when adaptation is frozen after burn-in).
    """

    scale: float = 0.5
    target_accept: float = TARGET_ACCEPT_1D
    gain_decay: float = 0.6
    _step: int = field(default=0, repr=False)
    frozen: bool = False

    def update(self, accepted: bool) -> None:
        if self.frozen:
            return
        self._step += 1
        gain = self._step ** (-self.gain_decay)
        self.scale = float(
            np.exp(np.log(self.scale) + gain * ((1.0 if accepted else 0.0) - self.target_accept))
        )
        self.scale = min(max(self.scale, 1e-4), 1e4)

    def freeze(self) -> None:
        """Stop adapting (call at the end of burn-in)."""
        self.frozen = True


def metropolis_step(
    current: float,
    log_target: Callable[[float], float],
    scale: float,
    rng: np.random.Generator,
    current_logp: float | None = None,
) -> tuple[float, float, bool]:
    """One Gaussian random-walk Metropolis step on an unconstrained scalar.

    Returns ``(new_value, new_logp, accepted)``. Pass ``current_logp`` to
    avoid re-evaluating the target at the current point.
    """
    if current_logp is None:
        current_logp = log_target(current)
    proposal = current + scale * rng.standard_normal()
    proposal_logp = log_target(proposal)
    if math.log(rng.random()) < proposal_logp - current_logp:
        return proposal, proposal_logp, True
    return current, current_logp, False


def metropolis_probability_step(
    current_p: float,
    log_target: Callable[[float], float],
    scale: float,
    rng: np.random.Generator,
) -> tuple[float, bool]:
    """Metropolis step for a probability parameter via a logit random walk.

    ``log_target`` takes the probability itself. The Jacobian of the logit
    transform, ``log p + log(1-p)``, is included so the chain targets the
    stated density on the probability scale.
    """

    def transformed(x: float) -> float:
        p = expit(x)
        p = min(max(p, 1e-12), 1.0 - 1e-12)
        return log_target(p) + math.log(p) + math.log1p(-p)

    x = logit(min(max(current_p, 1e-12), 1.0 - 1e-12))
    new_x, _, accepted = metropolis_step(x, transformed, scale, rng)
    return expit(new_x), accepted


def metropolis_probability_steps(
    current_p: Sequence[float],
    log_targets: Callable[[np.ndarray], Sequence[float]],
    scales: Sequence[float],
    rng: np.random.Generator,
) -> tuple[list[float], list[bool]]:
    """``metropolis_probability_step`` on K independent rates at once.

    Rate k's target depends on it alone, so the K steps commute. They draw
    the same normal-then-uniform pair per rate, in order, and
    ``log_targets`` scores all 2K points in one call: it receives the K
    current rates followed by the K proposals and returns their log
    targets. Values and acceptances are bit-identical to K sequential
    ``metropolis_probability_step`` calls.
    """
    xs: list[float] = []
    proposals: list[float] = []
    log_u: list[float] = []
    for p, scale in zip(current_p, scales):
        x = logit(min(max(p, 1e-12), 1.0 - 1e-12))
        xs.append(x)
        proposals.append(x + scale * rng.standard_normal())
        log_u.append(math.log(rng.random()))
    points = [min(max(expit(x), 1e-12), 1.0 - 1e-12) for x in xs + proposals]
    logp = [
        lt + math.log(p) + math.log1p(-p)
        for lt, p in zip(log_targets(np.array(points)), points)
    ]
    k = len(xs)
    accepted = [log_u[i] < logp[k + i] - logp[i] for i in range(k)]
    new_p = [expit(proposals[i] if accepted[i] else xs[i]) for i in range(k)]
    return new_p, accepted
