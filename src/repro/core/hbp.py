"""Hierarchical beta process (HBP) failure model with fixed groupings.

The two-level hierarchy of Eq. 18.5: a group-level failure rate
``q_k ~ Beta(c0·q0, c0·(1−q0))``, pipe-level failure probabilities
``π_i ~ Beta(c_k·q_k, c_k·(1−q_k))`` for pipes in group ``k``, and yearly
failure indicators ``x_{i,j} ~ Bernoulli(π_i)``. Failure data is shared
within a group through ``q_k``, which is the mechanism that survives the
extreme sparsity of per-pipe records.

Inference is Metropolis-within-Gibbs:

* ``π_i`` — exact conjugate Beta draw given ``q_k`` and the pipe's counts;
* ``q_k`` — logit-scale random-walk Metropolis against the collapsed
  Beta–Binomial likelihood of its members (the Beta layer over ``π`` is
  integrated out for this block, improving mixing). Members enter only
  through their group's histogram of failure counts over 0..m, and the
  K groups' steps are independent, so one batched step
  (:func:`~repro.inference.metropolis.metropolis_probability_steps`, the
  one DPMHBP's rate block takes) scores every current and proposed rate
  at once.

Covariates modulate the posterior risk multiplicatively, Cox-style, via a
Poisson GLM factor (``repro.ml.PoissonRegression.covariate_factor``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bayes.distributions import beta_binomial_table, beta_logpdf
from ..features.builder import ModelData
from ..inference.metropolis import AdaptiveScale, metropolis_probability_steps
from ..ml.glm import PoissonRegression
from .base import FailureModel
from .grouping import fixed_grouping


@dataclass
class HBPPosterior:
    """Posterior summaries of one HBP fit."""

    pi_mean: np.ndarray  # (n_units,) posterior mean failure probability
    q_mean: np.ndarray  # (K,) posterior mean group rates
    q_trace: np.ndarray  # (n_kept, K)
    accept_rate: float


def fit_hbp(
    failures: np.ndarray,
    groups: np.ndarray,
    q0: float = 0.02,
    c0: float = 4.0,
    c_group: float = 30.0,
    n_sweeps: int = 250,
    burn_in: int = 100,
    seed: int = 0,
) -> HBPPosterior:
    """Run the HBP sampler on a binary (units × years) failure matrix.

    ``groups`` assigns each unit (pipe or segment) to one of K groups.
    Returns posterior means of the per-unit failure probabilities ``π``
    and group rates ``q``.
    """
    failures = np.asarray(failures)
    if failures.ndim != 2:
        raise ValueError("failures must be (units, years)")
    groups = np.asarray(groups, dtype=np.int64)
    n_units, n_years = failures.shape
    if groups.shape != (n_units,):
        raise ValueError("groups must have one label per unit")
    if burn_in >= n_sweeps:
        raise ValueError("burn_in must be smaller than n_sweeps")
    n_groups = int(groups.max()) + 1
    s = failures.sum(axis=1).astype(np.int64)  # successes per unit
    if s.min() < 0 or s.max() > n_years:
        raise ValueError("failures must be binary")
    m = float(n_years)
    a0, b0 = c0 * q0, c0 * (1.0 - q0)

    # Failure counts live on the grid 0..m, so a group's collapsed
    # likelihood is its count histogram dotted with the (m+1)-long
    # Beta–Binomial column at its rate: O(m) per target, whatever the
    # group's size, and an empty group scores its prior alone.
    n_bins = n_years + 1
    hist = np.bincount(groups * n_bins + s, minlength=n_groups * n_bins)
    hist = hist.reshape(n_groups, n_bins).astype(float)

    def log_targets(p: np.ndarray, rows: np.ndarray) -> list[float]:
        """Log target of rate ``p[i]`` for group ``rows[i]``."""
        cols = beta_binomial_table(c_group * p, c_group * (1.0 - p), n_years)
        lik = np.einsum("ij,ij->i", hist[rows], cols)
        return (beta_logpdf(p, a0, b0) + lik).tolist()

    rng = np.random.default_rng(seed)
    q = np.full(n_groups, q0)
    scales = [AdaptiveScale() for _ in range(n_groups)]
    both = np.tile(np.arange(n_groups), 2)  # current rates, then proposals

    pi_acc = np.zeros(n_units)
    q_acc = np.zeros(n_groups)
    q_trace: list[np.ndarray] = []
    n_accept = 0
    n_prop = 0
    kept = 0
    for sweep in range(n_sweeps):
        # Block 1: q_k via logit Metropolis on the collapsed likelihood.
        # The groups' steps are independent, so every current and
        # proposed rate is scored in one batch.
        new_q, accepted = metropolis_probability_steps(
            q, lambda p: log_targets(p, both), [sc.scale for sc in scales], rng
        )
        q[:] = new_q
        for scale, ok in zip(scales, accepted):
            scale.update(ok)
        n_prop += n_groups
        n_accept += sum(accepted)
        if sweep == burn_in:
            for scale in scales:
                scale.freeze()

        # Block 2: π_i exact conjugate draw given q.
        a = c_group * q[groups] + s
        b = c_group * (1.0 - q[groups]) + m - s
        pi = rng.beta(a, b)

        if sweep >= burn_in:
            pi_acc += pi
            q_acc += q
            q_trace.append(q.copy())
            kept += 1

    return HBPPosterior(
        pi_mean=pi_acc / kept,
        q_mean=q_acc / kept,
        q_trace=np.asarray(q_trace),
        accept_rate=n_accept / max(n_prop, 1),
    )


@dataclass
class HBPModel(FailureModel):
    """HBP failure model at pipe level with a fixed grouping scheme.

    ``grouping`` is "material", "diameter" or "laid_year" — the protocol's
    three expert-suggested fixed groupings ("only the results from the
    best groupings are shown" in the paper's tables; the experiment runner
    selects the best on training data).
    """

    name: str = "HBP"
    grouping: str = "material"
    q0: float = 0.02
    c0: float = 4.0
    c_group: float = 30.0
    n_sweeps: int = 250
    burn_in: int = 100
    covariates: bool = True
    seed: int = 0
    posterior_: HBPPosterior | None = field(default=None, repr=False)
    _factor: np.ndarray | None = field(default=None, repr=False)

    def fit(self, data: ModelData) -> "HBPModel":
        groups = fixed_grouping(data, self.grouping)
        self.posterior_ = fit_hbp(
            data.pipe_fail_train,
            groups,
            q0=self.q0,
            c0=self.c0,
            c_group=self.c_group,
            n_sweeps=self.n_sweeps,
            burn_in=self.burn_in,
            seed=self.seed,
        )
        if self.covariates:
            counts = data.pipe_fail_train.sum(axis=1).astype(float)
            exposure = np.full(data.n_pipes, float(data.pipe_fail_train.shape[1]))
            glm = PoissonRegression(l2=1e-2).fit(data.X_pipe, counts, exposure=exposure)
            self._factor = glm.covariate_factor(data.X_pipe)
        else:
            self._factor = np.ones(data.n_pipes)
        return self

    def predict_pipe_risk(self, data: ModelData) -> np.ndarray:
        if self.posterior_ is None or self._factor is None:
            raise RuntimeError("model used before fit()")
        return self.posterior_.pi_mean * self._factor


@dataclass
class HBPBestModel(FailureModel):
    """HBP with the grouping chosen by internal validation.

    The paper's tables report "only the results from the best groupings"
    for HBP; this wrapper selects among material / diameter / laid-year by
    AUC on a validation split (the last training year), then refits on the
    full training window with the winning scheme. Real test labels are
    never consulted.
    """

    name: str = "HBP"
    q0: float = 0.02
    c0: float = 4.0
    c_group: float = 15.0
    n_sweeps: int = 250
    burn_in: int = 100
    covariates: bool = True
    seed: int = 0
    chosen_grouping_: str | None = None
    _fitted: HBPModel | None = field(default=None, repr=False)

    def _make(self, grouping: str) -> HBPModel:
        return HBPModel(
            grouping=grouping,
            q0=self.q0,
            c0=self.c0,
            c_group=self.c_group,
            n_sweeps=self.n_sweeps,
            burn_in=self.burn_in,
            covariates=self.covariates,
            seed=self.seed,
        )

    def fit(self, data: ModelData) -> "HBPBestModel":
        from .grouping import GROUPINGS
        from .ranking.objective import empirical_auc

        validation = data.validation_split()
        best_auc, best_scheme = -np.inf, GROUPINGS[0]
        if validation.pipe_fail_test.sum() > 0:
            for scheme in GROUPINGS:
                scores = self._make(scheme).fit_predict(validation)
                auc = empirical_auc(scores, validation.pipe_fail_test)
                if auc > best_auc:
                    best_auc, best_scheme = auc, scheme
        self.chosen_grouping_ = best_scheme
        self._fitted = self._make(best_scheme).fit(data)
        return self

    def predict_pipe_risk(self, data: ModelData) -> np.ndarray:
        if self._fitted is None:
            raise RuntimeError("model used before fit()")
        return self._fitted.predict_pipe_risk(data)
