"""Reference samplers and fits for the equivalence tests.

These are the straightforward loops the production code replaced:
DPMHBP's CRP scan scores each segment's candidates with its own
matrix–vector product and draws its Gumbel noise one step at a time; the
Pegasos loops difference one pair (or read one example) per step, shrink
every weight each step and take the norm with ``np.linalg.norm``; HBP
takes one rate step per group, summing over the group's members; and the
Weibull NHPP fits one stacked row per unit and window. The production
code must reproduce DPMHBP, HBP and ``LinearSVM`` byte for byte, RankSVM
to ``rtol=1e-12`` and the Weibull fit to the tolerances its test states;
they live here only as the yardstick.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bayes.distributions import beta_binomial_table, beta_logpdf
from repro.core.dpmhbp import DPMHBP, DPMHBPPosterior
from repro.core.hbp import HBPPosterior
from repro.inference.metropolis import AdaptiveScale, metropolis_probability_step
from repro.ml.glm import PoissonRegression
from repro.survival.weibull import WeibullNHPP, _weibull_exposure


class _ClusterState:
    def __init__(self, c_group: float, m: int, d: int):
        self.c = c_group
        self.m = m
        self.d = d
        self.q: list[float] = []
        self.mu: list[np.ndarray] = []
        self.count: list[int] = []
        self.bb_table: list[np.ndarray] = []

    @property
    def k(self) -> int:
        return len(self.q)

    def bb_column(self, q: float) -> np.ndarray:
        return beta_binomial_table(self.c * q, self.c * (1.0 - q), self.m)

    def add(self, q: float, mu: np.ndarray, count: int = 0) -> int:
        self.q.append(float(q))
        self.mu.append(np.asarray(mu, dtype=float))
        self.count.append(count)
        self.bb_table.append(self.bb_column(q))
        return self.k - 1

    def remove(self, k: int) -> None:
        for attr in (self.q, self.mu, self.count, self.bb_table):
            attr.pop(k)

    def matrices(self):
        counts = np.asarray(self.count, dtype=float)
        bb = np.asarray(self.bb_table)
        mu = np.asarray(self.mu)
        return counts, bb, mu, np.sum(mu**2, axis=1)


def reference_dpmhbp_fit(
    sampler: DPMHBP,
    failures: np.ndarray,
    features: np.ndarray | None = None,
    init_labels: np.ndarray | None = None,
) -> tuple[DPMHBPPosterior, dict[str, int]]:
    """Run ``sampler``'s configuration through the per-segment scan.

    Returns the posterior and event counts of the scan: ``births`` (an
    auxiliary candidate won and opened a cluster) and ``deaths`` (a
    singleton's cluster was deleted when its segment left it).
    """
    self = sampler
    events = {"births": 0, "deaths": 0}
    failures = np.asarray(failures)
    n_seg, n_years = failures.shape
    s = failures.sum(axis=1).astype(np.int64)
    m = float(n_years)

    use_features = features is not None and self.feature_weight > 0.0
    if use_features:
        feats = np.asarray(features, dtype=float)
        d = feats.shape[1]
        sigma2 = 1.0 / self.feature_weight
    else:
        feats = np.zeros((n_seg, 1))
        d = 1
        sigma2 = 1.0
    tau2 = 1.0

    rng = np.random.default_rng(self.seed)
    state = _ClusterState(self.c_group, n_years, d)
    if init_labels is not None:
        z = np.asarray(init_labels, dtype=np.int64).copy()
    else:
        init_k = max(2, min(10, n_seg))
        z = rng.integers(0, init_k, size=n_seg)
    _, z = np.unique(z, return_inverse=True)
    for k in range(int(z.max()) + 1):
        members = z == k
        mu0 = feats[members].mean(axis=0) if use_features else np.zeros(d)
        q_init = min(max((s[members].mean() / m) + 1e-3, 1e-4), 0.5)
        state.add(q_init, mu0, int(members.sum()))

    scales = [AdaptiveScale() for _ in range(state.k)]
    rho_acc = np.zeros(n_seg)
    rho_sq_acc = np.zeros(n_seg)
    kept = 0
    n_clusters_trace = []
    log_lik_trace = []
    accept_trace = []
    q_accepts = q_props = q_accepts_prev = q_props_prev = 0

    log_alpha_aux = math.log(self.alpha / self.n_aux)
    a0 = self.c0 * self.q0
    b0 = self.c0 * (1.0 - self.q0)
    sqrt_tau = math.sqrt(tau2)

    for sweep in range(self.n_sweeps):
        counts, bb, mu, mu_sq = state.matrices()
        log_counts = np.log(counts)
        order = rng.permutation(n_seg)
        aux_q_all = rng.beta(a0, b0, (n_seg, self.n_aux))
        aux_mu_all = rng.normal(0.0, sqrt_tau, (n_seg, self.n_aux, d))
        a_aux = self.c_group * aux_q_all
        b_aux = self.c_group - a_aux
        aux_table = beta_binomial_table(a_aux, b_aux, n_years)
        aux_base = log_alpha_aux + aux_table[np.arange(n_seg), :, s]
        if use_features:
            aux_cross = np.einsum("ld,lhd->lh", feats, aux_mu_all)
            aux_sq = np.einsum("lhd,lhd->lh", aux_mu_all, aux_mu_all)
            aux_base += (aux_cross - 0.5 * aux_sq) / sigma2

        for l in order:
            k_old = int(z[l])
            counts[k_old] -= 1.0
            singleton_params = None
            if counts[k_old] == 0.0:
                events["deaths"] += 1
                singleton_params = (state.q[k_old], state.mu[k_old])
                state.remove(k_old)
                scales.pop(k_old)
                counts = np.delete(counts, k_old)
                log_counts = np.delete(log_counts, k_old)
                bb = np.delete(bb, k_old, axis=0)
                mu = np.delete(mu, k_old, axis=0)
                mu_sq = np.delete(mu_sq, k_old)
                z[z > k_old] -= 1
            else:
                log_counts[k_old] = math.log(counts[k_old])
            k_live = state.k

            logw = log_counts + bb[:, s[l]]
            if use_features:
                logw += (mu @ feats[l] - 0.5 * mu_sq) / sigma2

            aux_q = aux_q_all[l]
            aux_mu = aux_mu_all[l]
            aux_logw = aux_base[l]
            if singleton_params is not None:
                aux_q = aux_q.copy()
                aux_mu = aux_mu.copy()
                aux_logw = aux_logw.copy()
                q_s, mu_s = singleton_params
                aux_q[0] = q_s
                aux_mu[0] = mu_s
                a_s = self.c_group * q_s
                b_s = self.c_group * (1.0 - q_s)
                w0 = log_alpha_aux + float(beta_binomial_table(a_s, b_s, n_years)[s[l]])
                if use_features:
                    w0 += (float(feats[l] @ mu_s) - 0.5 * float(mu_s @ mu_s)) / sigma2
                aux_logw[0] = w0

            all_logw = np.concatenate([logw, aux_logw])
            all_logw += rng.gumbel(size=all_logw.size)
            choice = int(all_logw.argmax())

            if choice < k_live:
                z[l] = choice
                counts[choice] += 1.0
                log_counts[choice] = math.log(counts[choice])
            else:
                events["births"] += 1
                h = choice - k_live
                new_k = state.add(float(aux_q[h]), aux_mu[h], 1)
                scales.append(AdaptiveScale())
                z[l] = new_k
                counts = np.append(counts, 1.0)
                log_counts = np.append(log_counts, 0.0)
                bb = np.vstack([bb, state.bb_table[new_k]])
                mu = np.vstack([mu, aux_mu[h]])
                mu_sq = np.append(mu_sq, float(aux_mu[h] @ aux_mu[h]))
        state.count = [int(c) for c in counts]

        hist = np.zeros((state.k, int(m) + 1))
        np.add.at(hist, (z, s), 1.0)
        for k in range(state.k):

            def log_target(qk: float, hk=hist[k]) -> float:
                prior = float(beta_logpdf(qk, self.c0 * self.q0, self.c0 * (1.0 - self.q0)))
                return prior + float(hk @ state.bb_column(qk))

            new_q, accepted = metropolis_probability_step(
                state.q[k], log_target, scales[k].scale, rng
            )
            scales[k].update(accepted)
            q_props += 1
            q_accepts += int(accepted)
            if accepted:
                state.q[k] = new_q
                state.bb_table[k] = state.bb_column(new_q)

        if use_features:
            k_tot = state.k
            seg_sums = np.zeros((k_tot, d))
            np.add.at(seg_sums, z, feats)
            n_k = np.bincount(z, minlength=k_tot).astype(float)
            post_var = 1.0 / (1.0 / tau2 + n_k / sigma2)
            post_mean = post_var[:, None] * seg_sums / sigma2
            draws = post_mean + np.sqrt(post_var)[:, None] * rng.standard_normal((k_tot, d))
            state.mu = [draws[k] for k in range(k_tot)]

        n_clusters_trace.append(state.k)
        log_lik_trace.append(float(np.asarray(state.bb_table)[z, s].sum()))
        accept_trace.append((q_accepts - q_accepts_prev) / max(q_props - q_props_prev, 1))
        q_accepts_prev, q_props_prev = q_accepts, q_props

        if sweep >= self.burn_in:
            q_z = np.asarray(state.q)[z]
            rho_sweep = (self.c_group * q_z + s) / (self.c_group + m)
            rho_acc += rho_sweep
            rho_sq_acc += rho_sweep**2
            kept += 1

    rho_mean = rho_acc / kept
    rho_var = np.maximum(rho_sq_acc / kept - rho_mean**2, 0.0)
    posterior = DPMHBPPosterior(
        rho_mean=rho_mean,
        rho_std=np.sqrt(rho_var),
        n_clusters_trace=np.asarray(n_clusters_trace),
        last_assignments=z.copy(),
        last_q=np.asarray(state.q),
        accept_rate_q=q_accepts / max(q_props, 1),
        log_lik_trace=np.asarray(log_lik_trace),
        accept_trace=np.asarray(accept_trace),
    )
    return posterior, events


def reference_ranksvm_coef(
    X: np.ndarray, y: np.ndarray, lam: float, n_pairs: int, epochs: int, seed: int
) -> tuple[np.ndarray, int]:
    """Pegasos over sampled pairs, one pair difference per step.

    Returns the weights and how many steps the projection fired on.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    pos_idx = np.flatnonzero(y == 1.0)
    neg_idx = np.flatnonzero(y != 1.0)
    rng = np.random.default_rng(seed)
    w = np.zeros(X.shape[1])
    t = 0
    projections = 0
    for _ in range(epochs):
        p = rng.choice(pos_idx, size=n_pairs)
        n = rng.choice(neg_idx, size=n_pairs)
        for i in range(n_pairs):
            t += 1
            eta = 1.0 / (lam * t)
            diff = X[p[i]] - X[n[i]]
            w *= 1.0 - eta * lam
            if w @ diff < 1.0:
                w += eta * diff
            norm = float(np.linalg.norm(w))
            radius = 1.0 / np.sqrt(lam)
            if norm > radius:
                w *= radius / norm
                projections += 1
    return w, projections


def reference_linear_svm(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    epochs: int,
    balanced: bool,
    seed: int,
    fit_intercept: bool,
) -> tuple[np.ndarray, float]:
    """Pegasos on single examples; returns ``(coef, intercept)``."""
    X = np.asarray(X, dtype=float)
    y01 = np.asarray(y, dtype=float).ravel()
    y_pm = 2.0 * y01 - 1.0
    n, d = X.shape
    if balanced:
        n_pos = max(int(y01.sum()), 1)
        n_neg = max(n - n_pos, 1)
        weights = np.where(y01 == 1.0, n / (2.0 * n_pos), n / (2.0 * n_neg))
    else:
        weights = np.ones(n)
    rng = np.random.default_rng(seed)
    w = np.zeros(d)
    b = 0.0
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            margin = y_pm[i] * (X[i] @ w + b)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * weights[i] * y_pm[i] * X[i]
                if fit_intercept:
                    b += eta * weights[i] * y_pm[i]
            norm = np.linalg.norm(w)
            radius = 1.0 / np.sqrt(lam)
            if norm > radius:
                w *= radius / norm
    return w, b


def reference_weibull_fit(
    X: np.ndarray, counts: np.ndarray, age_start: np.ndarray, age_end: np.ndarray, l2: float
) -> tuple[float, PoissonRegression]:
    """Weibull NHPP on stacked unit-window rows: covariates repeated per window.

    ``counts`` and the ages are (units × windows). Returns the fitted
    shape and the GLM of the profiled fit.
    """
    n_windows = counts.shape[1]
    X = np.repeat(np.asarray(X, dtype=float), n_windows, axis=0)
    counts = np.asarray(counts, dtype=float).ravel()
    age_start = np.asarray(age_start, dtype=float).ravel()
    age_end = np.asarray(age_end, dtype=float).ravel()

    def profiled_negloglik(shape: float) -> tuple[float, PoissonRegression]:
        exposure = _weibull_exposure(age_start, age_end, shape)
        glm = PoissonRegression(l2=l2).fit(X, counts, exposure=exposure)
        mu = np.maximum(glm.predict_rate(X, exposure=exposure), 1e-300)
        return -float(counts @ np.log(mu) - mu.sum()), glm

    lo, hi = WeibullNHPP.shape_bounds
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, glm_c = profiled_negloglik(c)
    fd, glm_d = profiled_negloglik(d)
    for _ in range(40):
        if fc < fd:
            hi, d, fd, glm_d = d, c, fc, glm_c
            c = hi - invphi * (hi - lo)
            fc, glm_c = profiled_negloglik(c)
        else:
            lo, c, fc, glm_c = c, d, fd, glm_d
            d = lo + invphi * (hi - lo)
            fd, glm_d = profiled_negloglik(d)
        if hi - lo < 1e-4:
            break
    return (c, glm_c) if fc < fd else (d, glm_d)


def reference_fit_hbp(
    failures: np.ndarray,
    groups: np.ndarray,
    q0: float = 0.02,
    c0: float = 4.0,
    c_group: float = 30.0,
    n_sweeps: int = 250,
    burn_in: int = 100,
    seed: int = 0,
) -> HBPPosterior:
    """HBP with one Metropolis step per group, each target summing its members."""
    failures = np.asarray(failures)
    groups = np.asarray(groups, dtype=np.int64)
    n_units, n_years = failures.shape
    n_groups = int(groups.max()) + 1
    s = failures.sum(axis=1).astype(float)
    m = float(n_years)

    rng = np.random.default_rng(seed)
    q = np.full(n_groups, q0)
    scales = [AdaptiveScale() for _ in range(n_groups)]
    member_s = [s[groups == k].astype(np.int64) for k in range(n_groups)]

    pi_acc = np.zeros(n_units)
    q_acc = np.zeros(n_groups)
    q_trace: list[np.ndarray] = []
    n_accept = 0
    n_prop = 0
    kept = 0
    for sweep in range(n_sweeps):
        for k in range(n_groups):
            sk = member_s[k]

            def log_target(qk: float, sk=sk) -> float:
                prior = float(beta_logpdf(qk, c0 * q0, c0 * (1.0 - q0)))
                column = beta_binomial_table(c_group * qk, c_group * (1.0 - qk), n_years)
                lik = float(np.sum(column[sk]))
                return prior + lik

            q[k], accepted = metropolis_probability_step(
                q[k], log_target, scales[k].scale, rng
            )
            scales[k].update(accepted)
            n_prop += 1
            n_accept += int(accepted)
            if sweep == burn_in:
                scales[k].freeze()

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
