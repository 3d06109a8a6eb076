"""Dirichlet process mixture of hierarchical beta processes (DPMHBP).

The proposed model (Eq. 18.7): pipe *segments* are adaptively grouped by a
CRP, each group ``k`` carries a failure rate ``q_k`` with a beta-process
prior, segment failure probabilities ``ρ_l`` are Beta-distributed around
their group's rate, yearly segment failures are Bernoulli draws, and a
pipe's failure probability composes over its serially connected segments:

    q_k ~ Beta(c0·q0, c0·(1−q0))          group failure rate
    z_l ~ CRP(α)                           adaptive segment grouping
    ρ_l ~ Beta(c·q_{z_l}, c·(1−q_{z_l}))   segment failure probability
    y_{l,j} ~ Bernoulli(ρ_l)               yearly failure indicators
    π_i = 1 − Π_{l∈pipe i} (1 − ρ_l)       pipe failure probability

Grouping is *feature-aware*: each cluster also carries a Gaussian mean
over the segment's (standardised) Table 18.2 features, so segments cluster
by the joint evidence of failure history and intrinsic/environmental
attributes — "pipes with similar intrinsic attributes and environmental
factors often share similar failure patterns". The number of groups is
unbounded and inferred.

Inference is Metropolis-within-Gibbs (the HBP hierarchy breaks conjugacy
for ``q_k``), with Neal's Algorithm 8 auxiliary-cluster moves for the CRP
assignments and ``ρ_l`` collapsed out of the assignment and ``q_k`` blocks
(the Beta–Binomial marginal). Because every segment has the same number of
observation years ``m`` and tiny failure counts, the per-cluster
Beta–Binomial terms are precomputed as a ``(K, m+1)`` table once per sweep
— the sparsity-exploiting approximation that keeps sweeps linear in the
number of segments.

The implementation keeps the sequential CRP scan (Algorithm 8 is
inherently one-segment-at-a-time) but takes every numpy call it can out
of the per-segment step. Within a sweep a candidate's log-weight changes
only through its cluster's live size: the Beta–Binomial term, the feature
term and the auxiliary clusters' weights (one pass over all ``n_aux``
candidates of every segment, a product of rising factorials per group of
segments with equal failure counts) are fixed until the cluster count
changes. So the scan scores a window of upcoming steps at once — the
existing clusters' Beta–Binomial columns plus one ``feats @ mu.T``
product per window, then the auxiliaries — and adds the window's Gumbel
noise, drawn in blocks (Gumbel-max: no normalisation, no ``rng.choice``).

Each step's draw is also made speculatively, once per window: the window
adds its start log-counts ℓ⁰ and takes every row's winner and runner-up
in one pass. A count of n moves its log-weight by only about 1/n, while
the Gumbel gap between a row's top two candidates is O(1). So the scan
tracks D, the largest drift |ℓ_k − ℓ⁰_k| any count update has caused
since the window opened, and a step keeps its speculative winner when
the row's margin exceeds 2D (:func:`_certified_draws` proves that this
is the draw the live log-counts give, rounding and ties included).
Otherwise it adds the live log-counts to its row and takes the argmax.
The step itself is pure Python: labels, cluster sizes and their logs
live in lists, written back once per sweep. A birth or death changes K
and rescores the rest of the window; the noise it did not use is handed
back, and after the scan the generator is rewound so that Blocks 2-3 see
exactly the stream per-step draws would have left.

The batched product rounds differently from a per-segment
``mu @ feats[l]``, and the terms are summed in another order; that can
change a draw only through a tie within rounding between two perturbed
weights, which continuous Gumbel noise makes vanishingly rare (tests pin
the outputs to the per-step loop byte for byte). Around the scan, the
``q_k`` block scores every cluster's current and proposed rate in one
batch, each through its (m+1)-bin failure-count histogram instead of its
member vector, and the conjugate Gaussian block updates every cluster
mean in one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..bayes.distributions import beta_binomial_at, beta_binomial_table, beta_logpdf
from ..features.builder import ModelData
from ..inference.metropolis import AdaptiveScale, metropolis_probability_steps
from ..ml.glm import PoissonRegression
from ..monitor.health import ChainHealth, HealthReport
from ..parallel import shm
from ..parallel.executor import parallel_map, resolve_executor
from .base import FailureModel


#: Target size of one window of the CRP scan: its perturbed candidate
#: log-weights, one float64 row of ``K + n_aux`` per step.
SCAN_BLOCK_BYTES = 1 << 15


class _GumbelStream:
    """Standard Gumbel noise from ``rng``, drawn in blocks and taken in order.

    Each Gumbel value consumes the generator one draw at a time, so values
    taken from blocks equal those of one ``rng.gumbel`` call per scan step.
    The scan hands back values it scored but did not use (:meth:`untake`)
    when the cluster count changes; :meth:`close` then rewinds the
    generator to the draw holding the last value taken and redraws up to
    it, leaving the generator exactly where per-step calls would have.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.values = np.zeros(0)
        self.pos = 0  # next value to take from self.values
        self.offset = 0  # stream position of self.values[0]
        self.draws: list[tuple[int, dict]] = []  # (stream position, state)

    def take(self, n: int) -> np.ndarray:
        short = self.pos + n - self.values.size
        if short > 0:
            self.draws.append((self.offset + self.values.size, self.rng.bit_generator.state))
            self.offset += self.pos
            self.values = np.concatenate([self.values[self.pos :], self.rng.gumbel(size=short)])
            self.pos = 0
        out = self.values[self.pos : self.pos + n]
        self.pos += n
        return out

    def untake(self, n: int) -> None:
        self.pos -= n

    def close(self) -> None:
        if self.pos == self.values.size:
            return  # every value drawn was taken
        taken = self.offset + self.pos
        start, state = next((at, st) for at, st in reversed(self.draws) if at <= taken)
        self.rng.bit_generator.state = state
        self.rng.gumbel(size=taken - start)


def _certified_draws(spec: np.ndarray) -> tuple[list[int], list[float]]:
    """Each row's winner and the margin by which the live draw must agree.

    ``spec`` holds a window's perturbed log-weights plus the window-start
    log-counts ℓ⁰: V = fl(W + ℓ⁰). The scan's step j draws the argmax of
    T = fl(W_j + ℓ) at the live log-counts ℓ. Let k₁ be row j's argmax of
    V, v₁ = V_{k₁} and v₂ the runner-up, and let D bound |ℓ_k − ℓ⁰_k| over
    every k. Rounding to nearest is monotone and moves a value by at most
    u·|value| (u = 2⁻⁵³), and x ↦ x + u|x| is increasing, so for every
    k ≠ k₁

        T_{k₁} ≥ v₁ − D − u·(2|v₁| + D) − …,   T_k ≤ v₂ + D + u·(2|v₂| + D) + …

    (the dots are O(u²) terms). The returned margin is
    v₁ − v₂ − 1e-12·(1 + |v₁| + |v₂|). When it exceeds 2D, then D is
    below |v₁| + |v₂| and the slack exceeds every rounding term above, so
    T_{k₁} > T_k strictly. Then the live argmax is k₁, with ties and
    rounding accounted for, and the scan keeps k₁ without rescoring.
    Otherwise, and for a NaN margin (a one-candidate row), it falls back
    to the exact row.
    """
    rows = np.arange(spec.shape[0])
    best = spec.argmax(axis=1)
    v1 = spec[rows, best]
    spec[rows, best] = -np.inf
    v2 = spec.max(axis=1)
    with np.errstate(invalid="ignore"):
        margin = v1 - v2 - 1e-12 * (1.0 + np.abs(v1) + np.abs(v2))
    return best.tolist(), margin.tolist()


@dataclass
class DPMHBPPosterior:
    """Posterior summaries of one DPMHBP fit."""

    rho_mean: np.ndarray  # (n_segments,) posterior mean failure probability
    rho_std: np.ndarray  # (n_segments,) posterior sd of the conditional mean
    n_clusters_trace: np.ndarray  # (n_sweeps,)
    last_assignments: np.ndarray  # (n_segments,)
    last_q: np.ndarray  # (K,) group rates at the final sweep
    accept_rate_q: float
    log_lik_trace: np.ndarray  # (n_sweeps,) collapsed Beta–Binomial log-likelihood
    accept_trace: np.ndarray  # (n_sweeps,) q-block acceptance rate


class _ClusterState:
    """Mutable cluster bookkeeping for the Gibbs sweeps."""

    def __init__(self, c_group: float, m: int, d: int):
        self.c = c_group
        self.m = m
        self.d = d
        self.q: list[float] = []
        self.mu: list[np.ndarray] = []
        self.count: list[int] = []
        self.bb_table: list[np.ndarray] = []  # (m+1,) per cluster

    @property
    def k(self) -> int:
        return len(self.q)

    def bb_columns(self, q: np.ndarray) -> np.ndarray:
        """Beta–Binomial log marginals for s = 0..m, one row per rate in ``q``."""
        return beta_binomial_table(self.c * q, self.c * (1.0 - q), self.m)

    def add(self, q: float, mu: np.ndarray, count: int = 0) -> int:
        self.q.append(float(q))
        self.mu.append(np.asarray(mu, dtype=float))
        self.count.append(count)
        self.bb_table.append(self.bb_columns(np.array([q]))[0])
        return self.k - 1

    def remove(self, k: int) -> None:
        for attr in (self.q, self.mu, self.count, self.bb_table):
            attr.pop(k)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(bb (m+1, K), mu (K, d), ‖mu‖² (K,)) as arrays."""
        k = self.k
        bb = np.asarray(self.bb_table).reshape(k, self.m + 1)
        mu = np.asarray(self.mu).reshape(k, self.d)
        return bb.T.copy(), mu, np.sum(mu**2, axis=1)


@dataclass
class DPMHBP:
    """The DPMHBP sampler on raw arrays (no dataset plumbing).

    Parameters
    ----------
    alpha:
        CRP concentration — larger means more (finer) groups a priori.
    q0, c0:
        Top-level beta-process mean and concentration (group-rate prior).
    c_group:
        Concentration tying segment probabilities to their group rate.
    feature_weight:
        Weight of the feature likelihood in the grouping (the Gaussian
        noise variance is ``1/feature_weight``); 0 disables feature-aware
        grouping (history-only clustering).
    n_aux:
        Auxiliary clusters per assignment move (Neal Algorithm 8's ``m``).
    """

    alpha: float = 4.0
    q0: float = 0.02
    c0: float = 4.0
    c_group: float = 30.0
    feature_weight: float = 3.0
    n_aux: int = 2
    n_sweeps: int = 60
    burn_in: int = 20
    seed: int = 0

    def fit(
        self,
        failures: np.ndarray,
        features: np.ndarray | None = None,
        init_labels: np.ndarray | None = None,
    ) -> DPMHBPPosterior:
        """Run the sampler on a binary (segments × years) failure matrix.

        ``init_labels`` optionally seeds the partition (e.g. a coarse
        attribute crossing); the CRP moves then merge/split/refine it. A
        good seed shortens burn-in dramatically — the stationary
        distribution is unchanged.
        """
        with telemetry.span(
            "dpmhbp.fit", n_sweeps=self.n_sweeps, seed=self.seed
        ):
            posterior = self._fit(failures, features, init_labels)
        telemetry.count("dpmhbp.fits")
        return posterior

    def _fit(
        self,
        failures: np.ndarray,
        features: np.ndarray | None,
        init_labels: np.ndarray | None,
    ) -> DPMHBPPosterior:
        failures = np.asarray(failures)
        if failures.ndim != 2:
            raise ValueError("failures must be (segments, years)")
        n_seg, n_years = failures.shape
        if n_seg == 0:
            raise ValueError("failures must have at least one segment")
        if self.burn_in >= self.n_sweeps:
            raise ValueError("burn_in must be smaller than n_sweeps")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.c_group > 0.0:
            raise ValueError(f"c_group must be positive, got {self.c_group}")
        if self.n_aux < 1:
            raise ValueError(f"n_aux must be at least 1, got {self.n_aux}")
        s = failures.sum(axis=1).astype(np.int64)
        m = float(n_years)

        use_features = features is not None and self.feature_weight > 0.0
        if use_features:
            feats = np.asarray(features, dtype=float)
            if feats.shape[0] != n_seg:
                raise ValueError("features must have one row per segment")
            d = feats.shape[1]
            sigma2 = 1.0 / self.feature_weight
        else:
            feats = np.zeros((n_seg, 1))
            d = 1
            sigma2 = 1.0
        tau2 = 1.0  # prior variance of cluster feature means

        rng = np.random.default_rng(self.seed)
        state = _ClusterState(self.c_group, n_years, d)

        # Initialise from the provided seed partition, or a coarse random one.
        # Either way, relabel to contiguous ids so no initial cluster is
        # empty — reassigning random segments to fill gaps (the old
        # behaviour) could silently empty *another* cluster and leave its
        # stale count in play for the whole run.
        if init_labels is not None:
            z = np.asarray(init_labels, dtype=np.int64).copy()
            if z.shape != (n_seg,):
                raise ValueError("init_labels must have one label per segment")
        else:
            init_k = max(2, min(10, n_seg))
            z = rng.integers(0, init_k, size=n_seg)
        _, z = np.unique(z, return_inverse=True)
        for k in range(int(z.max()) + 1):
            members = z == k
            mu0 = feats[members].mean(axis=0) if use_features else np.zeros(d)
            q_init = min(max((s[members].mean() / m) + 1e-3, 1e-4), 0.5)
            state.add(q_init, mu0, int(members.sum()))

        scales: list[AdaptiveScale] = [AdaptiveScale() for _ in range(state.k)]
        rho_acc = np.zeros(n_seg)
        rho_sq_acc = np.zeros(n_seg)
        kept = 0
        n_clusters_trace = []
        log_lik_trace = []
        accept_trace = []
        q_accepts = 0
        q_props = 0
        q_accepts_prev = 0
        q_props_prev = 0

        log_alpha_aux = math.log(self.alpha / self.n_aux)
        a0 = self.c0 * self.q0
        b0 = self.c0 * (1.0 - self.q0)
        sqrt_tau = math.sqrt(tau2)
        # A segment's failure count is fixed for the whole fit, so the
        # segments are grouped by count once and every sweep scores its
        # auxiliary candidates one count group at a time.
        count_groups = [(int(v), np.flatnonzero(s == v)) for v in np.unique(s)]
        # ``math.log`` of every cluster size the scan can reach.
        log_table = [-math.inf] + [math.log(n) for n in range(1, n_seg + 1)]

        for sweep in range(self.n_sweeps):
            # ---- Block 1: CRP assignments (Neal Algorithm 8) ----
            order = rng.permutation(n_seg)
            # Draw every segment's auxiliary-cluster parameters up front and
            # score them in one vectorized pass: the failure count s_l is
            # fixed within a sweep, so each segment's Beta–Binomial term
            # depends only on its own pre-drawn auxiliary rates.
            aux_q_all = rng.beta(a0, b0, (n_seg, self.n_aux))
            aux_mu_all = rng.normal(0.0, sqrt_tau, (n_seg, self.n_aux, d))
            a_aux = self.c_group * aux_q_all
            b_aux = self.c_group - a_aux
            aux_base = np.empty((n_seg, self.n_aux))
            for count, members in count_groups:
                aux_base[members] = beta_binomial_at(
                    a_aux[members], b_aux[members], count, n_years
                )
            aux_base += log_alpha_aux
            if use_features:
                # ‖feats_l‖² is common to every candidate (existing and
                # auxiliary) and cannot move the draw, so both weight
                # formulas drop it.
                aux_cross = np.einsum("ld,lhd->lh", feats, aux_mu_all)
                aux_sq = np.einsum("lhd,lhd->lh", aux_mu_all, aux_mu_all)
                aux_base += (aux_cross - 0.5 * aux_sq) / sigma2

            # The scan's live state is plain Python: labels, cluster sizes
            # and their logs, the logs padded with zeros over the auxiliary
            # candidates. The logs hold what the per-step loop holds:
            # ``np.log`` values from the sweep start, ``math.log`` values
            # (from ``log_table``) after an update.
            labels = z.tolist()
            counts = list(state.count)
            k_live = len(counts)
            log_counts = np.log(counts).tolist() + [0.0] * self.n_aux
            bb_t, mu, mu_sq = state.arrays()
            noise = _GumbelStream(rng)
            # The deleted singleton's weight and parameters, recycled as the
            # first auxiliary candidate of the step that emptied it (Alg 8).
            recycled = None
            n_exact = 0
            step = 0
            while step < n_seg:
                # Everything in a candidate's log-weight but the live
                # log-count is fixed until K changes (q and mu move only in
                # Blocks 2-3), so a window of steps is scored and perturbed
                # at once: row j holds step j's K existing clusters, then
                # its auxiliaries, plus Gumbel noise.
                width = k_live + self.n_aux
                rows = order[step : step + max(1, SCAN_BLOCK_BYTES // (8 * width))]
                existing = bb_t[s[rows]]
                if use_features:
                    cross = feats[rows] @ mu.T
                    cross -= 0.5 * mu_sq
                    cross /= sigma2
                    existing += cross
                weights = np.concatenate([existing, aux_base[rows]], axis=1)
                if recycled is not None:
                    weights[0, k_live] = recycled[0]
                weights += noise.take(weights.size).reshape(weights.shape)
                # Speculative draws at the window-start log-counts ℓ⁰, and
                # each row's certified margin (see _certified_draws).
                start_logs = list(log_counts)
                best, margin = _certified_draws(weights + np.array(start_logs))
                drift2 = 0.0  # 2D: twice the largest |ℓ_k − ℓ⁰_k| so far

                for j, l in enumerate(rows.tolist()):
                    if recycled is not None:
                        recycled_params = recycled[1:]
                        recycled = None
                    else:
                        recycled_params = None
                        k_old = labels[l]
                        c = counts[k_old] - 1
                        counts[k_old] = c
                        if c == 0:
                            # Delete the emptied cluster, relabel, and rescore
                            # from this step on with its parameters recycled.
                            q_s, mu_s = state.q[k_old], state.mu[k_old]
                            aux_q = aux_q_all[l].copy()
                            aux_mu = aux_mu_all[l].copy()
                            aux_q[0] = q_s
                            aux_mu[0] = mu_s
                            a_s = self.c_group * q_s
                            b_s = self.c_group * (1.0 - q_s)
                            w0 = log_alpha_aux + float(
                                beta_binomial_at(a_s, b_s, int(s[l]), n_years)
                            )
                            if use_features:
                                w0 += (
                                    float(feats[l] @ mu_s) - 0.5 * float(mu_s @ mu_s)
                                ) / sigma2
                            recycled = (w0, aux_q, aux_mu)
                            state.remove(k_old)
                            scales.pop(k_old)
                            del counts[k_old]
                            del log_counts[k_old]
                            labels = [k - (k > k_old) for k in labels]
                            k_live -= 1
                            bb_t, mu, mu_sq = state.arrays()
                            noise.untake((rows.size - j) * width)
                            step += j
                            break
                        log_c = log_table[c]
                        log_counts[k_old] = log_c
                        gap = abs(log_c - start_logs[k_old])
                        if gap + gap > drift2:
                            drift2 = gap + gap

                    if margin[j] > drift2:
                        choice = best[j]
                    else:
                        # The exact Gumbel-max draw on the live log-weights:
                        # the same float sums, and the first maximum wins,
                        # as with ``argmax``.
                        n_exact += 1
                        logw = [w + lc for w, lc in zip(weights[j].tolist(), log_counts)]
                        choice = logw.index(max(logw))

                    if choice < k_live:
                        labels[l] = choice
                        c = counts[choice] + 1
                        counts[choice] = c
                        log_c = log_table[c]
                        log_counts[choice] = log_c
                        gap = abs(log_c - start_logs[choice])
                        if gap + gap > drift2:
                            drift2 = gap + gap
                    else:
                        h = choice - k_live
                        if recycled_params is not None:
                            aux_q, aux_mu = recycled_params
                        else:
                            aux_q, aux_mu = aux_q_all[l], aux_mu_all[l]
                        labels[l] = state.add(float(aux_q[h]), aux_mu[h], 1)
                        scales.append(AdaptiveScale())
                        counts.append(1)
                        log_counts.insert(k_live, 0.0)
                        k_live += 1
                        bb_t, mu, mu_sq = state.arrays()
                        noise.untake((rows.size - j - 1) * width)
                        step += j + 1
                        break
                else:
                    step += rows.size
            noise.close()
            telemetry.count("dpmhbp.scan_exact_steps", n_exact)
            # The live ``labels`` and ``counts`` lists were authoritative
            # during the scan; they become the cluster state's once per sweep.
            z = np.asarray(labels, dtype=np.int64)
            state.count = counts

            # ---- Block 2: q_k via logit Metropolis (collapsed ρ) ----
            # Failure counts live on the small grid 0..m, so a cluster's
            # collapsed likelihood is its count-histogram dotted with the
            # (m+1)-long Beta–Binomial table — O(m) per target evaluation
            # regardless of cluster size. The clusters' steps are
            # independent, so every current and proposed rate is scored in
            # one batch.
            k_tot = state.k
            n_bins = n_years + 1
            hist = np.bincount(z * n_bins + s, minlength=k_tot * n_bins)
            hist = hist.reshape(k_tot, n_bins).astype(float)

            def log_targets(p: np.ndarray) -> list[float]:
                prior = beta_logpdf(p, a0, b0).tolist()
                cols = state.bb_columns(p)
                return [prior[i] + float(hist[i % k_tot] @ cols[i]) for i in range(p.size)]

            new_q, accepted = metropolis_probability_steps(
                state.q, log_targets, [sc.scale for sc in scales], rng
            )
            for scale, ok in zip(scales, accepted):
                scale.update(ok)
            q_props += k_tot
            q_accepts += sum(accepted)
            moved = [k for k in range(k_tot) if accepted[k]]
            cols = state.bb_columns(np.array([new_q[k] for k in moved], dtype=float))
            for k, col in zip(moved, cols):
                state.q[k] = new_q[k]
                state.bb_table[k] = col

            # ---- Block 3: cluster feature means (conjugate Gaussian) ----
            if use_features:
                seg_sums = np.bincount(
                    (z[:, None] * d + np.arange(d)).ravel(),
                    weights=feats.ravel(),
                    minlength=k_tot * d,
                ).reshape(k_tot, d)
                n_k = np.bincount(z, minlength=k_tot).astype(float)
                post_var = 1.0 / (1.0 / tau2 + n_k / sigma2)
                post_mean = post_var[:, None] * seg_sums / sigma2
                draws = post_mean + np.sqrt(post_var)[:, None] * rng.standard_normal(
                    (k_tot, d)
                )
                state.mu = [draws[k] for k in range(k_tot)]

            n_clusters_trace.append(state.k)
            # Collapsed log-likelihood of the sweep's state: each segment's
            # Beta–Binomial term is one lookup in its cluster's table.
            log_lik = float(np.asarray(state.bb_table)[z, s].sum())
            log_lik_trace.append(log_lik)
            sweep_accept = (q_accepts - q_accepts_prev) / max(
                q_props - q_props_prev, 1
            )
            accept_trace.append(sweep_accept)
            q_accepts_prev, q_props_prev = q_accepts, q_props
            telemetry.count("dpmhbp.sweeps")

            # ---- Accumulate posterior mean ρ (collapsed conditional mean) ----
            if sweep >= self.burn_in:
                q_z = np.asarray(state.q)[z]
                rho_sweep = (self.c_group * q_z + s) / (self.c_group + m)
                rho_acc += rho_sweep
                rho_sq_acc += rho_sweep**2
                kept += 1

        rho_mean = rho_acc / kept
        rho_var = np.maximum(rho_sq_acc / kept - rho_mean**2, 0.0)
        return DPMHBPPosterior(
            rho_mean=rho_mean,
            rho_std=np.sqrt(rho_var),
            n_clusters_trace=np.asarray(n_clusters_trace),
            last_assignments=z.copy(),
            last_q=np.asarray(state.q),
            accept_rate_q=q_accepts / max(q_props, 1),
            log_lik_trace=np.asarray(log_lik_trace),
            accept_trace=np.asarray(accept_trace),
        )


def _fit_dpmhbp_chain(task: tuple) -> DPMHBPPosterior:
    """Run one chain of the sampler (module-level so processes can pickle it).

    The task is ``(sampler, handle)`` — the training arrays travel once
    through the :mod:`repro.parallel.shm` data plane and every chain
    resolves read-only zero-copy views, instead of each task pickling its
    own copy of the same (failures, features, init) bundle.
    """
    sampler, handle = task
    arrays = shm.resolve_bundle(handle)
    failures, features, init = arrays["failures"], arrays["features"], arrays["init"]
    with telemetry.span("dpmhbp.chain", seed=sampler.seed):
        return sampler.fit(failures, features, init_labels=init)


@dataclass
class DPMHBPModel(FailureModel):
    """DPMHBP failure model: segment-level inference, pipe-level prediction.

    Fits the sampler on the training failure matrix and the segment
    clustering features, composes pipe risk as
    ``π_i = 1 − Π(1 − ρ_l)`` over the pipe's segments, and applies the
    multiplicative covariate factor (Poisson GLM), mirroring the paper's
    "features applied multiplicatively" treatment.

    Chains are independent given their derived seeds, so they fan across
    the executor configured by ``jobs``/``executor`` (or the
    ``REPRO_JOBS``/``REPRO_EXECUTOR`` environment variables) with
    bit-identical results on every backend. After fitting, ``health_``
    holds the chains' pooled convergence report, which
    :func:`~repro.eval.experiment.evaluate_models` carries into the run
    journal for ``repro doctor``.
    """

    name: str = "DPMHBP"
    alpha: float = 4.0
    q0: float = 0.02
    c0: float = 4.0
    c_group: float = 30.0
    feature_weight: float = 3.0
    n_sweeps: int = 60
    burn_in: int = 20
    n_chains: int = 2
    covariates: bool = True
    seed: int = 0
    jobs: int | None = None
    executor: str | None = None
    posterior_: DPMHBPPosterior | None = field(default=None, repr=False)
    chain_posteriors_: list[DPMHBPPosterior] = field(default_factory=list, repr=False)
    health_: HealthReport | None = field(default=None, repr=False)
    _factor: np.ndarray | None = field(default=None, repr=False)

    def fit(self, data: ModelData) -> "DPMHBPModel":
        if self.n_chains < 1:
            raise ValueError("need at least one chain")
        # Seed the partition with the material × laid-decade crossing — a
        # coarse expert prior the CRP is free to merge, split and refine.
        materials = np.asarray(data.pipe_material)[data.seg_pipe_idx]
        decades = (data.seg_laid_year // 10).astype(int)
        _, init = np.unique(
            np.char.add(materials.astype(str), decades.astype(str)), return_inverse=True
        )
        features = data.clustering_features()
        exec_config = resolve_executor(self.jobs, self.executor)
        # One shared bundle for every chain: under a multi-worker process
        # config the arrays are published to shared memory once and each
        # task pickles only the small handle; serially the handle
        # degrades to direct references — no copies either way.
        bundle = shm.publish_bundle(
            {"failures": data.seg_fail_train, "features": features, "init": init},
            config=exec_config if self.n_chains > 1 else None,
        )
        tasks = [
            (
                DPMHBP(
                    alpha=self.alpha,
                    q0=self.q0,
                    c0=self.c0,
                    c_group=self.c_group,
                    feature_weight=self.feature_weight,
                    n_sweeps=self.n_sweeps,
                    burn_in=self.burn_in,
                    seed=self.seed + 101 * chain,
                ),
                bundle,
            )
            for chain in range(self.n_chains)
        ]
        try:
            self.chain_posteriors_ = parallel_map(_fit_dpmhbp_chain, tasks, exec_config)
        finally:
            # Workers that attached keep their mappings alive (POSIX unlink
            # semantics), so releasing immediately after the map is safe —
            # and guarantees a raising chain can't leak the segment.
            shm.release(bundle)
        # Pool the chains: the posterior mean averages, the variance adds
        # the within-chain and between-chain components.
        rho_means = np.stack([p.rho_mean for p in self.chain_posteriors_])
        rho_vars = np.stack([p.rho_std**2 for p in self.chain_posteriors_])
        pooled_mean = rho_means.mean(axis=0)
        pooled_var = rho_vars.mean(axis=0) + rho_means.var(axis=0)
        last = self.chain_posteriors_[-1]
        self.posterior_ = DPMHBPPosterior(
            rho_mean=pooled_mean,
            rho_std=np.sqrt(pooled_var),
            n_clusters_trace=last.n_clusters_trace,
            last_assignments=last.last_assignments,
            last_q=last.last_q,
            accept_rate_q=float(
                np.mean([p.accept_rate_q for p in self.chain_posteriors_])
            ),
            log_lik_trace=last.log_lik_trace,
            accept_trace=last.accept_trace,
        )
        self.health_ = self._pool_health()
        if self.covariates:
            counts = data.pipe_fail_train.sum(axis=1).astype(float)
            exposure = np.full(data.n_pipes, float(data.pipe_fail_train.shape[1]))
            glm = PoissonRegression(l2=1e-2).fit(data.X_pipe, counts, exposure=exposure)
            self._factor = glm.covariate_factor(data.X_pipe)
        else:
            self._factor = np.ones(data.n_pipes)
        return self

    def _pool_health(self) -> HealthReport:
        """Fold the chains' per-sweep traces into one convergence report.

        Chains run in (possibly process-pool) workers, so their recorded
        traces are bulk-ingested here. Post-burn-in sweeps only, matching
        what the pooled posterior itself retains.
        """
        health = ChainHealth(burn_in=self.burn_in)
        for posterior in self.chain_posteriors_:
            health.ingest_chain(
                {
                    "n_clusters": np.asarray(posterior.n_clusters_trace, dtype=float),
                    "log_lik": posterior.log_lik_trace,
                    "accept_q": posterior.accept_trace,
                }
            )
        return health.report()

    def predict_pipe_risk(self, data: ModelData) -> np.ndarray:
        if self.posterior_ is None or self._factor is None:
            raise RuntimeError("model used before fit()")
        pipe_prob = data.survival_pipe_probability(self.posterior_.rho_mean)
        return pipe_prob * self._factor
