"""MCMC convergence diagnostics: ESS, Geweke z-score, split-R̂.

Implemented from scratch on top of numpy so the sampler stack has no
external PPL dependency. All functions take a 1-D array of (post burn-in)
samples of a scalar quantity, except :func:`split_rhat`, which accepts
``(n_chains, n_samples)``.

Degenerate inputs — constant (or numerically constant) chains — have no
well-defined diagnostic: every estimator here returns ``nan`` for them,
with the defined meaning **"undiagnosable"**. Callers (the health
monitor in :mod:`repro.monitor`) treat ``nan`` as "cannot certify", never
as "converged"; none of these functions raise on a constant chain.
"""

from __future__ import annotations

import numpy as np


def autocorrelation(x: np.ndarray, max_lag: int | None = None) -> np.ndarray:
    """Sample autocorrelation function via FFT, lags ``0..max_lag``."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    if max_lag is None:
        max_lag = n - 1
    max_lag = min(max_lag, n - 1)
    centred = x - x.mean()
    # Zero-pad to the next power of two for FFT efficiency.
    size = 1 << int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(centred, size)
    acov = np.fft.irfft(f * np.conjugate(f))[: max_lag + 1].real / n
    if acov[0] <= 0:
        return np.concatenate([[1.0], np.zeros(max_lag)])
    return acov / acov[0]


def effective_sample_size(x: np.ndarray) -> float:
    """ESS using Geyer's initial positive sequence truncation.

    Sums autocorrelations over pairs ``ρ(2t) + ρ(2t+1)`` while the pair sum
    stays positive, which is the standard conservative estimator. A
    constant chain has no information about mixing, so its ESS is ``nan``
    ("undiagnosable") rather than the flattering ``n``.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n >= 2 and np.ptp(x) == 0.0:
        return float("nan")
    if n < 4:
        return float(n)
    rho = autocorrelation(x)
    tau = 1.0
    t = 1
    while t + 1 < rho.size:
        pair = rho[t] + rho[t + 1]
        if pair < 0:
            break
        tau += 2.0 * pair
        t += 2
    return float(min(n, n / max(tau, 1e-12)))


def geweke_zscore(x: np.ndarray, first: float = 0.1, last: float = 0.5) -> float:
    """Geweke diagnostic: z-score comparing early vs late chain means.

    ``|z|`` above ~2 suggests the retained chain has not converged. The
    two windows' variances are estimated with the ESS-corrected standard
    error, making the score robust to autocorrelation.

    Constant (or numerically constant) windows leave the standard error
    zero or undefined; the score is then ``nan`` ("undiagnosable") rather
    than a divide-by-zero or a false-confidence ``0.0``.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 20:
        raise ValueError("need at least 20 samples for a Geweke score")
    if not (0 < first < 1 and 0 < last < 1 and first + last <= 1):
        raise ValueError("window fractions must be in (0, 1) and sum to <= 1")
    a = x[: int(first * n)]
    b = x[n - int(last * n):]
    with np.errstate(divide="ignore", invalid="ignore"):
        ess_a = effective_sample_size(a)
        ess_b = effective_sample_size(b)
        if not (np.isfinite(ess_a) and np.isfinite(ess_b)):
            return float("nan")  # a window is constant: undiagnosable
        var_a = a.var(ddof=1) / max(ess_a, 1.0)
        var_b = b.var(ddof=1) / max(ess_b, 1.0)
        denom = np.sqrt(var_a + var_b)
        if denom == 0 or not np.isfinite(denom):
            return float("nan")
        z = float((a.mean() - b.mean()) / denom)
    return z if np.isfinite(z) else float("nan")


def split_rhat(chains: np.ndarray) -> float:
    """Split-R̂ (Gelman–Rubin with each chain halved).

    ``chains`` has shape ``(n_chains, n_samples)``; values near 1.0
    indicate the chains are mixing over the same distribution. A single
    chain is accepted (it is split into two half-chains).

    Odd-length chains drop their **last** sample before splitting, so the
    two half-chains have equal length (``n_samples // 2`` each); callers
    diagnosing very short chains should budget one extra sample. At least
    4 samples per chain are required for the halves to carry a variance.

    When the pooled within-half variance ``W`` is zero — every half-chain
    constant — the ratio is undefined and the result is ``nan``
    ("undiagnosable"): identical constant chains are *not* evidence of
    mixing, merely of a degenerate quantity.
    """
    chains = np.asarray(chains, dtype=float)
    if chains.ndim == 1:
        chains = chains[None, :]
    if chains.ndim != 2:
        raise ValueError(
            f"chains must be 1-D or (n_chains, n_samples), got shape {chains.shape}"
        )
    n_chains, n_samples = chains.shape
    if n_chains < 1:
        raise ValueError("need at least one chain")
    if n_samples < 4:
        raise ValueError(
            f"need at least 4 samples per chain for split-R̂, got {n_samples}"
        )
    half = n_samples // 2
    split = np.concatenate([chains[:, :half], chains[:, half : 2 * half]], axis=0)
    m, n = split.shape
    chain_means = split.mean(axis=1)
    chain_vars = split.var(axis=1, ddof=1)
    w = chain_vars.mean()
    b = n * chain_means.var(ddof=1)
    if w == 0 or not np.isfinite(w):
        return float("nan")  # constant half-chains: undiagnosable
    var_hat = (n - 1) / n * w + b / n
    rhat = float(np.sqrt(var_hat / w))
    return rhat if np.isfinite(rhat) else float("nan")
