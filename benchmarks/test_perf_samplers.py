"""P1 — sampler and metric throughput (real timing benchmarks).

Unlike the experiment benchmarks (run once via pedantic), these measure
steady-state throughput of the hot paths: DPMHBP Gibbs sweeps, HBP
sweeps, exact-AUC evaluation, one evolution-strategy generation and the
run journal's checkpoint round-trip. This is the repo's one sampler
micro-benchmark suite: ``make bench-save`` stores a run under
``.benchmarks/`` and ``make bench-compare`` fails when any median
regresses more than 25% against the latest stored run. The pedantic
probes take 10 rounds after a warm-up: at 3 rounds, run-to-run noise on a
2-vCPU VM tripped that gate on an unchanged tree. ``--benchmark-disable``
runs every body once as a plain test (CI does, so the suite cannot rot).
"""

import numpy as np
import pytest

from repro.core.dpmhbp import DPMHBP
from repro.core.hbp import fit_hbp
from repro.core.ranking.evolutionary import EvolutionStrategy
from repro.core.ranking.objective import empirical_auc
from repro.eval.experiment import ModelEvaluation, RegionRun
from repro.runs import CellSpec, RunJournal


@pytest.fixture(scope="module")
def failure_matrix():
    rng = np.random.default_rng(0)
    n, years = 2000, 11
    p = rng.choice([0.001, 0.01, 0.05], size=n, p=[0.7, 0.2, 0.1])
    return (rng.random((n, years)) < p[:, None]).astype(np.int8)


@pytest.fixture(scope="module")
def features(failure_matrix):
    rng = np.random.default_rng(1)
    return rng.standard_normal((failure_matrix.shape[0], 20))


def test_perf_dpmhbp_sweeps(benchmark, failure_matrix, features):
    """Five DPMHBP sweeps over 2k segments (includes CRP reseating)."""

    def run():
        return DPMHBP(n_sweeps=5, burn_in=1, seed=0).fit(failure_matrix, features)

    post = benchmark.pedantic(run, rounds=10, iterations=1, warmup_rounds=1)
    assert post.rho_mean.shape == (2000,)


def test_perf_hbp_sweeps(benchmark, failure_matrix):
    """Fifty HBP sweeps over 2k units with 8 groups."""
    groups = np.arange(2000) % 8

    def run():
        return fit_hbp(failure_matrix, groups, n_sweeps=50, burn_in=10, seed=0)

    post = benchmark.pedantic(run, rounds=10, iterations=1, warmup_rounds=1)
    assert post.pi_mean.shape == (2000,)


def test_perf_empirical_auc(benchmark):
    """Exact AUC on 100k scores (rank-sum path)."""
    rng = np.random.default_rng(0)
    scores = rng.standard_normal(100_000)
    labels = (rng.random(100_000) < 0.01).astype(float)
    labels[0] = 1.0
    auc = benchmark(empirical_auc, scores, labels)
    assert 0.4 < auc < 0.6


def test_perf_es_generation(benchmark):
    """One ES generation (40 evaluations) on a 30-dim AUC-like objective."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((2000, 30))
    y = (rng.random(2000) < 0.05).astype(float)
    y[0] = 1.0

    def run():
        es = EvolutionStrategy(generations=1, population=40, seed=0)
        return es.maximise(lambda w: empirical_auc(X @ w, y), dim=30)

    res = benchmark.pedantic(run, rounds=10, iterations=1, warmup_rounds=1)
    assert 0.0 <= res.best_value <= 1.0


def test_perf_run_journal(benchmark, tmp_path):
    """Checkpoint round-trip: save + validate + load 6 cells of 20k-pipe scores.

    Bounds the per-cell journal overhead (npz serialisation, SHA-256
    checksum, atomic rename, validated reload) that every journalled grid
    pays on top of the model fits (gridbench's ``runs.save_cell_s``).
    """
    rng = np.random.default_rng(0)
    n_pipes = 20_000
    labels = (rng.random(n_pipes) < 0.01).astype(float)
    lengths = rng.uniform(10.0, 500.0, n_pipes)
    cells = []
    for repeat in range(6):
        run = RegionRun(region="A", seed=repeat, labels=labels, pipe_lengths=lengths)
        for model in ("DPMHBP", "HBP", "Cox", "SVM", "Weibull", "AUC-Rank"):
            scores = rng.standard_normal(n_pipes)
            run.evaluations[model] = ModelEvaluation(
                model_name=model,
                scores=scores,
                auc=empirical_auc(scores, labels),
                auc_budget_permyriad=0.0,
            )
        cells.append((CellSpec(region="A", repeat=repeat, seed=repeat), run))
    journal = RunJournal.create(tmp_path / "run", {"bench": "run_journal"})
    specs = [spec for spec, _ in cells]

    def run():
        for spec, cell_run in cells:
            journal.save_cell(spec, cell_run)
        return journal.load_completed(specs)

    loaded = benchmark.pedantic(run, rounds=10, iterations=1, warmup_rounds=1)
    assert sorted(loaded) == sorted(spec.cell_id for spec in specs)
