"""Fast perf smoke for tier-1 CI: ``python -m repro.perf smoke``.

Five checks, each timed once and held under a generous per-check
ceiling (``--ceiling``, 5 s by default), so an accidental O(n²) path or
lost vectorization fails CI in seconds without ever flaking on a slow
machine:

``dpmhbp_one_sweep``     one DPMHBP sweep over 500 segments
``ranksvm_fit``          one default RankSVM fit on a snapshot-sized matrix
``empirical_auc_100k``   one exact-AUC call on 100k scores
``telemetry_noop_200k``  200k disabled span+counter calls
``parallel_fanout``      two maps over a published shared-memory bundle

Exit 0 when every check lands under the ceiling, 1 otherwise. Wired to
``make perfcheck`` and (under ``REPRO_EXECUTOR=processes REPRO_JOBS=2``)
``make perfcheck-procs``. Throughput tracking lives in the
pytest-benchmark suite ``benchmarks/test_perf_samplers.py`` (``make
bench-save`` / ``make bench-compare``); end-to-end speed in ``gridbench``.
"""

from __future__ import annotations

import argparse
import time
from typing import Any

__all__ = ["build_parser", "main"]


def _fanout_worker(task: "tuple[Any, int]") -> float:
    """Light reduction over one row of a published bundle.

    Module-level so process pools can pickle it by name. The handle
    travels in the task tuple — a few hundred bytes — and the arrays are
    resolved as read-only zero-copy views on the worker side.
    """
    from ..parallel import shm

    handle, i = task
    arrays = shm.resolve_bundle(handle)
    x = arrays["x"]
    return float(x[i % x.shape[0]].sum())


def _telemetry_noop() -> None:
    """200k disabled span+counter calls — the cost instrumentation leaves behind.

    Telemetry lives permanently inside sweep loops and worker envelopes,
    so the *disabled* path must stay a near-free attribute check; any
    accidental work on it (a dict lookup, an allocation per call) shows
    up here.
    """
    from .. import telemetry

    telemetry.disable()
    noop_span = telemetry.span
    noop_count = telemetry.count
    for _ in range(200_000):
        with noop_span("hot"):
            noop_count("iterations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m repro.perf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("smoke", help="fast perf sanity check for tier-1 CI")
    p.add_argument("--ceiling", type=float, default=5.0, help="per-check seconds limit")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the five checks, print one line each; 0 if all beat the ceiling."""
    ceiling = build_parser().parse_args(argv).ceiling

    import numpy as np

    from ..core.dpmhbp import DPMHBP
    from ..core.ranking.objective import empirical_auc
    from ..core.ranking.ranksvm import RankSVM
    from ..parallel import parallel_map, resolve_executor, shm

    rng = np.random.default_rng(0)
    failures = (rng.random((500, 11)) < 0.02).astype(np.int8)
    features = rng.standard_normal((500, 10))
    scores = rng.standard_normal(100_000)
    labels = (rng.random(100_000) < 0.01).astype(float)
    labels[0] = 1.0
    # A snapshot-sized ranking matrix: ~4k pipes, ~30 columns, 2% positives.
    rank_X = rng.standard_normal((4_000, 30))
    rank_y = (rng.random(4_000) < 0.02).astype(float)
    rank_y[0] = 1.0

    def _fanout_check() -> None:
        config = resolve_executor()
        bundle = shm.publish_bundle(
            {"x": rng.standard_normal((8, 50_000))}, config=config
        )
        tasks = [(bundle, i) for i in range(8)]
        try:
            first = parallel_map(_fanout_worker, tasks, config)
            second = parallel_map(_fanout_worker, tasks, config)
        finally:
            shm.release(bundle)
        if first != second:
            raise AssertionError("parallel fan-out is not deterministic")
        if shm.active_segments():
            raise AssertionError("released bundle left shared-memory segments")

    checks = {
        "dpmhbp_one_sweep": lambda: DPMHBP(n_sweeps=1, burn_in=0, seed=0).fit(
            failures, features
        ),
        # The SVM comparator's fit (and AUC-Rank's warm start): 150k
        # sequential Pegasos steps at the defaults.
        "ranksvm_fit": lambda: RankSVM().fit(rank_X, rank_y),
        "empirical_auc_100k": lambda: empirical_auc(scores, labels),
        "telemetry_noop_200k": _telemetry_noop,
        # Fan-out sanity under whatever REPRO_EXECUTOR/REPRO_JOBS the CI
        # run sets: two maps, each through its own per-call pool when
        # processes-mode, over a published bundle; the results must agree
        # and no shared-memory segment may outlive the release.
        "parallel_fanout": _fanout_check,
    }
    failed = False
    for name, fn in checks.items():
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        ok = elapsed <= ceiling
        failed = failed or not ok
        print(f"{name:<20s} {1000 * elapsed:8.1f} ms  (ceiling {ceiling:.1f} s)"
              f"  {'ok' if ok else 'TOO SLOW'}")
    return 1 if failed else 0
