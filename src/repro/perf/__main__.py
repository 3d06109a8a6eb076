"""``python -m repro.perf`` — the benchmark-regression command line.

Subcommands
-----------
``save``     time the five sampler benchmarks, write ``BENCH_<rev>.json``
``compare``  re-time them and fail (exit 1) on >25% median regressions
             against a baseline snapshot (latest ``BENCH_*.json`` by default)
``smoke``    fast tier-1 sanity check: one DPMHBP sweep, one default
             RankSVM fit and one exact-AUC call must finish under a
             generous ceiling — catches catastrophic slowdowns without
             pytest-benchmark

Wired to ``make bench-save``, ``make bench-compare`` and ``make perfcheck``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import (
    DEFAULT_THRESHOLD,
    compare_to_baseline,
    latest_snapshot,
    load_snapshot,
    run_benchmarks,
    save_snapshot,
)


def _cmd_save(args: argparse.Namespace) -> int:
    path = save_snapshot(directory=args.dir, rev=args.rev, rounds=args.rounds)
    payload = load_snapshot(path)
    for name, median in sorted(payload["medians_s"].items()):
        print(f"{name:<20s} {1000 * median:8.1f} ms")
    print(f"wrote {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    baseline_path = args.baseline or latest_snapshot(args.dir)
    if baseline_path is None:
        print(f"no BENCH_*.json baseline found in {Path(args.dir).resolve()}", file=sys.stderr)
        return 2
    baseline = load_snapshot(baseline_path)
    current = run_benchmarks(names=list(baseline["medians_s"]), rounds=args.rounds)
    print(f"baseline: {baseline_path} (rev {baseline.get('rev', '?')})")
    for name, baseline_s in sorted(baseline["medians_s"].items()):
        timing = current.get(name)
        if timing is None:
            continue
        change = 100.0 * (timing.median_s / baseline_s - 1.0)
        print(
            f"{name:<20s} {1000 * baseline_s:8.1f} ms -> {1000 * timing.median_s:8.1f} ms"
            f"  ({change:+6.1f}%)"
        )
    regressions = compare_to_baseline(baseline, current, threshold=args.threshold)
    if regressions:
        for reg in regressions:
            print(
                f"REGRESSION: {reg.name} is {100 * reg.slowdown:.1f}% slower "
                f"(limit {100 * args.threshold:.0f}%)",
                file=sys.stderr,
            )
        return 1
    print(f"ok: no benchmark regressed more than {100 * args.threshold:.0f}%")
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    import numpy as np

    from ..core.dpmhbp import DPMHBP
    from ..core.ranking.objective import empirical_auc
    from ..core.ranking.ranksvm import RankSVM
    from ..parallel import parallel_map, resolve_executor
    from ..parallel import shm
    from .benchmarks import _fanout_worker, make_telemetry_noop

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
        # Disabled-telemetry overhead: 200k no-op span+counter calls must be
        # effectively free, or the permanent hot-path instrumentation is
        # taxing every sweep (see telemetry.recorder).
        "telemetry_noop_200k": make_telemetry_noop(),
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
        ok = elapsed <= args.ceiling
        failed = failed or not ok
        print(f"{name:<20s} {1000 * elapsed:8.1f} ms  (ceiling {args.ceiling:.1f} s)"
              f"  {'ok' if ok else 'TOO SLOW'}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m repro.perf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("save", help="time the benchmarks and write BENCH_<rev>.json")
    p.add_argument("--dir", default=".", help="directory for the snapshot")
    p.add_argument("--rev", default=None, help="revision label (default: git short rev)")
    p.add_argument("--rounds", type=int, default=3)
    p.set_defaults(func=_cmd_save)

    p = sub.add_parser("compare", help="re-time and fail on >25%% regressions")
    p.add_argument("baseline", nargs="?", default=None, help="baseline snapshot path")
    p.add_argument("--dir", default=".", help="where to look for the latest baseline")
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("smoke", help="fast perf sanity check for tier-1 CI")
    p.add_argument("--ceiling", type=float, default=5.0, help="per-check seconds limit")
    p.set_defaults(func=_cmd_smoke)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
