"""Command-line interface: ``repro <command>``.

Commands
--------
``summary``    regenerate the Table 18.1 data summary for the synthetic regions
``compare``    fit the full model line-up on one region and print the AUC table
``grid``       the repeated Table 18.3/18.4 grid — journalled, resumable
``status``     progress/timing/failure report over a journalled run directory,
               with each cell's worst convergence verdict
``doctor``     convergence/failure health check over a run directory
               (exit 0 healthy / 1 warnings / 2 failures; ``--json`` for CI)
``riskmap``    fit DPMHBP and write a Fig. 18.9-style SVG risk map
``plan``       produce a budget-constrained inspection plan with economics

``status`` and ``doctor`` render one run report
(:func:`repro.monitor.run_report`), so they agree on every cell.

Every command also takes ``--trace [PATH]`` (see :mod:`repro.telemetry`):
spans and counters from the instrumented hot paths are collected and a
where-the-time-went report of this process's own spans and counters is
printed at exit; with a journalled ``grid`` the trace lands in
``<run_dir>/trace.jsonl``, where worker processes append theirs too, so
``repro status`` can fold the whole run into its report. Convergence is
reported by ``doctor`` from the journal, not by telemetry.

Every command shares one parent parser (so flags are declared once):
``--scale`` (fraction of paper-scale data, default from
``REPRO_SCALE``/0.25), ``--seed``, the parallelism knobs ``--jobs N`` /
``--executor {serial,processes}`` (exported as
``REPRO_JOBS``/``REPRO_EXECUTOR`` so every fan-out point — DPMHBP chains,
comparison cells — picks them up; results are identical at any setting),
and the run-control knobs ``--run-dir`` / ``--resume`` / ``--on-error`` /
``--retries`` consumed by ``grid`` (see :mod:`repro.runs` — a killed
grid resumed with ``--resume`` is bit-identical to an uninterrupted one;
that is also how a stuck run is recovered).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np


def _cmd_summary(args: argparse.Namespace) -> int:
    from .data.datasets import load_region
    from .eval.reporting import table_18_1

    datasets = [load_region(r, scale=args.scale, seed=args.seed) for r in args.regions]
    print(table_18_1(datasets))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .eval.experiment import default_models, evaluate_models, prepare_region_data
    from .eval.reporting import format_table

    data = prepare_region_data(args.region, scale=args.scale, seed=args.seed)
    run = evaluate_models(
        data, default_models(seed=0, fast=not args.full), region=args.region
    )
    rows = [
        [ev.model_name, f"{100 * ev.auc:.2f}%", f"{ev.auc_budget_permyriad:.2f}"]
        for ev in run.ranked()
    ]
    print(format_table(["Model", "AUC(100%)", "AUC(1%) [per-10k]"], rows))
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    from .eval.experiment import run_comparison
    from .eval.reporting import table_18_3, table_18_4
    from .runs import CellExecutionError

    def report_failures(failures: list) -> None:
        print(
            f"\n{len(failures)} cell(s) failed and were skipped: "
            + ", ".join(sorted(o.spec.cell_id for o in failures)),
            file=sys.stderr,
        )

    if args.resume and args.run_dir:
        print("use either --run-dir (fresh) or --resume (continue), not both",
              file=sys.stderr)
        return 2
    try:
        result = run_comparison(
            regions=tuple(args.regions),
            n_repeats=args.repeats,
            scale=args.scale,
            base_seed=args.seed or 0,
            fast=not args.full,
            run_dir=args.run_dir,
            resume=args.resume,
            on_error=args.on_error,
            retries=args.retries,
        )
    except CellExecutionError as exc:
        if args.on_error == "raise":
            raise
        report_failures(exc.failures)  # every cell failed: no table to print
        return 1
    print(table_18_3(result))
    if args.repeats >= 2:
        # A region left with one completed cell has no pair to test.
        paired = [region for region, runs in result.runs.items() if len(runs) >= 2]
        if paired:
            print()
            print(table_18_4(result, regions=paired))
        unpaired = [region for region in result.regions if region not in paired]
        if unpaired:
            print(
                f"\nTable 18.4 omits region(s) {', '.join(unpaired)}: "
                "fewer than two completed cells to pair"
            )
    if result.failures:
        report_failures(result.failures)
    if result.run_dir:
        print(f"\nrun journal: {result.run_dir} (resume with --resume {result.run_dir})")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .monitor.report import format_status, run_report
    from .runs.journal import JournalError

    try:
        report = run_report(args.run_dir_pos)
    except JournalError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(format_status(report, verbose=args.verbose))
    return 1 if report.counts()["failed"] and report.finished else 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    import json

    from .monitor.doctor import diagnose
    from .runs.journal import JournalError

    try:
        report = diagnose(args.run_dir_pos)
    except JournalError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.format())
    return report.exit_code


def _cmd_riskmap(args: argparse.Namespace) -> int:
    from .core.dpmhbp import DPMHBPModel
    from .data.datasets import load_region
    from .eval.riskmap import RiskMap
    from .features.builder import build_model_data
    from .network.pipe import PipeClass

    dataset = load_region(args.region, scale=args.scale, seed=args.seed).subset(PipeClass.CWM)
    data = build_model_data(dataset)
    scores = DPMHBPModel(n_sweeps=args.sweeps, burn_in=args.sweeps // 3, seed=0).fit_predict(data)
    out = args.out or Path(f"riskmap_{args.region}.svg")
    RiskMap(dataset=dataset, scores=scores).save_svg(out)
    print(f"wrote {out}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .core.dpmhbp import DPMHBPModel
    from .eval.economics import plan_economics
    from .eval.experiment import prepare_region_data

    data = prepare_region_data(args.region, scale=args.scale, seed=args.seed)
    scores = DPMHBPModel(n_sweeps=args.sweeps, burn_in=args.sweeps // 3, seed=0).fit_predict(data)
    econ = plan_economics(data, scores, args.budget)
    print(f"inspect {econ.n_inspected} pipes ({econ.inspected_km:.1f} km)")
    print(f"inspection cost : {econ.inspection_cost:,.0f}")
    print(f"failures caught : {econ.failures_caught} (missed {econ.failures_missed})")
    print(f"averted cost    : {econ.averted_cost:,.0f}")
    print(f"net savings     : {econ.net_savings:,.0f}")
    # Also emit the ranked plan rows for downstream scheduling.
    order = np.argsort(-scores)[: econ.n_inspected]
    for rank, i in enumerate(order, 1):
        print(f"{rank:4d}  {data.pipe_ids[i]:<14} score={scores[i]:.5f}")
    return 0


def _parent_parser() -> argparse.ArgumentParser:
    """The flags every subcommand shares, declared exactly once.

    ``add_help=False`` because this parser only ever rides along in
    ``parents=[...]`` — subparsers add their own ``-h``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--scale", type=float, default=None)
    parent.add_argument("--seed", type=int, default=None)
    parent.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker count for parallel fan-out (default: REPRO_JOBS or serial)",
    )
    parent.add_argument(
        "--executor",
        choices=["serial", "processes"],
        default=None,
        help="execution backend (default: REPRO_EXECUTOR, or processes when --jobs > 1)",
    )
    parent.add_argument(
        "--trace",
        nargs="?",
        const="auto",
        default=None,
        metavar="PATH",
        help="enable telemetry; append a JSONL trace to PATH (default: the "
        "run journal's trace.jsonl when journalled, else in-memory only)",
    )
    run = parent.add_argument_group("run control (grid)")
    run.add_argument(
        "--run-dir",
        type=Path,
        default=None,
        help="journal the run here: manifest + event log + per-cell checkpoints",
    )
    run.add_argument(
        "--resume",
        type=Path,
        default=None,
        help="continue a journalled run; finished cells load bit-identically",
    )
    run.add_argument(
        "--on-error",
        choices=["raise", "skip", "retry"],
        default="raise",
        help="failing-cell policy (retry reruns a failed cell on its own seed)",
    )
    run.add_argument(
        "--retries", type=int, default=2, help="extra attempts per cell under retry"
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parent = _parent_parser()

    def region_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--region", default="A", choices=["A", "B", "C"])

    p = sub.add_parser("summary", parents=[parent], help="Table 18.1 data summary")
    p.add_argument("--regions", nargs="+", default=["A", "B", "C"])
    p.set_defaults(func=_cmd_summary)

    p = sub.add_parser("compare", parents=[parent], help="model comparison on one region")
    region_flag(p)
    p.add_argument("--full", action="store_true", help="full-length MCMC runs")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "grid",
        parents=[parent],
        help="repeated Table 18.3/18.4 grid (journalled, resumable)",
    )
    p.add_argument("--regions", nargs="+", default=["A", "B", "C"], choices=["A", "B", "C"])
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--full", action="store_true", help="full-length MCMC runs")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser(
        "status",
        parents=[parent],
        help="progress/timing/failure report over a journalled run directory",
    )
    p.add_argument(
        "run_dir_pos", metavar="run_dir", type=Path, help="a --run-dir/--resume directory"
    )
    p.add_argument(
        "--verbose", action="store_true", help="list every cell, including untimed ones"
    )
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser(
        "doctor",
        parents=[parent],
        help="convergence/failure health check over a run directory",
    )
    p.add_argument(
        "run_dir_pos", metavar="run_dir", type=Path, help="a --run-dir/--resume directory"
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable report for CI"
    )
    p.set_defaults(func=_cmd_doctor)

    p = sub.add_parser("riskmap", parents=[parent], help="write an SVG risk map")
    region_flag(p)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--sweeps", type=int, default=40)
    p.set_defaults(func=_cmd_riskmap)

    p = sub.add_parser("plan", parents=[parent], help="budget-constrained inspection plan")
    region_flag(p)
    p.add_argument("--budget", type=float, default=0.01)
    p.add_argument("--sweeps", type=int, default=40)
    p.set_defaults(func=_cmd_plan)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    # Export the parallelism knobs so every fan-out point downstream
    # (chains, comparison cells) resolves the same executor config.
    if getattr(args, "jobs", None) is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if getattr(args, "executor", None) is not None:
        os.environ["REPRO_EXECUTOR"] = args.executor
    trace = getattr(args, "trace", None)
    # Passive (read-only) commands never trace: they inspect runs rather
    # than execute them.
    if trace is not None and args.command not in ("status", "doctor"):
        from . import telemetry

        # "auto" binds to the run journal when one is in play (run_comparison
        # does the binding, so resumed runs append to the same trace);
        # otherwise telemetry stays in-memory and is reported at exit.
        telemetry.configure(
            trace_path=None if trace in (None, "auto") else trace
        )
        try:
            return args.func(args)
        finally:
            telemetry.flush()
            recorder = telemetry.get_recorder()
            report = telemetry.format_trace_report(telemetry.summarize_trace(recorder))
            print(f"\n--- telemetry ({args.command}) ---", file=sys.stderr)
            print(report, file=sys.stderr)
            if recorder.trace_path is not None:
                print(f"trace: {recorder.trace_path}", file=sys.stderr)
            telemetry.disable()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
