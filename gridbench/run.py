"""End-to-end benchmark of the Table 18.3 grid and of region synthesis.

Run from the root of a source checkout::

    python3 gridbench/run.py --workload grid_serial --seed 1 --seconds 30 --trace 0

Every operation runs in a fresh interpreter (``op.py``) with a pinned
environment: BLAS/OpenMP threads at 1, no inherited ``REPRO_*`` variable,
``PYTHONPATH`` at the checkout's ``src``. Operations run one at a time
(closed loop) until ``--seconds`` have passed. The last line of standard
output is one JSON object; ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones. See ``gridbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent

#: The grids: region A, two repeats (two cells, so both workers of the
#: process pool are busy), the fast six-model line-up.
GRID = {"regions": ["A"], "repeats": 2, "scale": 0.05}
#: Region synthesis at three times the grids' scale.
REGIONS = {"regions": ["A", "B", "C"], "scale": 0.15}

#: name -> (kind, executor, jobs).
WORKLOADS = {
    "grid_serial": ("grid", "serial", 1),
    "grid_procs2": ("grid", "processes", 2),
    "regions": ("regions", None, None),
}

#: Interpreter starts timed before the measured window, for setup_s.
SETUP_PROBES = 3
#: Every operation must end this many seconds after the run started.
DEADLINE_S = 170.0
#: Kept digest sets; older source trees are dropped from the store.
KEEP_TREES = 4

PR_SET_CHILD_SUBREAPER = 36


def derive_seed(seed: int, op: int, tag: str) -> int:
    """Input seed of operation ``op`` of a run started with ``--seed``."""
    digest = hashlib.sha256(f"{seed}/{op}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 1_000_000


def op_inputs(workload: str, seed: int, op: int) -> dict:
    if WORKLOADS[workload][0] == "grid":
        return {**GRID, "base_seed": derive_seed(seed, op, "grid")}
    return {
        "scale": REGIONS["scale"],
        "seeds": {r: derive_seed(seed, op, r) for r in REGIONS["regions"]},
    }


def pinned_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(root / ".gridbench" / "tmp")
    return env


# --------------------------------------------------------------- process tree


@dataclass
class TreeUsage:
    """Resources of one child process and every process under it."""

    returncode: int
    cpu_s: float  # user + sys of the whole tree
    peak_rss_mb: float  # largest single process, not a sum
    orphans: int  # descendants still alive when the child exited


def become_subreaper() -> None:
    """Adopt orphaned descendants, so they can be killed, reaped and counted."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _own_children() -> list[int]:
    me = os.getpid()
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            pids.append(int(stat.parent.name))
    return pids


def run_tree(argv: list[str], env: dict, timeout: float) -> TreeUsage:
    """Run ``argv`` and account for its whole process tree with ``wait4``.

    ``wait4`` reports the child plus every descendant the child reaped,
    which includes process-pool workers joined at interpreter exit.
    Descendants left running when the child exits are killed, reaped
    here (this process is a subreaper) and added in.
    """
    proc = subprocess.Popen(argv, env=env, start_new_session=True)
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    peak = usage.ru_maxrss
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    orphans = _own_children()
    for orphan in orphans:
        try:
            os.kill(orphan, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _, _, extra = os.wait4(orphan, 0)
        cpu += extra.ru_utime + extra.ru_stime
        peak = max(peak, extra.ru_maxrss)
    return TreeUsage(proc.returncode, cpu, peak / 1024.0, len(orphans))


# -------------------------------------------------------------------- digests


def source_hash(root: Path) -> str:
    """Identity of the program under test: every file under ``src/repro``."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class DigestStore:
    """Output digests per source tree and input, kept across runs.

    ``check`` returns the keys whose digest differs from one recorded
    earlier for the same source tree, by this run or an earlier one, on
    any workload; grid cells carry no executor in their key, so the
    serial and the process-pool grid are held to the same digests.
    """

    def __init__(self, path: Path, tree: str):
        self.path = path
        self.tree = tree
        try:
            self.trees = json.loads(path.read_text())
        except (OSError, ValueError):
            self.trees = {}
        # The current tree moves to the end, so pruning drops the oldest.
        self.known = self.trees[tree] = self.trees.pop(tree, {})

    def check(self, digests: dict[str, str]) -> list[str]:
        mismatched = [k for k, d in digests.items() if self.known.get(k, d) != d]
        for key, digest in digests.items():
            self.known.setdefault(key, digest)
        return mismatched

    def save(self) -> None:
        kept = list(self.trees)[-KEEP_TREES:]
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps({t: self.trees[t] for t in kept}))
        os.replace(tmp, self.path)


# ----------------------------------------------------------------------- host


def host_sample() -> dict:
    """CPU jiffies (total, steal) from ``/proc/stat`` and the load average."""
    cpu = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return {
        "total": sum(cpu[:8]),
        "steal": cpu[7] if len(cpu) > 7 else 0,
        "load": os.getloadavg(),
    }


def host_context(before: dict, after: dict) -> str:
    total = max(after["total"] - before["total"], 1)
    steal = 100.0 * (after["steal"] - before["steal"]) / total
    load = " ".join(f"{x:.2f}" for x in after["load"])
    return f"host: cpu steal {steal:.2f}% over the run, load average {load}, nproc {os.cpu_count()}"


# ---------------------------------------------------------------------- stats


def describe(values: list[float]) -> str:
    """Median, spread and sample count; a high percentile only when at
    least ten samples lie beyond it."""
    n = len(values)
    parts = [f"median {statistics.median(values):.4f}", f"min {min(values):.4f}",
             f"max {max(values):.4f}", f"n={n}"]
    if n > 20:
        p = 1 - 10 / n
        parts.append(f"p{100 * p:g} {sorted(values)[int(p * n) - 1]:.4f}")
    return ", ".join(parts) + " [" + " ".join(f"{v:.4g}" for v in values) + "]"


def layer_metrics(spans: list[dict], op: dict, wall_s: float, jobs: int, main_pid: int) -> dict:
    """Per-layer values of one traced operation."""
    selfs = tracing.self_times(spans)
    total: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    counts: dict[str, float] = {}
    fits = 0
    main_self = 0.0
    for span, own in zip(spans, selfs):
        name = span["name"]
        total[name] = total.get(name, 0.0) + own
        inclusive[name] = inclusive.get(name, 0.0) + span["end"] - span["start"]
        for key, value in span.get("counts", {}).items():
            counts[key] = counts.get(key, 0.0) + value
        if name == "core.dpmhbp.fit":
            fits += 1
        if span["pid"] == main_pid:
            main_self += own
    sweeps = counts.get("sweeps", 0.0)
    return {
        "data.generate_network_s": total.get("data.generate_network", 0.0),
        "data.build_environment_s": total.get("data.build_environment", 0.0),
        "data.build_ground_truth_s": total.get("data.build_ground_truth", 0.0),
        "data.simulate_failures_s": total.get("data.simulate_failures", 0.0),
        "data.segments": counts.get("segments", 0.0),
        "features.build_model_data_s": total.get("features.build_model_data", 0.0),
        "core.dpmhbp.fit_s": total.get("core.dpmhbp.fit", 0.0),
        "core.dpmhbp.sweeps": sweeps,
        "core.dpmhbp.sweep_ms": 1000.0 * total.get("core.dpmhbp.fit", 0.0) / sweeps if sweeps else 0.0,
        "core.dpmhbp.accept_ratio": counts.get("accept_ratio", 0.0) / fits if fits else 0.0,
        "core.hbp.fit_s": total.get("core.hbp.fit", 0.0),
        "core.survival_models.cox_fit_s": total.get("core.survival_models.cox_fit", 0.0),
        "core.survival_models.weibull_fit_s": total.get("core.survival_models.weibull_fit", 0.0),
        "core.ranking.svm_fit_s": total.get("core.ranking.svm_fit", 0.0),
        "core.ranking.aucrank_fit_s": total.get("core.ranking.aucrank_fit", 0.0),
        "eval.metrics_s": total.get("eval.metrics", 0.0),
        "eval.dpmhbp_auc": op.get("dpmhbp_auc", 0.0),
        "runs.execute_cell_s": inclusive.get("runs.execute_cell", 0.0),
        "runs.save_cell_s": total.get("runs.save_cell", 0.0),
        "runs.checkpoint_bytes": op.get("checkpoint_bytes", 0),
        "runs.retries": op.get("retries", 0),
        "parallel.map_s": sum(
            own for span, own in zip(spans, selfs)
            if span["name"] == "parallel.map" and span["pid"] == main_pid
        ),
        "parallel.idle_s": (
            jobs * inclusive.get("parallel.map", 0.0) - inclusive.get("runs.execute_cell", 0.0)
            if "parallel.map" in inclusive else 0.0
        ),
        "parallel.shm_bytes": counts.get("shm_bytes", 0.0),
        "bench.unattributed_s": wall_s - main_self,
    }


# ------------------------------------------------------------------------ run


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.kind, self.executor, self.jobs = WORKLOADS[workload]
        self.state = root / ".gridbench"
        self.env = pinned_env(root)
        self.store = DigestStore(self.state / "digests.json", source_hash(root))
        self.started = time.monotonic()

    def spawn(self, spec: dict, name: str) -> tuple[dict | None, TreeUsage, float, Path]:
        """Run one operation: (its result or None, tree usage, spawn time, scratch)."""
        scratch = self.state / "tmp" / name
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        spec = {**spec, "scratch": str(scratch), "result": str(scratch / "result.json")}
        if spec.get("trace"):
            spec["trace_dir"] = str(scratch / "spans")
            Path(spec["trace_dir"]).mkdir()
        argv = [sys.executable, str(HERE / "op.py"), json.dumps(spec)]
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        t_spawn = time.monotonic()
        usage = run_tree(argv, self.env, max(remaining, 1.0))
        result = None
        if usage.returncode == 0:
            result = json.loads((scratch / "result.json").read_text())
        return result, usage, t_spawn, scratch

    def run(self, seconds: float) -> dict:
        setup: list[float] = []
        for k in range(SETUP_PROBES):
            result, usage, t_spawn, _ = self.spawn({"workload": "setup"}, f"probe{k}")
            if result is None:
                raise RuntimeError(f"setup probe exited with {usage.returncode}")
            setup.append(result["t_ready"] - t_spawn)
        samples: dict[str, list[float]] = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}
        layers: list[dict] = []
        overhead: list[float] = []
        untraced_wall: dict[int, float] = {}
        problems: list[str] = []
        attempted = failed = 0
        host_before = host_sample()
        window = time.monotonic()
        op = 0
        # At least one operation; traced runs end on a whole pair.
        while op == 0 or time.monotonic() - window < seconds or (self.trace and op % 2):
            if time.monotonic() - self.started > DEADLINE_S:
                break
            # Traced runs alternate an untraced and a traced operation on
            # the same inputs; the wall difference is the tracing overhead.
            traced = self.trace and op % 2 == 1
            index = op // 2 if self.trace else op
            spec = {
                "workload": self.kind,
                "inputs": op_inputs(self.workload, self.seed, index),
                "executor": self.executor,
                "jobs": self.jobs,
                "trace": traced,
            }
            result, usage, t_spawn, scratch = self.spawn(spec, f"op{op}")
            attempted += 1
            op += 1
            bad = []
            if result is None:
                bad.append(f"exit code {usage.returncode}")
            else:
                bad += result["problems"]
                bad += [f"digest mismatch: {k}" for k in self.store.check(result["digests"])]
            if usage.orphans:
                bad.append(f"{usage.orphans} processes outlived the operation")
            if bad:
                failed += 1
                problems += [f"op {op - 1}: {p}" for p in bad]
                continue
            wall = result["t_done"] - result["t_ready"]
            if traced:
                spans = tracing.load_spans(scratch / "spans")
                layers.append(layer_metrics(spans, result, wall, self.jobs or 1, result["pid"]))
                if index in untraced_wall:
                    overhead.append(wall - untraced_wall[index])
                continue
            untraced_wall[index] = wall
            setup.append(result["t_ready"] - t_spawn)
            samples["wall_s"].append(wall)
            samples["cpu_s"].append(usage.cpu_s)
            samples["peak_rss_mb"].append(usage.peak_rss_mb)
        host = host_context(host_before, host_sample())
        self.store.save()
        return {
            "setup": setup,
            "samples": samples,
            "layers": layers,
            "overhead": overhead,
            "problems": problems,
            "attempted": attempted,
            "failed": failed,
            "host": host,
        }


def report(workload: str, seed: int, trace: bool, out: dict, declared: dict) -> dict:
    """Print the human report to stderr; return the result object.

    ``declared`` is ``BENCHMARK.json``: it names the metrics of each mode
    and their units.
    """
    log = lambda line: print(f"[{workload} seed={seed}] {line}", file=sys.stderr)  # noqa: E731
    log(out["host"])
    for problem in out["problems"]:
        log(f"FAILED {problem}")
    if trace:
        values = {"bench.trace_overhead_s": out["overhead"]}
        for layer in out["layers"]:
            for name, value in layer.items():
                values.setdefault(name, []).append(value)
    else:
        values = {**out["samples"], "setup_s": out["setup"]}
    correct = out["failed"] == 0
    metrics: dict[str, dict] = {}
    for metric in declared["per_layer" if trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        if not values.get(name):
            correct = False  # no successful operation measured it
            continue
        log(f"{name} [{unit}]: {describe(values[name])}")
        metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
    log(f"correct={correct} attempted={out['attempted']} failed={out['failed']}")
    return {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"gridbench: no program to measure: {root}/src/repro is missing", file=sys.stderr)
        return 2
    (root / ".gridbench" / "tmp").mkdir(parents=True, exist_ok=True)
    declared = json.loads((root / "BENCHMARK.json").read_text())
    become_subreaper()
    ok = True
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        runner = Runner(root, workload, args.seed, bool(args.trace))
        out = runner.run(args.seconds)
        result = report(workload, args.seed, bool(args.trace), out, declared)
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
