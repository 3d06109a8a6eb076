"""One benchmark operation, run in a fresh interpreter by ``run.py``.

Usage: ``python3 op.py '<spec json>'``. The spec names the workload, its
inputs, a scratch directory and the file the result goes to. The program
is driven only through its public API (``repro.run_comparison`` and
``repro.prepare_region_data``). The result records when the first call
into the program started and when it returned (``time.monotonic``, which
is one clock for every process on the host), a digest of every output,
and any check that failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import statistics
import sys
import time
from dataclasses import fields
from pathlib import Path


def _grid(repro, spec: dict, run_dir: Path) -> tuple[dict, list[str], dict]:
    inputs = spec["inputs"]
    result = repro.run_comparison(
        regions=inputs["regions"],
        n_repeats=inputs["repeats"],
        scale=inputs["scale"],
        base_seed=inputs["base_seed"],
        fast=True,
        executor=spec["executor"],
        jobs=spec["jobs"],
        run_dir=run_dir,
        on_error="retry",
    )
    t_done = time.monotonic()
    digests: dict[str, str] = {}
    problems: list[str] = []
    dpmhbp_aucs = []
    if result.failures:
        problems.append(f"{len(result.failures)} cells failed after retries")
    for region in inputs["regions"]:
        runs = result.runs.get(region, [])
        if len(runs) != inputs["repeats"]:
            problems.append(f"region {region}: {len(runs)} of {inputs['repeats']} cells")
        for repeat, run in enumerate(runs):
            aucs = [run.auc(name) for name in run.evaluations]
            if len(aucs) != 6 or not all(0.0 <= a <= 1.0 for a in aucs):
                problems.append(f"cell {region}-r{repeat}: bad AUCs {aucs}")
            dpmhbp_aucs.append(run.auc("DPMHBP"))
            # run_comparison seeds repeat 0 from the region's canonical seed,
            # so only repeats >= 1 depend on base_seed.
            cell_seed = inputs["base_seed"] if repeat else "canonical"
            key = f"grid/{region}/r{repeat}/seed={cell_seed}/scale={inputs['scale']}"
            payload = json.dumps([run.seed, list(run.evaluations), aucs]).encode()
            digests[key] = hashlib.sha256(payload).hexdigest()
    events = repro.RunJournal.open(run_dir).events()
    info = {
        "t_done": t_done,
        "retries": sum(1 for e in events if e.get("event") == "cell_retried"),
        "checkpoint_bytes": sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file()),
        "dpmhbp_auc": statistics.median(dpmhbp_aucs) if dpmhbp_aucs else 0.0,
    }
    return digests, problems, info


def _model_data_digest(data) -> str:
    h = hashlib.sha256()
    for field in fields(data):
        value = getattr(data, field.name)
        if hasattr(value, "tobytes"):
            h.update(f"{field.name}:{value.dtype.str}:{value.shape}".encode())
            h.update(value.tobytes())
    return h.hexdigest()


def _regions(repro, spec: dict) -> tuple[dict, list[str], dict]:
    inputs = spec["inputs"]
    built = {
        region: repro.prepare_region_data(region, seed=seed, scale=inputs["scale"])
        for region, seed in inputs["seeds"].items()
    }
    t_done = time.monotonic()
    digests: dict[str, str] = {}
    problems: list[str] = []
    for region, data in built.items():
        n_seg = len(data.segment_ids)
        if n_seg == 0 or data.X_seg.shape[0] != n_seg or not all(
            math.isfinite(x) for x in data.X_seg.sum(axis=0)
        ):
            problems.append(f"region {region}: malformed ModelData ({n_seg} segments)")
        key = f"region/{region}/seed={inputs['seeds'][region]}/scale={inputs['scale']}"
        digests[key] = _model_data_digest(data)
    return digests, problems, {"t_done": t_done}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    import repro

    if spec["workload"] == "setup":
        out = {"t_ready": time.monotonic()}
    else:
        recorder = None
        if spec.get("trace_dir"):
            import tracing  # beside this script, so already on sys.path

            recorder = tracing.install(spec["trace_dir"])
        scratch = Path(spec["scratch"])
        t_ready = time.monotonic()
        if spec["workload"] == "regions":
            digests, problems, info = _regions(repro, spec)
        else:
            digests, problems, info = _grid(repro, spec, scratch / "run")
        if recorder is not None:
            recorder.flush()
            # Pool workers inherit the shims only when they are forked.
            if spec["executor"] == "processes" and multiprocessing.get_start_method() != "fork":
                problems.append("traced pool workers were not forked; their spans are missing")
        out = {
            "pid": os.getpid(),
            "t_ready": t_ready,
            "digests": digests,
            "problems": problems,
            **info,
        }
    Path(spec["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
