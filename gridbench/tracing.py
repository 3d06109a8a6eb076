"""Per-layer timing shims for the traced benchmark run.

The benchmark never edits the program. In a traced operation it replaces
the public function at each layer boundary (the module attribute the
caller looks up, or the class method) with a thin shim that records one
span: layer name, start, end, process id and the index of the enclosing
span in the same process and thread. Shims are installed before the
first call into the program, so process-pool workers, which are forked
from that interpreter, inherit them.

Each process keeps its spans in memory and appends them to
``<out_dir>/spans-<pid>.jsonl`` whenever its outermost span closes: pool
workers leave through ``os._exit`` and never run exit hooks, so a flush
at exit would lose them.

``self_times`` turns spans into per-layer self time: a span's duration
minus the part of its interval covered by its direct children, so nested
layers are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

CountFn = Callable[[tuple, Any], dict]


def _segments(args: tuple, network: Any) -> dict:
    return {"segments": network.n_segments}


def _dpmhbp(args: tuple, model: Any) -> dict:
    chains = model.chain_posteriors_
    return {
        "sweeps": sum(len(p.n_clusters_trace) for p in chains),
        # Each chain's rate is its accepted / proposed q moves.
        "accept_ratio": sum(p.accept_rate_q for p in chains) / max(len(chains), 1),
    }


def _shm(args: tuple, handle: Any) -> dict:
    return {"shm_bytes": 0 if handle.is_local else handle.nbytes}


#: (layer, modules whose attribute is replaced, attribute, counter).
#: A function is patched in the module that *calls* it, because callers
#: bound the name at import time. ``execute_cell`` is also patched in its
#: home module so a process pool pickles the shim by reference.
LAYERS: tuple[tuple[str, tuple[str, ...], str, CountFn | None], ...] = (
    ("data.generate_network", ("repro.data.datasets",), "generate_network", _segments),
    ("data.build_environment", ("repro.data.datasets",), "build_environment", None),
    ("data.build_ground_truth", ("repro.data.datasets",), "build_ground_truth", None),
    ("data.simulate_failures", ("repro.data.datasets",), "simulate_failures", None),
    ("features.build_model_data", ("repro.parallel.cache",), "build_model_data", None),
    ("core.dpmhbp.fit", ("repro.core.dpmhbp",), "DPMHBPModel.fit", _dpmhbp),
    ("core.hbp.fit", ("repro.core.hbp",), "HBPBestModel.fit", None),
    ("core.survival_models.cox_fit", ("repro.core.survival_models",), "CoxPHModel.fit", None),
    ("core.survival_models.weibull_fit", ("repro.core.survival_models",), "WeibullModel.fit", None),
    ("core.ranking.svm_fit", ("repro.core.ranking.model",), "SVMRankingModel.fit", None),
    ("core.ranking.aucrank_fit", ("repro.core.ranking.model",), "AUCRankingModel.fit", None),
    ("eval.metrics", ("repro.eval.experiment",), "empirical_auc", None),
    ("eval.metrics", ("repro.eval.experiment",), "auc_at_budget", None),
    ("eval.metrics", ("repro.eval.experiment",), "permyriad", None),
    ("runs.execute_cell", ("repro.eval.experiment", "repro.runs.engine"), "execute_cell", None),
    ("runs.save_cell", ("repro.runs.journal",), "RunJournal.save_cell", None),
    ("parallel.map", ("repro.eval.experiment",), "safe_parallel_map", None),
    ("parallel.shm_publish", ("repro.parallel.shm",), "publish_bundle", _shm),
)


class Recorder:
    """In-memory span buffer of one process, flushed to a per-pid file."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if os.getpid() != self.pid:  # a forked worker: drop the parent's state
            self._reset()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable, counter: CountFn | None = None) -> Callable:
        """``fn`` with a span recorded around every call."""

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = self._stack()
            span = {
                "name": layer,
                "pid": self.pid,
                "id": next(self._ids),
                "parent": stack[-1] if stack else None,
            }
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            # Counted after the span closed, so counting costs no layer time.
            if counter is not None:
                span["counts"] = counter(args, result)
            if not stack:
                self.flush()
            return result

        return shim

    def flush(self) -> None:
        if not self.spans:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("".join(json.dumps(s) + "\n" for s in self.spans))
        self.spans = []


def install(out_dir: str | Path) -> Recorder:
    """Replace every boundary in :data:`LAYERS` with a recording shim."""
    recorder = Recorder(out_dir)
    for layer, modules, attr, counter in LAYERS:
        owner_name, _, name = attr.rpartition(".")
        first = importlib.import_module(modules[0])
        owner = getattr(first, owner_name) if owner_name else first
        shim = recorder.wrap(layer, getattr(owner, name), counter)
        if owner_name:
            setattr(owner, name, shim)
        else:
            for module in modules:
                setattr(importlib.import_module(module), name, shim)
    return recorder


def load_spans(out_dir: str | Path) -> list[dict]:
    """Every span the processes of one traced operation wrote."""
    spans: list[dict] = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        spans.extend(json.loads(line) for line in path.read_text().splitlines())
    return spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span, in input order.

    A span's children are the spans of the same process whose ``parent``
    is its ``id``; the union of their intervals is subtracted from its
    duration. Work done in another process is never a child.
    """
    children: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[(span["pid"], span["parent"])].append((span["start"], span["end"]))
    return [
        span["end"] - span["start"] - _covered(children[(span["pid"], span["id"])])
        for span in spans
    ]
