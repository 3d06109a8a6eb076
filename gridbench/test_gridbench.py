"""Small tests of the benchmark's own arithmetic and process accounting.

Run from the repository root: ``python3 -m pytest gridbench -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import run
import tracing

HERE = Path(__file__).resolve().parent


def span(name, sid, parent, start, end, pid=1, **counts):
    record = {"name": name, "pid": pid, "id": sid, "parent": parent, "start": start, "end": end}
    if counts:
        record["counts"] = counts
    return record


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        span("outer", 0, None, 0.0, 10.0),
        span("a", 1, 0, 1.0, 3.0),
        span("b", 2, 0, 2.0, 5.0),  # overlaps a: the union counts once
        span("leaf", 3, 2, 2.5, 4.5),  # a grandchild is not subtracted from outer
        span("c", 4, 0, 6.0, 7.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0, 1.0])


def test_self_time_ignores_spans_of_other_processes():
    spans = [
        span("parallel.map", 0, None, 0.0, 10.0, pid=1),
        # Same id/parent numbers in a worker: not a child of the map.
        span("runs.execute_cell", 1, 0, 1.0, 9.0, pid=2),
        span("runs.execute_cell", 0, None, 1.0, 9.0, pid=3),
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0, 8.0, 8.0])


def test_layer_metrics_never_double_count_nested_layers():
    spans = [
        span("parallel.map", 0, None, 1.0, 11.0),
        span("runs.execute_cell", 1, 0, 1.5, 10.5),
        span("core.dpmhbp.fit", 2, 1, 2.0, 6.0, sweeps=100, accept_ratio=0.5),
        span("data.generate_network", 3, 1, 6.0, 7.0, segments=40),
    ]
    layers = run.layer_metrics(spans, {}, wall_s=12.0, jobs=1, main_pid=1)
    assert layers["core.dpmhbp.fit_s"] == pytest.approx(4.0)
    assert layers["core.dpmhbp.sweep_ms"] == pytest.approx(40.0)
    assert layers["core.dpmhbp.accept_ratio"] == pytest.approx(0.5)
    assert layers["data.segments"] == 40
    assert layers["runs.execute_cell_s"] == pytest.approx(9.0)  # busy: inclusive
    assert layers["parallel.map_s"] == pytest.approx(1.0)  # self
    assert layers["parallel.idle_s"] == pytest.approx(10.0 - 9.0)
    # Self times partition the traced time, so the rest is the op's own.
    assert layers["bench.unattributed_s"] == pytest.approx(12.0 - 10.0)


def test_layer_metrics_on_a_process_pool():
    spans = [
        span("parallel.map", 0, None, 0.0, 10.0, pid=1),
        span("runs.execute_cell", 0, None, 0.5, 9.5, pid=2),
        span("runs.execute_cell", 0, None, 0.5, 7.5, pid=3),
    ]
    layers = run.layer_metrics(spans, {}, wall_s=10.5, jobs=2, main_pid=1)
    assert layers["parallel.map_s"] == pytest.approx(10.0)
    assert layers["parallel.idle_s"] == pytest.approx(2 * 10.0 - 16.0)
    assert layers["bench.unattributed_s"] == pytest.approx(0.5)
    assert layers["core.dpmhbp.sweep_ms"] == 0.0


def test_recorder_shims_record_nesting_and_flush(tmp_path):
    recorder = tracing.Recorder(tmp_path)
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2, lambda args, result: {"n": result})
    assert outer(1) == 4
    spans = tracing.load_spans(tmp_path)
    assert [s["name"] for s in spans] == ["inner", "outer"]
    assert spans[0]["parent"] == spans[1]["id"]
    assert spans[1]["counts"] == {"n": 4}
    assert recorder.spans == []


def test_digest_store_flags_a_changed_output_only(tmp_path):
    path = tmp_path / "digests.json"
    store = run.DigestStore(path, "tree1")
    assert store.check({"grid/A/r0": "aa", "grid/A/r1": "bb"}) == []
    assert store.check({"grid/A/r0": "aa"}) == []  # same output again
    store.save()

    later = run.DigestStore(path, "tree1")  # a later run of the same tree
    assert later.check({"grid/A/r0": "aa", "grid/A/r1": "XX"}) == ["grid/A/r1"]

    other = run.DigestStore(path, "tree2")  # another source tree: no history
    assert other.check({"grid/A/r1": "XX"}) == []


def test_digest_store_keeps_the_newest_trees(tmp_path):
    path = tmp_path / "digests.json"
    for k in range(run.KEEP_TREES + 2):
        store = run.DigestStore(path, f"tree{k}")
        store.check({"key": str(k)})
        store.save()
    kept = json.loads(path.read_text())
    assert list(kept) == [f"tree{k}" for k in range(2, run.KEEP_TREES + 2)]


def test_run_tree_counts_reaped_descendants_and_takes_the_largest_rss():
    child = textwrap.dedent(
        """
        import os, time
        ballast = bytearray(60 * 2**20)
        pid = os.fork()
        if pid == 0:
            more = bytearray(90 * 2**20)
            t = time.process_time()
            while time.process_time() - t < 0.3:
                pass
            os._exit(0)
        os.waitpid(pid, 0)
        """
    )
    usage = run.run_tree([sys.executable, "-c", child], {}, timeout=60)
    assert usage.returncode == 0
    assert usage.orphans == 0
    assert usage.cpu_s >= 0.3
    # The grandchild's 90 MB (plus the 60 MB it inherited), not 60 + 150.
    assert 140 <= usage.peak_rss_mb < 200


def test_run_tree_kills_reaps_and_counts_orphans():
    script = textwrap.dedent(
        f"""
        import os, sys, time
        sys.path.insert(0, {str(HERE)!r})
        import run
        run.become_subreaper()
        child = "import subprocess, sys; subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])"
        start = time.monotonic()
        usage = run.run_tree([sys.executable, "-c", child], {{}}, timeout=60)
        left = run._own_children()
        print(usage.orphans, len(left), time.monotonic() - start < 30)
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "0", "True"]


def test_refuses_to_run_without_the_program(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "regions", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_inputs_follow_the_seed():
    assert run.op_inputs("grid_serial", 7, 3) == run.op_inputs("grid_procs2", 7, 3)
    assert run.op_inputs("grid_serial", 7, 3) != run.op_inputs("grid_serial", 8, 3)
    assert run.op_inputs("regions", 7, 0) == run.op_inputs("regions", 7, 0)
    assert run.op_inputs("regions", 7, 0) != run.op_inputs("regions", 7, 1)
