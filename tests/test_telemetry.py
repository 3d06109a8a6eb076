"""Telemetry: spans, counters, traces, and ``repro status``.

Pins the three contracts the instrumentation layer makes:

* recording — nested spans carry their per-thread ancestry path; counters
  are thread-safe; everything lands in the JSONL trace and round-trips
  through the aggregation helpers, and forked pool workers count exactly
  what a serial run counts;
* the disabled default is a true no-op — one shared context-manager
  object, nothing recorded (the perf smoke bounds its cost);
* ``repro status`` renders a faithful report over a journalled run
  directory, in flight, finished or resumed, with or without a trace
  (the report lives in :mod:`repro.monitor.report`; its trace section is
  this package's aggregation).
"""

import os
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.cli import main as cli_main
from repro.core.dpmhbp import DPMHBPModel
from repro.core.survival_models import CoxPHModel
from repro.eval.experiment import ModelEvaluation, RegionRun, run_comparison
from repro.monitor import format_status, run_report
from repro.parallel import ExecutorConfig, clear_model_data_cache, safe_parallel_map
from repro.runs import CellSpec, JournalError, RunJournal
from repro.telemetry import (
    TRACE_ENV,
    TRACE_NAME,
    TelemetryRecorder,
    aggregate_counters,
    aggregate_spans,
    format_trace_report,
    read_trace,
    summarize_trace,
)


def _double(x):
    """Module-level so process pools can pickle it."""
    return 2 * x


def _chain_models(seed):
    """Module-level factory: a two-chain DPMHBP (nested chain pool) and Cox."""
    return [DPMHBPModel(n_sweeps=6, burn_in=2, n_chains=2, seed=seed), CoxPHModel()]


@pytest.fixture(autouse=True)
def _clean_recorder(monkeypatch):
    """Every test starts from (and returns to) the disabled global recorder."""
    monkeypatch.delenv(TRACE_ENV, raising=False)
    telemetry.disable()
    yield
    telemetry.disable()


class TestSpans:
    def test_nested_spans_record_ancestry_paths(self):
        rec = telemetry.configure(enabled=True)
        with telemetry.span("outer", region="A"):
            with telemetry.span("inner"):
                pass
        paths = [s.path for s in rec.snapshot()["spans"]]
        # Inner closes first; both carry the full ancestry.
        assert paths == ["outer/inner", "outer"]

    def test_span_attrs_and_identity_fields(self):
        rec = telemetry.configure(enabled=True)
        with telemetry.span("fit", region="A", sweeps=5):
            pass
        (record,) = rec.snapshot()["spans"]
        assert record.name == "fit"
        assert record.attrs == {"region": "A", "sweeps": 5}
        assert record.pid == os.getpid()
        assert record.duration_s >= 0.0

    def test_per_thread_stacks_do_not_interleave(self):
        rec = telemetry.configure(enabled=True)
        barrier = threading.Barrier(2)

        def work(tag):
            with telemetry.span(f"outer-{tag}"):
                barrier.wait(timeout=5)
                with telemetry.span(f"inner-{tag}"):
                    pass

        threads = [threading.Thread(target=work, args=(t,)) for t in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        paths = {s.path for s in rec.snapshot()["spans"]}
        assert paths == {
            "outer-a/inner-a",
            "outer-a",
            "outer-b/inner-b",
            "outer-b",
        }

    def test_span_survives_exceptions(self):
        rec = telemetry.configure(enabled=True)
        with pytest.raises(RuntimeError):
            with telemetry.span("boom"):
                raise RuntimeError("x")
        assert [s.name for s in rec.snapshot()["spans"]] == ["boom"]
        # The stack unwound: a later span is top-level again.
        with telemetry.span("after"):
            pass
        assert rec.snapshot()["spans"][-1].path == "after"


class TestCountersAndGauges:
    def test_counts_accumulate_thread_safely(self):
        rec = telemetry.configure(enabled=True)

        def bump():
            for _ in range(1000):
                telemetry.count("hits")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.snapshot()["counters"] == {"hits": 4000.0}

    def test_reset_drops_everything(self):
        rec = telemetry.configure(enabled=True)
        with telemetry.span("s"):
            telemetry.count("c")
        rec.reset()
        snap = rec.snapshot()
        assert snap["spans"] == [] and snap["counters"] == {}


class TestDisabledIsNoOp:
    def test_disabled_span_is_the_shared_singleton(self):
        assert not telemetry.enabled()
        a = telemetry.span("hot", attr=1)
        b = telemetry.span("other")
        assert a is b  # no allocation on the disabled path

    def test_disabled_records_nothing(self):
        with telemetry.span("hot"):
            telemetry.count("c", 5)
        snap = telemetry.get_recorder().snapshot()
        assert snap["spans"] == [] and snap["counters"] == {}


class TestTraceFile:
    def test_round_trip_through_aggregation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry.configure(trace_path=path)
        with telemetry.span("fit", region="A"):
            with telemetry.span("sweep"):
                telemetry.count("sweeps", 3)
        telemetry.count("sweeps", 2)
        telemetry.flush()
        records = read_trace(path)
        spans = aggregate_spans(records)
        assert spans["fit"].count == 1 and spans["sweep"].count == 1
        # Two counter flushes (top-level span exit, explicit) sum as deltas.
        assert aggregate_counters(records) == {"sweeps": 5.0}
        report = format_trace_report(summarize_trace(path))
        assert "fit" in report and "sweeps" in report

    def test_counters_flush_on_top_level_span_exit(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry.configure(trace_path=path)
        with telemetry.span("top"):
            telemetry.count("x")
        # No explicit flush: the top-level span exit exported the delta.
        assert aggregate_counters(read_trace(path)) == {"x": 1.0}

    def test_torn_and_foreign_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry.configure(trace_path=path)
        with telemetry.span("ok"):
            pass
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "span", "name": "torn"\n')  # torn write
            handle.write("42\n")  # parseable but not a record
        records = read_trace(path)
        assert [r["name"] for r in records if r["kind"] == "span"] == ["ok"]

    def test_missing_trace_reads_empty(self, tmp_path):
        assert read_trace(tmp_path / "absent.jsonl") == []

    def test_configure_publishes_and_disable_retracts_env(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry.configure(trace_path=path)
        assert os.environ[TRACE_ENV] == str(path)
        telemetry.disable()
        assert TRACE_ENV not in os.environ

    def test_second_recorder_appends_to_same_file(self, tmp_path):
        """A pool worker's fresh recorder traces into the parent's file."""
        path = tmp_path / "trace.jsonl"
        telemetry.configure(trace_path=path)
        with telemetry.span("parent"):
            pass
        worker = TelemetryRecorder(enabled=True, trace_path=path)
        with worker.span("worker"):
            pass
        names = {r["name"] for r in read_trace(path) if r["kind"] == "span"}
        assert names == {"parent", "worker"}

    def test_process_pool_workers_trace_into_parent_file(self, tmp_path):
        """Real pool workers, not a simulated second recorder, reach the file."""
        path = tmp_path / "trace.jsonl"
        telemetry.configure(trace_path=path)
        results = safe_parallel_map(_double, range(4), ExecutorConfig(mode="processes", jobs=2))
        assert [r.unwrap() for r in results] == [0, 2, 4, 6]
        spans = [r for r in read_trace(path) if r["kind"] == "span"]
        worker_pids = {r["pid"] for r in spans if r["name"] == "parallel.worker"}
        assert sum(r["name"] == "parallel.worker" for r in spans) == 4
        assert worker_pids and os.getpid() not in worker_pids
        assert [r["pid"] for r in spans if r["name"] == "parallel.map"] == [os.getpid()]

    def test_forked_workers_count_like_a_serial_run(self, tmp_path, monkeypatch):
        """Forked cell and chain workers neither lose nor re-export counts.

        A forked child inherits the parent's open span stack and unflushed
        counter deltas; unless it drops both, its spans never close at top
        level (so its counts are never flushed) or it re-exports deltas
        that only the parent may export.
        """
        totals = {}
        for mode, jobs in (("serial", 1), ("processes", 2)):
            # The environment is what nested fan-outs (DPMHBP's chains) read.
            monkeypatch.setenv("REPRO_EXECUTOR", mode)
            monkeypatch.setenv("REPRO_JOBS", str(jobs))
            run_dir = tmp_path / mode
            # Forked workers inherit this process's region cache: empty it so
            # both runs build their regions (and count the same cache misses).
            clear_model_data_cache()
            telemetry.configure()
            run_comparison(
                regions=("A",),
                n_repeats=2,
                scale=0.05,
                models_factory=_chain_models,
                jobs=jobs,
                executor=mode,
                run_dir=run_dir,
            )
            telemetry.flush()
            telemetry.disable()
            totals[mode] = summarize_trace(run_dir / TRACE_NAME)["counters"]
        serial, forked = totals["serial"], totals["processes"]
        assert serial["dpmhbp.sweeps"] == 2 * 2 * 6  # cells × chains × sweeps
        assert {name: forked.get(name) for name in serial} == serial
        assert forked["shm.published"] == 2  # one chain bundle per cell

    def test_unwritable_trace_path_never_raises(self, tmp_path):
        telemetry.configure(trace_path=tmp_path / "trace.jsonl")
        rec = telemetry.get_recorder()
        rec._trace_path = tmp_path  # a directory: every write hits OSError
        with telemetry.span("still-fine"):
            telemetry.count("c")
        telemetry.flush()
        assert [s.name for s in rec.snapshot()["spans"]] == ["still-fine"]

    def test_summarize_live_recorder(self):
        rec = telemetry.configure(enabled=True)
        with telemetry.span("mem"):
            telemetry.count("c", 2)
        summary = summarize_trace(rec)
        assert summary["spans"]["mem"].count == 1
        assert summary["counters"] == {"c": 2.0}


def _tiny_run(seed=0, n=20):
    rng = np.random.default_rng(seed)
    run = RegionRun(
        region="A",
        seed=seed,
        labels=(rng.random(n) < 0.2).astype(float),
        pipe_lengths=rng.uniform(1, 9, n),
    )
    run.evaluations["Cox"] = ModelEvaluation(
        model_name="Cox",
        scores=rng.standard_normal(n),
        auc=0.7,
        auc_budget_permyriad=3.0,
    )
    return run


def _journalled_run(tmp_path, finished=False):
    """A hand-built 1×3 run: A-r000 done, A-r002 failed, A-r001 started.

    The events have the engine's shape: every attempt that fails logs
    ``cell_failed``, and a retry reruns the cell on its own seed.
    """
    run_dir = tmp_path / "run"
    journal = RunJournal.create(run_dir, {"regions": ["A"], "n_repeats": 3})
    journal.log_event("run_started")
    journal.log_event("cell_started", cell="A-r000", attempt=1, seed=1000)
    journal.save_cell(CellSpec(region="A", repeat=0, seed=1000), _tiny_run(seed=1000))
    journal.log_event(
        "cell_completed", cell="A-r000", attempt=1, seed=1000, duration_s=1.25
    )
    for attempt in (1, 2):
        if attempt > 1:
            journal.log_event("cell_retried", cell="A-r002")
        journal.log_event("cell_started", cell="A-r002", attempt=attempt, seed=1002)
        journal.log_event(
            "cell_failed",
            cell="A-r002",
            attempt=attempt,
            error_type="InjectedFault",
            error="boom",
        )
    journal.record_failure(
        CellSpec(region="A", repeat=2, seed=1002),
        error="Traceback …\nInjectedFault: boom",
        error_type="InjectedFault",
        attempts=2,
    )
    journal.log_event("cell_started", cell="A-r001", attempt=1, seed=1001)
    if finished:
        journal.log_event("run_aborted")
    return run_dir


class TestRunStatus:
    def test_in_flight_states(self, tmp_path):
        status = run_report(_journalled_run(tmp_path))
        assert not status.finished
        assert status.regions == ["A"] and status.n_repeats == 3
        states = {c.cell_id: c.state for c in status.cells}
        assert states == {"A-r000": "done", "A-r001": "running", "A-r002": "failed"}
        assert status.counts() == {"done": 1, "failed": 1, "running": 1, "pending": 0}

    def test_finished_run_has_no_running_cells(self, tmp_path):
        status = run_report(_journalled_run(tmp_path, finished=True))
        assert status.finished
        states = {c.cell_id: c.state for c in status.cells}
        # A started-but-unfinished cell in a finished run is pending, not running.
        assert states["A-r001"] == "pending"

    def test_cell_detail_from_events_and_failure_records(self, tmp_path):
        status = run_report(_journalled_run(tmp_path))
        by_id = {c.cell_id: c for c in status.cells}
        assert by_id["A-r000"].duration_s == pytest.approx(1.25)
        failed = by_id["A-r002"]
        assert failed.attempts == 2
        assert failed.error_type == "InjectedFault"
        assert status.retries == {"A-r002": 1}

    def test_format_renders_strip_failures_and_retries(self, tmp_path):
        text = format_status(run_report(_journalled_run(tmp_path)))
        assert "[in flight]" in text
        assert "[#>x]" in text  # done / running / failed glyph strip
        assert "A-r002: InjectedFault after 2 attempt(s)" in text
        assert "retries: 1 (A-r002×1)" in text
        assert "InjectedFault: boom" in text

    def test_verbose_lists_untimed_cells(self, tmp_path):
        run_dir = _journalled_run(tmp_path)
        terse = format_status(run_report(run_dir))
        verbose = format_status(run_report(run_dir), verbose=True)
        assert "A-r001" not in terse  # untimed and unfailed: strip glyph only
        assert f"{'A-r001':<12s} running" in verbose

    def test_trace_summary_folded_in(self, tmp_path):
        run_dir = _journalled_run(tmp_path)
        telemetry.configure(trace_path=run_dir / TRACE_NAME)
        with telemetry.span("cell.compute"):
            telemetry.count("dpmhbp.sweeps", 40)
        telemetry.flush()
        telemetry.disable()
        status = run_report(run_dir)
        assert status.trace_summary is not None
        assert status.trace_summary["counters"] == {"dpmhbp.sweeps": 40.0}
        text = format_status(status)
        assert f"trace ({TRACE_NAME}):" in text and "cell.compute" in text

    def test_not_a_run_directory(self, tmp_path):
        with pytest.raises(JournalError, match="not a run directory"):
            run_report(tmp_path)

    def test_counters_only_trace_with_zero_completed_cells(self, tmp_path):
        """Regression: a traced run that completed nothing renders cleanly.

        A run can die (or still be warming up) after writing only counter
        lines — no spans, no completed cells. The report must not open its
        trace section with a stray blank line, and verbose must still list
        the pending cells even though none has a timing. A gauge line, as
        older versions wrote, is skipped rather than rejected.
        """
        run_dir = tmp_path / "run"
        RunJournal.create(run_dir, {"regions": ["A"], "n_repeats": 2})
        telemetry.configure(trace_path=run_dir / TRACE_NAME)
        telemetry.count("cache.miss")
        telemetry.flush()
        telemetry.disable()
        with open(run_dir / TRACE_NAME, "a", encoding="utf-8") as handle:
            handle.write(
                '{"kind": "gauge", "name": "chain.rhat", "pid": 1, "t": 0.0, "value": 1.02}\n'
            )

        status = run_report(run_dir)
        assert status.counts() == {"done": 0, "failed": 0, "running": 0, "pending": 2}
        assert status.trace_summary == {"spans": {}, "counters": {"cache.miss": 1.0}}

        text = format_status(status)
        # The counter table follows the trace header directly — no leading
        # blank separator when spans are absent.
        assert f"trace ({TRACE_NAME}):\ncounters:" in text
        assert "chain.rhat" not in text

        verbose = format_status(status, verbose=True)
        assert f"{'A-r000':<12s} pending" in verbose
        assert f"{'A-r001':<12s} pending" in verbose
        # No timed cell: the duration column shows the placeholder and the
        # total/mean footer is withheld.
        assert "cell time:" not in verbose

    def test_resume_reopens_the_run(self, tmp_path):
        """A run_started after run_aborted is a resume at work, not a
        finished run, and its start time is the latest one."""
        run_dir = tmp_path / "run"
        journal = RunJournal.create(run_dir, {"regions": ["A"], "n_repeats": 1})
        journal.log_event("run_started")
        journal.log_event("cell_started", cell="A-r000", attempt=1, seed=1000)
        journal.log_event("run_aborted")
        journal.log_event("run_started")
        journal.log_event("cell_started", cell="A-r000", attempt=1, seed=1000)

        report = run_report(run_dir)
        assert not report.finished
        assert [(c.cell_id, c.state) for c in report.cells] == [("A-r000", "running")]
        assert report.started_unix == journal.events()[3]["t"]
        assert "[in flight]" in format_status(report)

    def test_rerun_of_a_failed_cell_is_running(self, tmp_path):
        """A resume retrying a cell the last run gave up on shows it running."""
        run_dir = _journalled_run(tmp_path, finished=True)
        journal = RunJournal.open(run_dir)
        journal.log_event("run_started")
        journal.log_event("cell_started", cell="A-r002", attempt=1, seed=1002)
        states = {c.cell_id: c.state for c in run_report(run_dir).cells}
        # A-r001 was left unfinished by the aborted run and not restarted yet.
        assert states == {"A-r000": "done", "A-r001": "pending", "A-r002": "running"}


class TestStatusCLI:
    def test_in_flight_exits_zero(self, tmp_path, capsys):
        run_dir = _journalled_run(tmp_path)
        assert cli_main(["status", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "in flight" in out and "A-r000" in out

    def test_finished_with_failures_exits_one(self, tmp_path, capsys):
        run_dir = _journalled_run(tmp_path, finished=True)
        assert cli_main(["status", str(run_dir)]) == 1
        assert "failures:" in capsys.readouterr().out

    def test_bad_directory_exits_two(self, tmp_path, capsys):
        assert cli_main(["status", str(tmp_path)]) == 2
        assert "not a run directory" in capsys.readouterr().err

    def test_trace_flag_reports_and_disables(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        rc = cli_main(
            ["summary", "--regions", "A", "--scale", "0.05", "--trace", str(trace)]
        )
        assert rc == 0
        assert "--- telemetry (summary) ---" in capsys.readouterr().err
        # The flag's enablement is scoped to the command: global state restored.
        assert not telemetry.enabled()
        assert TRACE_ENV not in os.environ
