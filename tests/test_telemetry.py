"""Telemetry: spans, counters, gauges, traces, and ``repro status``.

Pins the three contracts the instrumentation layer makes:

* recording — nested spans carry their per-thread ancestry path; counters
  and gauges are thread-safe; everything lands in the JSONL trace and
  round-trips through the aggregation helpers;
* the disabled default is a true no-op — one shared context-manager
  object, nothing recorded (the perf smoke bounds its cost);
* ``repro status`` renders a faithful report over a journalled run
  directory, in flight or finished, with or without a trace.
"""

import os
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.cli import main as cli_main
from repro.eval.experiment import ModelEvaluation, RegionRun
from repro.parallel import ExecutorConfig, safe_parallel_map
from repro.runs import CellSpec, JournalError, RunJournal
from repro.telemetry import (
    TRACE_ENV,
    TRACE_NAME,
    TelemetryRecorder,
    aggregate_counters,
    aggregate_gauges,
    aggregate_spans,
    format_status,
    format_trace_report,
    read_trace,
    render_metrics,
    render_recorder,
    run_status,
    sanitize_metric_name,
    summarize_trace,
    write_metrics,
)


def _double(x):
    """Module-level so process pools can pickle it."""
    return 2 * x


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

    def test_gauge_keeps_latest_value(self):
        rec = telemetry.configure(enabled=True)
        telemetry.gauge("accept", 0.1)
        telemetry.gauge("accept", 0.3)
        assert rec.snapshot()["gauges"] == {"accept": 0.3}

    def test_reset_drops_everything(self):
        rec = telemetry.configure(enabled=True)
        with telemetry.span("s"):
            telemetry.count("c")
        telemetry.gauge("g", 1.0)
        rec.reset()
        snap = rec.snapshot()
        assert snap["spans"] == [] and snap["counters"] == {} and snap["gauges"] == {}


class TestDisabledIsNoOp:
    def test_disabled_span_is_the_shared_singleton(self):
        assert not telemetry.enabled()
        a = telemetry.span("hot", attr=1)
        b = telemetry.span("other")
        assert a is b  # no allocation on the disabled path

    def test_disabled_records_nothing(self):
        with telemetry.span("hot"):
            telemetry.count("c", 5)
            telemetry.gauge("g", 2.0)
        snap = telemetry.get_recorder().snapshot()
        assert snap["spans"] == [] and snap["counters"] == {} and snap["gauges"] == {}


class TestTraceFile:
    def test_round_trip_through_aggregation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry.configure(trace_path=path)
        with telemetry.span("fit", region="A"):
            with telemetry.span("sweep"):
                telemetry.count("sweeps", 3)
        telemetry.gauge("accept", 0.25)
        telemetry.count("sweeps", 2)
        telemetry.flush()
        records = read_trace(path)
        spans = aggregate_spans(records)
        assert spans["fit"].count == 1 and spans["sweep"].count == 1
        assert "fit/sweep" in aggregate_spans(records, by="path")
        # Two counter flushes (top-level span exit, explicit) sum as deltas.
        assert aggregate_counters(records) == {"sweeps": 5.0}
        assert aggregate_gauges(records) == {"accept": 0.25}
        report = format_trace_report(summarize_trace(path))
        assert "fit" in report and "sweeps" in report and "accept" in report

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
    """A hand-built 1×3 run: A-r000 done, A-r002 failed, A-r001 started."""
    run_dir = tmp_path / "run"
    journal = RunJournal.create(run_dir, {"regions": ["A"], "n_repeats": 3})
    journal.log_event("run_started")
    journal.log_event("cell_started", cell="A-r000", attempt=1, seed=1000)
    journal.save_cell(CellSpec(region="A", repeat=0, seed=1000), _tiny_run(seed=1000))
    journal.log_event(
        "cell_completed", cell="A-r000", attempt=1, seed=1000, duration_s=1.25
    )
    journal.log_event("cell_started", cell="A-r002", attempt=1, seed=1002)
    journal.log_event("cell_retried", cell="A-r002", next_seed=51002)
    journal.log_event("cell_started", cell="A-r002", attempt=2, seed=51002)
    journal.record_failure(
        CellSpec(region="A", repeat=2, seed=51002),
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
        status = run_status(_journalled_run(tmp_path))
        assert not status.finished
        assert status.regions == ["A"] and status.n_repeats == 3
        states = {c.cell_id: c.state for c in status.cells}
        assert states == {"A-r000": "done", "A-r001": "running", "A-r002": "failed"}
        assert status.counts() == {"done": 1, "failed": 1, "running": 1, "pending": 0}

    def test_finished_run_has_no_running_cells(self, tmp_path):
        status = run_status(_journalled_run(tmp_path, finished=True))
        assert status.finished
        states = {c.cell_id: c.state for c in status.cells}
        # A started-but-unfinished cell in a finished run is pending, not running.
        assert states["A-r001"] == "pending"

    def test_cell_detail_from_events_and_failure_records(self, tmp_path):
        status = run_status(_journalled_run(tmp_path))
        by_id = {c.cell_id: c for c in status.cells}
        assert by_id["A-r000"].duration_s == pytest.approx(1.25)
        failed = by_id["A-r002"]
        assert failed.attempts == 2
        assert failed.error_type == "InjectedFault"
        assert status.retries == {"A-r002": 1}

    def test_format_renders_strip_failures_and_retries(self, tmp_path):
        text = format_status(run_status(_journalled_run(tmp_path)))
        assert "[in flight]" in text
        assert "[#>x]" in text  # done / running / failed glyph strip
        assert "A-r002: InjectedFault after 2 attempt(s)" in text
        assert "retries: 1 (A-r002×1)" in text
        assert "InjectedFault: boom" in text

    def test_verbose_lists_untimed_cells(self, tmp_path):
        run_dir = _journalled_run(tmp_path)
        terse = format_status(run_status(run_dir))
        verbose = format_status(run_status(run_dir), verbose=True)
        assert "A-r001" not in terse  # untimed and unfailed: strip glyph only
        assert f"{'A-r001':<12s} running" in verbose

    def test_trace_summary_folded_in(self, tmp_path):
        run_dir = _journalled_run(tmp_path)
        telemetry.configure(trace_path=run_dir / TRACE_NAME)
        with telemetry.span("cell.compute"):
            telemetry.count("dpmhbp.sweeps", 40)
        telemetry.flush()
        telemetry.disable()
        status = run_status(run_dir)
        assert status.trace_summary is not None
        assert status.trace_summary["counters"] == {"dpmhbp.sweeps": 40.0}
        text = format_status(status)
        assert f"trace ({TRACE_NAME}):" in text and "cell.compute" in text

    def test_not_a_run_directory(self, tmp_path):
        with pytest.raises(JournalError, match="not a run directory"):
            run_status(tmp_path)

    def test_gauges_only_trace_with_zero_completed_cells(self, tmp_path):
        """Regression: a traced run that completed nothing renders cleanly.

        A run can die (or still be warming up) after writing only gauge
        lines — no spans, no counters, no completed cells. The report must
        not open its trace section with a stray blank line, and verbose
        must still list the pending cells even though none has a timing.
        """
        run_dir = tmp_path / "run"
        RunJournal.create(run_dir, {"regions": ["A"], "n_repeats": 2})
        telemetry.configure(trace_path=run_dir / TRACE_NAME)
        telemetry.gauge("chain.rhat", 1.02)
        telemetry.flush()
        telemetry.disable()

        status = run_status(run_dir)
        assert status.counts() == {"done": 0, "failed": 0, "running": 0, "pending": 2}
        assert status.trace_summary["gauges"] == {"chain.rhat": 1.02}

        text = format_status(status)
        # The gauge table follows the trace header directly — no leading
        # blank separator when spans and counters are absent.
        assert f"trace ({TRACE_NAME}):\ngauges:" in text
        assert "chain.rhat" in text

        verbose = format_status(status, verbose=True)
        assert f"{'A-r000':<12s} pending" in verbose
        assert f"{'A-r001':<12s} pending" in verbose
        # No timed cell: the duration column shows the placeholder and the
        # total/mean footer is withheld.
        assert "cell time:" not in verbose


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


class TestPrometheusExporter:
    def test_sanitize_maps_dots_to_underscores(self):
        assert sanitize_metric_name("chain.rhat.n_clusters") == (
            "repro_chain_rhat_n_clusters"
        )
        # Idempotent on already-valid names, custom prefixes respected.
        assert sanitize_metric_name("gibbs_sweeps") == "repro_gibbs_sweeps"
        assert sanitize_metric_name("x.y", prefix="pfx_") == "pfx_x_y"
        with pytest.raises(ValueError):
            sanitize_metric_name("", prefix="")

    def test_render_emits_typed_sorted_families(self):
        text = render_metrics(
            {"dpmhbp.sweeps": 40.0, "gibbs.sweeps": 120.0},
            {"chain.rhat": 1.0171, "chain.health": 0.0},
        )
        lines = text.splitlines()
        # Counters first (sorted, _total-suffixed), then gauges (sorted).
        assert lines == [
            "# TYPE repro_dpmhbp_sweeps_total counter",
            "repro_dpmhbp_sweeps_total 40",
            "# TYPE repro_gibbs_sweeps_total counter",
            "repro_gibbs_sweeps_total 120",
            "# TYPE repro_chain_health gauge",
            "repro_chain_health 0",
            "# TYPE repro_chain_rhat gauge",
            "repro_chain_rhat 1.0171",
        ]
        assert text.endswith("\n")

    def test_total_suffix_not_doubled(self):
        text = render_metrics({"sweeps_total": 3.0}, {})
        assert "repro_sweeps_total 3" in text
        assert "total_total" not in text

    def test_non_finite_values_use_prometheus_literals(self):
        text = render_metrics({}, {
            "nan": float("nan"),
            "pos": float("inf"),
            "neg": float("-inf"),
        })
        assert "repro_nan NaN" in text
        assert "repro_pos +Inf" in text
        assert "repro_neg -Inf" in text

    def test_empty_recorder_renders_empty_string(self):
        assert render_metrics({}, {}) == ""

    def test_render_recorder_reads_live_state(self):
        telemetry.configure(enabled=True)
        telemetry.count("gibbs.sweeps", 7)
        telemetry.gauge("chain.rhat", 1.05)
        text = render_recorder()
        assert "repro_gibbs_sweeps_total 7" in text
        assert "repro_chain_rhat 1.05" in text

    def test_write_metrics_is_atomic_and_mkdirs(self, tmp_path):
        telemetry.configure(enabled=True)
        telemetry.gauge("chain.health", 2.0)
        path = write_metrics(tmp_path / "deep" / "metrics.prom")
        assert path.read_text() == (
            "# TYPE repro_chain_health gauge\nrepro_chain_health 2\n"
        )
        # No temp droppings left behind.
        assert [p.name for p in path.parent.iterdir()] == ["metrics.prom"]

    def test_cli_metrics_out_exports_run_counters(self, tmp_path, capsys, monkeypatch):
        # Serial execution keeps the counters in this process' recorder
        # (workers' counters only fold back through a trace file).
        monkeypatch.setenv("REPRO_JOBS", "1")
        metrics = tmp_path / "metrics.prom"
        rc = cli_main(
            [
                "compare",
                "--region",
                "A",
                "--scale",
                "0.05",
                "--metrics-out",
                str(metrics),
            ]
        )
        assert rc == 0
        assert f"metrics: {metrics}" in capsys.readouterr().err
        text = metrics.read_text()
        assert "# TYPE repro_dpmhbp_sweeps_total counter" in text
        # The DPMHBP fit's pooled convergence verdict rode along as gauges.
        assert "# TYPE repro_chain_health gauge" in text
        # The flag's enablement was scoped to the command.
        assert not telemetry.enabled()
