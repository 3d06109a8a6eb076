"""Unit tests for the ``repro.perf`` benchmark-regression harness."""

import json

import pytest

from repro.perf import (
    BENCHMARKS,
    BenchmarkTiming,
    compare_to_baseline,
    latest_snapshot,
    load_snapshot,
    run_benchmarks,
    save_snapshot,
    time_callable,
)
from repro.perf.__main__ import main as perf_main


def _timing(name, median):
    return BenchmarkTiming(name=name, median_s=median, times_s=(median,))


class TestTiming:
    def test_time_callable_counts_rounds(self):
        times = time_callable(lambda: sum(range(100)), rounds=4)
        assert len(times) == 4
        assert all(t >= 0.0 for t in times)

    def test_rounds_validated(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, rounds=0)

    def test_registry_covers_samplers_and_journal(self):
        assert set(BENCHMARKS) == {
            "dpmhbp_sweeps",
            "hbp_sweeps",
            "crp_partition",
            "empirical_auc",
            "es_generation",
            "run_journal",
            "shm_roundtrip",
            "telemetry_noop",
        }

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            run_benchmarks(names=["warp_drive"])

    def test_run_single_benchmark(self):
        results = run_benchmarks(names=["empirical_auc"], rounds=1)
        timing = results["empirical_auc"]
        assert timing.median_s > 0.0
        assert len(timing.times_s) == 1


class TestSnapshots:
    def test_save_load_roundtrip(self, tmp_path):
        path = save_snapshot(tmp_path, rev="t1", rounds=1, names=["empirical_auc"])
        assert path.name == "BENCH_t1.json"
        payload = load_snapshot(path)
        assert payload["rev"] == "t1"
        assert "empirical_auc" in payload["medians_s"]

    def test_latest_snapshot(self, tmp_path):
        assert latest_snapshot(tmp_path) is None
        (tmp_path / "BENCH_old.json").write_text("{}")
        newer = tmp_path / "BENCH_new.json"
        newer.write_text("{}")
        assert latest_snapshot(tmp_path) == newer

    def test_non_snapshot_rejected(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps({"something": 1}))
        with pytest.raises(ValueError):
            load_snapshot(bad)


class TestCompare:
    def test_detects_regression_over_threshold(self):
        baseline = {"medians_s": {"a": 1.0, "b": 1.0}}
        current = {"a": _timing("a", 1.30), "b": _timing("b", 1.10)}
        regressions = compare_to_baseline(baseline, current, threshold=0.25)
        assert [r.name for r in regressions] == ["a"]
        assert regressions[0].slowdown == pytest.approx(0.30)

    def test_improvements_and_matches_pass(self):
        baseline = {"medians_s": {"a": 1.0}}
        assert compare_to_baseline(baseline, {"a": _timing("a", 0.5)}) == []

    def test_missing_benchmarks_ignored(self):
        baseline = {"medians_s": {"gone": 1.0}}
        assert compare_to_baseline(baseline, {}) == []

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            compare_to_baseline({"medians_s": {}}, {}, threshold=0.0)


class TestCli:
    def test_compare_fails_on_regression(self, tmp_path):
        baseline = tmp_path / "BENCH_x.json"
        baseline.write_text(
            json.dumps({"rev": "x", "medians_s": {"empirical_auc": 1e-9}})
        )
        assert perf_main(["compare", str(baseline), "--rounds", "1"]) == 1

    def test_compare_passes_against_slow_baseline(self, tmp_path):
        baseline = tmp_path / "BENCH_x.json"
        baseline.write_text(
            json.dumps({"rev": "x", "medians_s": {"empirical_auc": 1e9}})
        )
        assert perf_main(["compare", str(baseline), "--rounds", "1"]) == 0

    def test_compare_without_baseline(self, tmp_path):
        assert perf_main(["compare", "--dir", str(tmp_path)]) == 2

    def test_smoke_passes(self):
        assert perf_main(["smoke"]) == 0

    def test_smoke_ceiling_breach(self):
        assert perf_main(["smoke", "--ceiling", "1e-9"]) == 1
