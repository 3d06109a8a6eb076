"""The fault-tolerant run subsystem: specs, journal, faults, resume.

The two acceptance properties the suite pins down:

* a grid killed after ≥1 completed cell and resumed via ``resume=`` yields
  a :class:`ComparisonResult` *bit-identical* to an uninterrupted run;
* a cell killed by the test-side :class:`~tests._faults.FaultInjector`
  under ``on_error="retry"`` completes the grid without manual
  intervention.
"""

import json

import numpy as np
import pytest

from repro.core.survival_models import CoxPHModel, TimeRateModel
from repro.eval.experiment import (
    ModelEvaluation,
    RegionRun,
    run_comparison,
)
from repro.parallel import ExecutorConfig, safe_parallel_map
from repro.runs import (
    CellExecutionError,
    CellSpec,
    CheckpointCorruptError,
    JournalError,
    RunJournal,
    config_fingerprint,
)

from ._faults import FaultInjector, FaultSpec, InjectedFault, inject


def _light_models(seed):
    """Module-level model factory (picklable; cheap enough for grid tests)."""
    return [CoxPHModel(), TimeRateModel(kind="exponential")]


def _grid(**kwargs):
    """One-region, three-repeat serial grid with the light line-up.

    Serial so that a fault injected by monkeypatching the cell function
    reaches every cell, whatever ``REPRO_EXECUTOR`` says.
    """
    defaults = dict(
        regions=("A",),
        n_repeats=3,
        scale=0.05,
        models_factory=_light_models,
        executor="serial",
    )
    defaults.update(kwargs)
    return run_comparison(**defaults)


def _make_region_run(seed=0, n=50, models=("Cox", "TimeExp")):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.2).astype(float)
    run = RegionRun(
        region="A", seed=seed, labels=labels, pipe_lengths=rng.uniform(1, 9, n)
    )
    for name in models:
        run.evaluations[name] = ModelEvaluation(
            model_name=name,
            scores=rng.standard_normal(n),
            auc=float(rng.random()),
            auc_budget_permyriad=float(10 * rng.random()),
        )
    return run


def assert_results_identical(a, b):
    """Bit-for-bit equality of two ComparisonResults (same grid)."""
    assert a.regions == b.regions
    for region in a.regions:
        assert len(a.runs[region]) == len(b.runs[region])
        for run_a, run_b in zip(a.runs[region], b.runs[region]):
            assert run_a.seed == run_b.seed
            assert np.array_equal(run_a.labels, run_b.labels)
            assert np.array_equal(run_a.pipe_lengths, run_b.pipe_lengths)
            assert list(run_a.evaluations) == list(run_b.evaluations)
            for name in run_a.evaluations:
                ev_a, ev_b = run_a.evaluations[name], run_b.evaluations[name]
                assert np.array_equal(ev_a.scores, ev_b.scores)
                assert ev_a.auc == ev_b.auc  # exact, not approx
                assert ev_a.auc_budget_permyriad == ev_b.auc_budget_permyriad


class TestCellSpec:
    def test_cell_id(self):
        assert CellSpec(region="B", repeat=7).cell_id == "B-r007"

    def test_identity_is_json_able(self):
        spec = CellSpec(region="A", repeat=0, models_factory=_light_models)
        blob = json.dumps(spec.identity())
        assert "_light_models" in blob


class TestSafeParallelMap:
    def test_captures_errors_without_aborting_siblings(self):
        def flaky(x):
            if x == 2:
                raise RuntimeError("boom")
            return x * 10

        results = safe_parallel_map(flaky, [1, 2, 3])
        assert [r.ok for r in results] == [True, False, True]
        assert results[0].unwrap() == 10
        assert results[1].error_type == "RuntimeError"
        assert "boom" in results[1].error
        with pytest.raises(Exception, match="boom"):
            results[1].unwrap()

    def test_process_pool_envelopes_are_picklable(self):
        results = safe_parallel_map(
            _module_level_inverse,
            [2.0, 0.0, 4.0],
            ExecutorConfig(mode="processes", jobs=2),
        )
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].error_type == "ZeroDivisionError"
        assert results[2].unwrap() == 0.25


def _module_level_inverse(x):
    return 1.0 / x


class TestRunJournal:
    def test_create_open_roundtrip(self, tmp_path):
        journal = RunJournal.create(tmp_path / "run", {"a": 1})
        reopened = RunJournal.open(tmp_path / "run")
        assert reopened.fingerprint == journal.fingerprint
        reopened.check_config({"a": 1})
        with pytest.raises(JournalError, match="does not match"):
            reopened.check_config({"a": 2})

    def test_create_refuses_different_run(self, tmp_path):
        RunJournal.create(tmp_path / "run", {"a": 1})
        with pytest.raises(JournalError, match="different configuration"):
            RunJournal.create(tmp_path / "run", {"a": 2})
        # Identical config is an idempotent restart, not an error.
        RunJournal.create(tmp_path / "run", {"a": 1})

    def test_open_requires_manifest(self, tmp_path):
        with pytest.raises(JournalError, match="not a run directory"):
            RunJournal.open(tmp_path)

    def test_cell_checkpoint_bit_identical(self, tmp_path):
        journal = RunJournal.create(tmp_path / "run", {})
        spec = CellSpec(region="A", repeat=0, seed=3)
        run = _make_region_run(seed=3)
        journal.save_cell(spec, run)
        assert journal.cell_done(spec.cell_id)
        loaded = journal.load_cell(spec)
        assert loaded.seed == run.seed
        assert list(loaded.evaluations) == list(run.evaluations)
        for name in run.evaluations:
            assert np.array_equal(loaded.evaluations[name].scores, run.evaluations[name].scores)
            assert loaded.evaluations[name].auc == run.evaluations[name].auc

    def test_truncated_npz_detected(self, tmp_path):
        journal = RunJournal.create(tmp_path / "run", {})
        spec = CellSpec(region="A", repeat=0)
        journal.save_cell(spec, _make_region_run())
        npz = tmp_path / "run" / "cells" / "A-r000.npz"
        npz.write_bytes(npz.read_bytes()[:100])
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            journal.load_cell(spec)
        assert journal.load_completed([spec]) == {}

    def test_unparsable_metadata_detected(self, tmp_path):
        journal = RunJournal.create(tmp_path / "run", {})
        spec = CellSpec(region="A", repeat=0)
        journal.save_cell(spec, _make_region_run())
        (tmp_path / "run" / "cells" / "A-r000.json").write_text("{not json")
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            journal.load_cell(spec)

    def test_partial_checkpoint_is_not_done(self, tmp_path):
        journal = RunJournal.create(tmp_path / "run", {})
        spec = CellSpec(region="A", repeat=0)
        journal.save_cell(spec, _make_region_run())
        (tmp_path / "run" / "cells" / "A-r000.npz").unlink()
        assert not journal.cell_done(spec.cell_id)
        with pytest.raises(CheckpointCorruptError, match="incomplete"):
            journal.load_cell(spec)

    def test_failure_record_and_events(self, tmp_path):
        journal = RunJournal.create(tmp_path / "run", {})
        spec = CellSpec(region="A", repeat=1)
        journal.record_failure(spec, error="tb", error_type="RuntimeError", attempts=3)
        assert journal.failed_cells()["A-r001"]["error_type"] == "RuntimeError"
        journal.log_event("cell_failed", cell="A-r001")
        assert journal.events()[-1]["event"] == "cell_failed"

    def test_fingerprint_canonical(self):
        assert config_fingerprint({"b": 1, "a": 2}) == config_fingerprint({"a": 2, "b": 1})
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})


class TestFaultInjector:
    def test_trips_bounded_by_times(self, tmp_path):
        injector = FaultInjector(
            state_dir=str(tmp_path), plan={"A-r000": FaultSpec(kind="raise", times=2)}
        )
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.trip("A-r000")
        injector.trip("A-r000")  # charge exhausted: clean
        assert injector.trips("A-r000") == 2
        injector.trip("B-r000")  # not in the plan: inert

    def test_reset(self, tmp_path):
        injector = FaultInjector(
            state_dir=str(tmp_path), plan={"A-r000": FaultSpec(times=1)}
        )
        with pytest.raises(InjectedFault):
            injector.trip("A-r000")
        injector.reset()
        with pytest.raises(InjectedFault):
            injector.trip("A-r000")

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="explode")
        with pytest.raises(ValueError):
            FaultSpec(times=0)


class TestGridFaultTolerance:
    @pytest.fixture(scope="class")
    def clean(self):
        """The uninterrupted reference grid."""
        return _grid()

    def test_resume_after_kill_bit_identical(self, tmp_path, clean, monkeypatch):
        injector = FaultInjector(
            state_dir=str(tmp_path / "faults"),
            plan={"A-r002": FaultSpec(kind="raise", times=1)},
        )
        inject(monkeypatch, injector)
        with pytest.raises(CellExecutionError, match="A-r002"):
            _grid(run_dir=tmp_path / "run")
        # The kill landed mid-grid: earlier cells are already checkpointed.
        journal = RunJournal.open(tmp_path / "run")
        assert {"A-r000", "A-r001"} <= journal.completed_cells()
        assert "A-r002" in journal.failed_cells()
        resumed = _grid(resume=tmp_path / "run")
        assert_results_identical(resumed, clean)
        assert journal.completed_cells() == {"A-r000", "A-r001", "A-r002"}

    def test_retry_completes_grid_unattended(self, tmp_path, clean, monkeypatch):
        injector = FaultInjector(
            state_dir=str(tmp_path / "faults"),
            plan={"A-r001": FaultSpec(kind="raise", times=1)},
        )
        inject(monkeypatch, injector)
        result = _grid(run_dir=tmp_path / "run", on_error="retry")
        assert injector.trips("A-r001") == 1
        assert not result.failures
        assert_results_identical(result, clean)  # transient retry reruns the same seed

    def test_skip_isolates_failures(self, tmp_path, monkeypatch):
        injector = FaultInjector(
            state_dir=str(tmp_path / "faults"),
            plan={"A-r001": FaultSpec(kind="raise", times=99)},
        )
        inject(monkeypatch, injector)
        with pytest.warns(UserWarning, match="A-r001"):
            result = _grid(on_error="skip")
        assert len(result.runs["A"]) == 2
        assert [o.spec.cell_id for o in result.failures] == ["A-r001"]
        assert result.failures[0].error_type == "InjectedFault"

    def test_resume_rejects_changed_config(self, tmp_path):
        _grid(n_repeats=2, run_dir=tmp_path / "run")
        with pytest.raises(JournalError, match="does not match"):
            _grid(n_repeats=3, resume=tmp_path / "run")

    def test_corrupt_checkpoint_recomputed_on_resume(self, tmp_path, clean):
        _grid(run_dir=tmp_path / "run")
        npz = tmp_path / "run" / "cells" / "A-r001.npz"
        npz.write_bytes(npz.read_bytes()[:50])
        resumed = _grid(resume=tmp_path / "run")
        assert_results_identical(resumed, clean)

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            _grid(on_error="explode")

    def test_journal_events_cover_lifecycle(self, tmp_path):
        _grid(n_repeats=1, run_dir=tmp_path / "run")
        kinds = [e["event"] for e in RunJournal.open(tmp_path / "run").events()]
        assert kinds[0] == "run_started"
        assert "cell_completed" in kinds
        assert kinds[-1] == "run_completed"
