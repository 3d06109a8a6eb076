"""Parallel execution layer: config resolution, caching, and the core
guarantee — serial and multi-process execution are bit-identical for
fixed seeds, both for DPMHBP chains and for ``run_comparison`` cells."""

import threading

import numpy as np
import pytest

from repro.core.dpmhbp import DPMHBPModel
from repro.core.survival_models import CoxPHModel
from repro.eval.experiment import prepare_region_data, run_comparison
from repro.parallel import (
    ExecutorConfig,
    cached_model_data,
    clear_model_data_cache,
    parallel_map,
    resolve_executor,
)

EXECUTORS = ("serial", "processes")


def _square(x):
    """Module-level so process pools can pickle it."""
    return x * x


def _reciprocal(x):
    """Module-level so process pools can pickle it."""
    return 1 // x


def _nested_squares(n):
    """Runs its own processes/2 map from inside a pool worker."""
    return parallel_map(_square, range(n), ExecutorConfig(mode="processes", jobs=2))


def _light_models(seed):
    """Module-level model factory for process-executor comparison runs."""
    return [
        DPMHBPModel(seed=seed, n_sweeps=8, burn_in=3, n_chains=1),
        CoxPHModel(),
    ]


class TestExecutorConfig:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            ExecutorConfig(mode="gpu")

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ExecutorConfig(jobs=0)

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        config = resolve_executor()
        assert config.is_serial

    def test_env_jobs_implies_processes(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        config = resolve_executor()
        assert config.mode == "processes"
        assert config.jobs == 3

    def test_jobs_argument_implies_processes(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert resolve_executor(jobs=2) == ExecutorConfig(mode="processes", jobs=2)

    def test_env_mode_aliases(self, monkeypatch):
        """Only the CLI's two spellings are modes; other names are rejected."""
        for alias in ("sync", "thread", "threads", "process", "fork"):
            monkeypatch.setenv("REPRO_EXECUTOR", alias)
            with pytest.raises(ValueError, match="'serial', 'processes'"):
                resolve_executor()
            with pytest.raises(ValueError, match="'serial', 'processes'"):
                resolve_executor(mode=alias)

    def test_explicit_args_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        monkeypatch.setenv("REPRO_EXECUTOR", "processes")
        config = resolve_executor(jobs=2, mode="serial")
        assert config == ExecutorConfig(mode="serial", jobs=2)

    def test_bad_env_values_raise(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "two")
        with pytest.raises(ValueError):
            resolve_executor()
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setenv("REPRO_EXECUTOR", "quantum")
        with pytest.raises(ValueError):
            resolve_executor()

    def test_explicit_zero_jobs_rejected_at_resolution(self):
        with pytest.raises(ValueError, match=r"got 0 \(from the jobs argument\)"):
            resolve_executor(jobs=0)

    def test_explicit_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match=r"got -2"):
            resolve_executor(jobs=-2, mode="processes")

    def test_env_zero_jobs_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        with pytest.raises(ValueError, match=r"from REPRO_JOBS=0"):
            resolve_executor()

    def test_rejection_message_points_at_serial(self):
        with pytest.raises(ValueError, match="mode='serial'"):
            resolve_executor(jobs=0)


class TestParallelMap:
    @pytest.mark.parametrize("mode", EXECUTORS)
    def test_order_preserved(self, mode):
        config = ExecutorConfig(mode=mode, jobs=2) if mode != "serial" else ExecutorConfig()
        assert parallel_map(_square, range(9), config) == [x * x for x in range(9)]

    def test_empty_input(self):
        assert parallel_map(_square, [], ExecutorConfig(mode="processes", jobs=2)) == []

    def test_exceptions_propagate(self):
        with pytest.raises(ZeroDivisionError):
            parallel_map(_reciprocal, [1, 0], ExecutorConfig(mode="processes", jobs=2))

    def test_nested_process_maps_return(self):
        """A processes map inside a processes worker completes and joins.

        Each worker builds (and shuts down) its own inner pool, so no
        grandchild pool outlives its map and wedges the worker at exit —
        the hang `repro grid --executor processes` once hit when every
        cell's multi-chain DPMHBP fit fanned out inside its worker.
        """
        config = ExecutorConfig(mode="processes", jobs=2)
        out = []
        runner = threading.Thread(
            target=lambda: out.append(parallel_map(_nested_squares, [2, 3, 4], config)),
            daemon=True,
        )
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive(), "nested process maps did not return"
        assert out == [[[x * x for x in range(n)] for n in (2, 3, 4)]]


class TestRegionCache:
    def test_same_key_same_object(self):
        clear_model_data_cache()
        a = cached_model_data("A", scale=0.05, seed=9)
        b = cached_model_data("A", scale=0.05, seed=9)
        assert a is b

    def test_seed_in_key(self):
        a = cached_model_data("A", scale=0.05, seed=9)
        b = cached_model_data("A", scale=0.05, seed=10)
        assert a is not b

    def test_prepare_region_data_uses_cache(self):
        a = prepare_region_data("A", scale=0.05, seed=9)
        b = prepare_region_data("A", scale=0.05, seed=9)
        assert a is b

    def test_clear(self):
        a = cached_model_data("A", scale=0.05, seed=9)
        clear_model_data_cache()
        assert cached_model_data("A", scale=0.05, seed=9) is not a

    def test_cached_arrays_reject_mutation(self):
        """The read-only contract is enforced, not just documented."""
        clear_model_data_cache()
        data = cached_model_data("A", scale=0.05, seed=9)
        with pytest.raises(ValueError, match="read-only"):
            data.X_pipe[0, 0] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            data.pipe_fail_test[:] = 1.0

    def test_every_array_field_is_frozen(self):
        from dataclasses import fields

        clear_model_data_cache()
        data = cached_model_data("A", scale=0.05, seed=9)
        writable = [
            f.name
            for f in fields(data)
            if isinstance(getattr(data, f.name), np.ndarray)
            and getattr(data, f.name).flags.writeable
        ]
        assert writable == []


class TestChainDeterminism:
    """DPMHBP chains must not depend on how they were scheduled."""

    @pytest.fixture(scope="class")
    def fits(self, small_model_data):
        results = {}
        for mode in EXECUTORS:
            model = DPMHBPModel(
                n_sweeps=10, burn_in=3, seed=0, n_chains=2, jobs=2, executor=mode
            )
            results[mode] = model.fit(small_model_data)
        return results

    @pytest.mark.parametrize("mode", ["processes"])
    def test_identical_to_serial(self, fits, mode):
        serial, parallel = fits["serial"], fits[mode]
        assert np.array_equal(serial.posterior_.rho_mean, parallel.posterior_.rho_mean)
        assert np.array_equal(serial.posterior_.rho_std, parallel.posterior_.rho_std)
        for chain_s, chain_p in zip(serial.chain_posteriors_, parallel.chain_posteriors_):
            assert np.array_equal(chain_s.rho_mean, chain_p.rho_mean)
            assert np.array_equal(chain_s.last_assignments, chain_p.last_assignments)


class TestComparisonDeterminism:
    """run_comparison cells must not depend on how they were scheduled."""

    @pytest.fixture(scope="class")
    def comparisons(self):
        results = {}
        for mode in EXECUTORS:
            results[mode] = run_comparison(
                regions=("A", "B"),
                n_repeats=2,
                scale=0.08,
                models_factory=_light_models,
                jobs=2,
                executor=mode,
            )
        return results

    @pytest.mark.parametrize("mode", ["processes"])
    def test_identical_to_serial(self, comparisons, mode):
        serial, parallel = comparisons["serial"], comparisons[mode]
        assert serial.regions == parallel.regions
        for region in serial.regions:
            for model in serial.model_names():
                assert np.array_equal(
                    serial.auc_samples(region, model),
                    parallel.auc_samples(region, model),
                )
                assert np.array_equal(
                    serial.budget_samples(region, model),
                    parallel.budget_samples(region, model),
                )

    def test_rho_identical_across_executors(self, comparisons):
        """Raw DPMHBP scores (not just AUC) match bit-for-bit."""
        serial_run = comparisons["serial"].runs["A"][0]
        parallel_run = comparisons["processes"].runs["A"][0]
        assert np.array_equal(
            serial_run.evaluations["DPMHBP"].scores,
            parallel_run.evaluations["DPMHBP"].scores,
        )
