"""The public API surface: everything advertised must import and be usable."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize("name", repro.__all__)
    def test_all_exports_resolve(self, name):
        assert hasattr(repro, name), f"repro.{name} missing"

    def test_models_share_interface(self):
        from repro.core.base import FailureModel

        for cls in (
            repro.AUCRankingModel,
            repro.CoxPHModel,
            repro.DPMHBPModel,
            repro.HBPModel,
            repro.HBPBestModel,
            repro.SVMRankingModel,
            repro.WeibullModel,
        ):
            assert issubclass(cls, FailureModel)
            assert callable(getattr(cls, "fit"))
            assert callable(getattr(cls, "predict_pipe_risk"))

    def test_public_functions_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__doc__, f"repro.{name} lacks a docstring"

    def test_subpackages_importable(self):
        import repro.bayes
        import repro.core
        import repro.data
        import repro.eval
        import repro.features
        import repro.gis
        import repro.inference
        import repro.ml
        import repro.network
        import repro.survival

    @staticmethod
    def _run_probe(probe: str) -> list[str]:
        """Run ``probe`` in a fresh interpreter on this checkout; its stdout lines."""
        src = str(Path(repro.__file__).resolve().parents[1])
        path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        return out.stdout.splitlines()

    def test_import_stays_light(self):
        """`import repro` loads no scipy module: scipy.special alone costs
        every process (each pool worker imports repro) ~0.2 s and ~20 MB."""
        probe = "import sys, repro; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        assert self._run_probe(probe) == ["[]"]

    def test_grid_process_never_loads_scipy(self):
        """A fitted grid cell runs without scipy; the Table 18.4 p-value
        loads it on first use and is unchanged."""
        probe = "\n".join(
            [
                "import sys",
                "from repro import run_comparison",
                "from repro.eval.significance import paired_t_test",
                "def scipy_modules():",
                "    return sorted(m for m in sys.modules if m.startswith('scipy'))",
                "result = run_comparison(['A'], n_repeats=1, scale=0.05, executor='serial')",
                "assert len(result.runs['A']) == 1 and not result.failures",
                "print(scipy_modules())",
                "t = paired_t_test([0.91, 0.84, 0.88, 0.79], [0.83, 0.82, 0.85, 0.80])",
                "print(repr(t.p_value))",
                "print('scipy.special' in scipy_modules())",
            ]
        )
        after_grid, p_value, after_test = self._run_probe(probe)
        assert after_grid == "[]"
        assert p_value == "0.10357142199575646"  # the value scipy.stats.ttest_rel gives
        assert after_test == "True"

    def test_default_models_names_match_paper(self):
        names = [m.name for m in repro.default_models(fast=True)]
        for paper_model in ("DPMHBP", "HBP", "Cox", "SVM", "Weibull"):
            assert paper_model in names

    def test_default_models_follow_paper_ordering(self):
        """The line-up leads with PAPER_MODELS in table order (extensions after)."""
        from repro.eval.experiment import PAPER_MODELS

        names = [m.name for m in repro.default_models(fast=True)]
        assert tuple(names[: len(PAPER_MODELS)]) == PAPER_MODELS

    def test_runs_subsystem_exported(self):
        import repro.runs

        for name in repro.runs.__all__:
            assert hasattr(repro.runs, name), f"repro.runs.{name} missing"
        for name in ("CellSpec", "RunJournal", "RunPolicy"):
            assert getattr(repro, name) is getattr(repro.runs, name)


class TestGetParamsContract:
    """``FailureModel.get_params``: plain-data config, no fitted state."""

    def test_params_are_json_able_plain_data(self):
        for model in repro.default_models(fast=True):
            params = model.get_params()
            json.dumps(params)  # must not raise
            assert params["name"] == model.name

    def test_fitted_state_excluded(self):
        for model in repro.default_models(fast=True):
            for key in model.get_params():
                assert not key.startswith("_") and not key.endswith("_"), (
                    f"{type(model).__name__}.get_params leaked fitted field {key!r}"
                )

    def test_params_reconstruct_an_equivalent_model(self):
        for model in repro.default_models(fast=True):
            clone = type(model)(**model.get_params())
            assert clone.get_params() == model.get_params()
