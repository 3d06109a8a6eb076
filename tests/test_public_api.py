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

    def test_import_stays_light(self):
        """`import repro` pulls in none of scipy.spatial, scipy.stats or
        scipy.optimize (0.1-0.6 s each per process, and every pool worker
        imports repro); no module of the package needs them."""
        src = str(Path(repro.__file__).resolve().parents[1])
        path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        probe = (
            "import sys, repro; "
            "print(sorted(m for m in ('scipy.spatial', 'scipy.stats', 'scipy.optimize')"
            " if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

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
