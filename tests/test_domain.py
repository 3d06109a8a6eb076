"""Unit tests for domain-knowledge feature screening."""

import numpy as np
import pytest

from repro.features.builder import build_model_data
from repro.features.domain import (
    basic_config,
    expert_screen,
    is_expert_endorsed,
    naive_config,
)


class TestEndorsement:
    @pytest.mark.parametrize(
        "name",
        [
            "material=PVC",
            "coating=TAR",
            "diameter_mm",
            "soil_corrosiveness=severe",
            "dist_to_intersection_m",
            "tree_canopy_cover",
        ],
    )
    def test_expert_features_endorsed(self, name):
        assert is_expert_endorsed(name)

    @pytest.mark.parametrize("name", ["decoy_0", "decoy_7", "random_junk"])
    def test_decoys_rejected(self, name):
        assert not is_expert_endorsed(name)


class TestExpertScreen:
    def test_removes_decoys(self, tiny_dataset):
        md = build_model_data(tiny_dataset, naive_config(n_decoys=4))
        screened = expert_screen(md)
        assert not any(n.startswith("decoy_") for n in screened.feature_names)
        assert screened.X_pipe.shape[1] == len(screened.feature_names)

    def test_keeps_expert_features(self, tiny_dataset):
        md = build_model_data(tiny_dataset, naive_config(n_decoys=2))
        screened = expert_screen(md)
        assert "diameter_mm" in screened.feature_names
        assert any(n.startswith("soil_geology=") for n in screened.feature_names)

    def test_columns_stay_aligned(self, tiny_dataset):
        md = build_model_data(tiny_dataset, naive_config(n_decoys=2))
        screened = expert_screen(md)
        col = screened.feature_names.index("diameter_mm")
        orig = md.feature_names.index("diameter_mm")
        assert np.array_equal(screened.X_pipe[:, col], md.X_pipe[:, orig])


class TestConfigs:
    def test_basic_excludes_environment(self):
        cfg = basic_config()
        assert not cfg.include_soil and not cfg.include_traffic

    def test_naive_includes_decoys(self):
        assert naive_config(5).n_noise_decoys == 5
