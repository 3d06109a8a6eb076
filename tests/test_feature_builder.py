"""Unit tests for Table 18.2 feature assembly."""

import numpy as np
import pytest

from repro.features.builder import FeatureConfig, build_model_data


class TestShapesAndAlignment:
    def test_matrix_shapes(self, small_model_data):
        md = small_model_data
        assert md.X_pipe.shape == (md.n_pipes, len(md.feature_names))
        assert md.X_seg.shape == (md.n_segments, len(md.feature_names))
        assert md.seg_pipe_idx.shape == (md.n_segments,)
        assert md.seg_pipe_idx.max() == md.n_pipes - 1

    def test_failure_split_shapes(self, small_model_data):
        md = small_model_data
        assert md.pipe_fail_train.shape == (md.n_pipes, 11)
        assert md.seg_fail_train.shape == (md.n_segments, 11)
        assert md.pipe_fail_test.shape == (md.n_pipes,)

    def test_feature_vocabulary(self, small_model_data):
        names = small_model_data.feature_names
        assert any(n.startswith("material=") for n in names)
        assert any(n.startswith("coating=") for n in names)
        assert "diameter_mm" in names
        assert "log_length_m" in names
        assert any(n.startswith("soil_corrosiveness=") for n in names)
        assert "dist_to_intersection_m" in names

    def test_segment_inherits_pipe_attributes(self, small_model_data, tiny_dataset):
        md = small_model_data
        col = md.feature_names.index("diameter_mm")
        # Segment diameter column equals its pipe's column value.
        assert np.allclose(md.X_seg[:, col], md.X_pipe[md.seg_pipe_idx, col])

    def test_continuous_standardised(self, small_model_data):
        md = small_model_data
        col = md.feature_names.index("diameter_mm")
        pooled = np.concatenate([md.X_seg[:, col], md.X_pipe[:, col]])
        assert abs(pooled.mean()) < 0.2
        assert 0.5 < pooled.std() < 2.0


class TestConfigs:
    def test_basic_config_drops_environment(self, tiny_dataset):
        md = build_model_data(
            tiny_dataset, FeatureConfig(include_soil=False, include_traffic=False)
        )
        assert not any(n.startswith("soil_") for n in md.feature_names)
        assert "dist_to_intersection_m" not in md.feature_names

    def test_decoys_added(self, tiny_dataset):
        md = build_model_data(tiny_dataset, FeatureConfig(n_noise_decoys=3))
        assert sum(n.startswith("decoy_") for n in md.feature_names) == 3

    def test_empty_config_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            build_model_data(
                tiny_dataset,
                FeatureConfig(
                    include_attributes=False,
                    include_dimensions=False,
                    include_soil=False,
                    include_traffic=False,
                ),
            )

    def test_vegetation_requires_layers(self, tiny_dataset):
        with pytest.raises(ValueError):
            build_model_data(tiny_dataset, FeatureConfig(include_vegetation=True))

    def test_vegetation_on_wastewater(self, tiny_wastewater):
        md = build_model_data(tiny_wastewater, FeatureConfig(include_vegetation=True))
        assert "tree_canopy_cover" in md.feature_names
        assert "soil_moisture" in md.feature_names


class TestHelpers:
    def test_pipe_ages(self, small_model_data):
        md = small_model_data
        ages = md.pipe_ages(2009)
        assert np.all(ages >= 0)
        assert np.allclose(ages, 2009 - md.pipe_laid_year)

    def test_seg_laid_year_broadcast(self, small_model_data):
        md = small_model_data
        assert np.array_equal(md.seg_laid_year, md.pipe_laid_year[md.seg_pipe_idx])

    def test_clustering_features_appends_laid_eras_location(self, small_model_data):
        md = small_model_data
        cf = md.clustering_features()
        assert cf.shape == (md.n_segments, md.X_seg.shape[1] + 8)
        # Era block: exactly one active indicator per segment, scaled by 2.
        era_block = cf[:, -7:-2]
        assert np.allclose(era_block.sum(axis=1), 2.0)
        # Location block: standardised coordinates.
        xy = cf[:, -2:]
        assert np.allclose(xy.mean(axis=0), 0.0, atol=1e-9)

    def test_survival_composition(self, small_model_data):
        md = small_model_data
        probs = np.full(md.n_segments, 0.01)
        pipe_p = md.survival_pipe_probability(probs)
        counts = np.bincount(md.seg_pipe_idx, minlength=md.n_pipes)
        expected = 1.0 - 0.99**counts
        assert np.allclose(pipe_p, expected)

    def test_survival_composition_bounds(self, small_model_data):
        md = small_model_data
        pipe_p = md.survival_pipe_probability(np.ones(md.n_segments))
        assert np.all(pipe_p <= 1.0) and np.all(pipe_p >= 0.0)


class TestValidationSplit:
    def test_year_bookkeeping(self, small_model_data):
        v = small_model_data.validation_split()
        assert v.test_year == small_model_data.train_years[-1]
        assert len(v.train_years) == len(small_model_data.train_years) - 1
        assert v.pipe_fail_train.shape[1] == 10

    def test_labels_come_from_last_train_year(self, small_model_data):
        v = small_model_data.validation_split()
        assert np.array_equal(v.pipe_fail_test, small_model_data.pipe_fail_train[:, -1])

    def test_original_unchanged(self, small_model_data):
        before = small_model_data.pipe_fail_train.shape
        small_model_data.validation_split()
        assert small_model_data.pipe_fail_train.shape == before
