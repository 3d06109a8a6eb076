"""Unit tests for fixed grouping schemes."""

import numpy as np
import pytest

from repro.core.grouping import (
    GROUPINGS,
    fixed_grouping,
    group_by_diameter,
    group_by_laid_year,
    group_by_material,
)


class TestGroupings:
    def test_material_groups_match_materials(self, small_model_data):
        labels = group_by_material(small_model_data)
        mats = np.asarray(small_model_data.pipe_material)
        for m in set(small_model_data.pipe_material):
            group_vals = set(labels[mats == m])
            assert len(group_vals) == 1

    def test_diameter_bands_ordered(self, small_model_data):
        labels = group_by_diameter(small_model_data)
        d = small_model_data.pipe_diameter
        # Larger diameters never get a smaller band index.
        order = np.argsort(d)
        assert np.all(np.diff(labels[order]) >= 0)

    def test_laid_year_decades(self, small_model_data):
        labels = group_by_laid_year(small_model_data, decade=10)
        years = small_model_data.pipe_laid_year
        same_decade = (years // 10) == (years // 10)[0]
        assert len(set(labels[same_decade])) == 1

    def test_laid_year_width_validation(self, small_model_data):
        with pytest.raises(ValueError):
            group_by_laid_year(small_model_data, decade=0)

    @pytest.mark.parametrize("scheme", GROUPINGS)
    def test_fixed_grouping_dense_labels(self, small_model_data, scheme):
        labels = fixed_grouping(small_model_data, scheme)
        k = labels.max() + 1
        assert set(labels) == set(range(k))
        assert labels.shape == (small_model_data.n_pipes,)

    def test_unknown_scheme(self, small_model_data):
        with pytest.raises(ValueError):
            fixed_grouping(small_model_data, "colour")
