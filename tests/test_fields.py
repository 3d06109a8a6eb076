"""Unit tests for GIS field primitives."""

import numpy as np
import pytest

from repro.gis.fields import CategoricalField, ScalarField
from repro.network.geometry import BoundingBox

BOX = BoundingBox(0.0, 0.0, 1000.0, 1000.0)


class TestCategoricalField:
    def test_value_is_nearest_seed_label(self):
        field = CategoricalField(
            seeds=np.array([[0.0, 0.0], [100.0, 0.0]]),
            labels=["left", "right"],
            categories=["left", "right"],
        )
        assert field.values_at([(10.0, 0.0)])[0] == "left"
        assert field.values_at([(90.0, 0.0)])[0] == "right"

    def test_values_at_many(self):
        field = CategoricalField(
            seeds=np.array([[0.0, 0.0]]), labels=["only"], categories=["only"]
        )
        assert field.values_at([(1.0, 1.0), (5.0, 5.0)]) == ["only", "only"]

    def test_piecewise_constant_regions(self, rng):
        field = CategoricalField.random(BOX, ["a", "b", "c"], 5, rng)
        # Points very close together share a value (almost surely).
        v1 = field.values_at([(500.0, 500.0)])[0]
        v2 = field.values_at([(500.1, 500.1)])[0]
        assert v1 == v2

    def test_random_covers_all_categories(self, rng):
        field = CategoricalField.random(BOX, ["a", "b", "c", "d"], 10, rng)
        assert set(field.labels) == {"a", "b", "c", "d"}

    def test_random_respects_weights(self, rng):
        field = CategoricalField.random(BOX, ["common", "rare"], 400, rng, weights=(0.95, 0.05))
        common = sum(1 for l in field.labels if l == "common")
        assert common > 300

    def test_label_category_mismatch(self):
        with pytest.raises(ValueError):
            CategoricalField(np.array([[0.0, 0.0]]), ["x"], ["a"])

    def test_bad_weights(self, rng):
        with pytest.raises(ValueError):
            CategoricalField.random(BOX, ["a", "b"], 5, rng, weights=(1.0,))


class TestScalarField:
    def test_values_in_unit_interval(self, rng):
        field = ScalarField.random(BOX, rng)
        pts = rng.uniform(0, 1000, size=(200, 2))
        v = field.values_at(pts)
        assert np.all((v >= 0) & (v <= 1))

    def test_peak_at_bump_center(self):
        field = ScalarField(
            centers=np.array([[500.0, 500.0]]),
            amplitudes=np.array([0.8]),
            length_scale=50.0,
            baseline=0.0,
        )
        assert field.values_at([(500.0, 500.0)])[0] == pytest.approx(0.8)
        assert field.values_at([(900.0, 900.0)])[0] < 0.01

    def test_smoothness(self):
        field = ScalarField(
            centers=np.array([[500.0, 500.0]]),
            amplitudes=np.array([0.5]),
            length_scale=100.0,
        )
        a = field.values_at([(500.0, 500.0)])[0]
        b = field.values_at([(501.0, 500.0)])[0]
        assert abs(a - b) < 0.001

    def test_single_point_matches_batch(self, rng):
        field = ScalarField.random(BOX, rng)
        p = (123.0, 456.0)
        assert field.values_at(np.asarray(p))[0] == field.values_at([p])[0]

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ScalarField(np.array([[0.0, 0.0]]), np.array([1.0, 2.0]), 10.0)
        with pytest.raises(ValueError):
            ScalarField(np.array([[0.0, 0.0]]), np.array([1.0]), -1.0)
        with pytest.raises(ValueError):
            ScalarField.random(BOX, np.random.default_rng(0), n_bumps=0)
