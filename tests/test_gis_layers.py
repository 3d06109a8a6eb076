"""Unit tests for soil, traffic, canopy and moisture layers."""

import numpy as np
import pytest

from repro.gis.canopy import CanopyMap
from repro.gis.moisture import MoistureMap
from repro.gis.soil import (
    CORROSIVENESS_LEVELS,
    SoilLayers,
    corrosiveness_severity,
    expansiveness_severity,
)
from repro.gis.traffic import TrafficNetwork
from repro.network.geometry import BoundingBox

BOX = BoundingBox(0.0, 0.0, 2000.0, 2000.0)


class TestSoilLayers:
    def test_sample_keys_and_lengths(self, rng):
        soil = SoilLayers.random(BOX, rng)
        pts = [(100.0, 100.0), (1500.0, 900.0)]
        values = soil.sample(pts)
        assert set(values) == {
            "soil_corrosiveness",
            "soil_expansiveness",
            "soil_geology",
            "soil_map",
        }
        assert all(len(v) == 2 for v in values.values())

    def test_sample_accepts_array(self, rng):
        soil = SoilLayers.random(BOX, rng)
        pts = np.array([[100.0, 100.0], [1500.0, 900.0], [1999.0, 3.0]])
        assert soil.sample(pts) == soil.sample([tuple(p) for p in pts])
        assert soil.corrosiveness.values_at([tuple(pts[1])])[0] == soil.sample(pts)["soil_corrosiveness"][1]

    def test_values_from_known_vocab(self, rng):
        soil = SoilLayers.random(BOX, rng)
        pts = [(float(x), float(x)) for x in range(0, 2000, 100)]
        for level in soil.sample(pts)["soil_corrosiveness"]:
            assert level in CORROSIVENESS_LEVELS

    def test_severity_mappings(self):
        sev = corrosiveness_severity(["low", "severe"])
        assert sev[0] == 0.0 and sev[1] == 1.0
        sev = expansiveness_severity(["low", "high"])
        assert sev[0] == 0.0 and sev[1] == 1.0

    def test_severity_unknown_raises(self):
        with pytest.raises(KeyError):
            corrosiveness_severity(["mystery"])


class TestTrafficNetwork:
    def test_distance_zero_at_intersection(self):
        net = TrafficNetwork(intersections=np.array([[5.0, 5.0]]))
        assert net.distance_to_nearest([(5.0, 5.0)])[0] == 0.0

    def test_distance_exact(self):
        net = TrafficNetwork(intersections=np.array([[0.0, 0.0], [100.0, 0.0]]))
        assert net.distance_to_nearest([(3.0, 4.0)])[0] == pytest.approx(5.0)

    def test_distance_accepts_array(self):
        net = TrafficNetwork(intersections=np.array([[0.0, 0.0], [100.0, 0.0]]))
        dist = net.distance_to_nearest(np.array([[3.0, 4.0], [100.0, 7.0]]))
        assert dist.tolist() == [5.0, 7.0]
        assert net.distance_to_nearest(np.empty((0, 2))).shape == (0,)

    def test_grid_density_follows_block_size(self, rng):
        fine = TrafficNetwork.from_street_grid(BOX, 100.0, rng, keep_fraction=1.0)
        coarse = TrafficNetwork.from_street_grid(BOX, 400.0, rng, keep_fraction=1.0)
        assert len(fine.intersections) > len(coarse.intersections)

    def test_keep_fraction_thins(self, rng):
        full = TrafficNetwork.from_street_grid(BOX, 200.0, rng, keep_fraction=1.0)
        rng2 = np.random.default_rng(0)
        thin = TrafficNetwork.from_street_grid(BOX, 200.0, rng2, keep_fraction=0.3)
        assert len(thin.intersections) < len(full.intersections)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TrafficNetwork(intersections=np.zeros((0, 2)))

    def test_rejects_bad_block(self, rng):
        with pytest.raises(ValueError):
            TrafficNetwork.from_street_grid(BOX, -5.0, rng)


class TestCanopyAndMoisture:
    def test_canopy_in_unit_interval(self, rng):
        canopy = CanopyMap.random(BOX, rng)
        pts = rng.uniform(0, 2000, size=(100, 2))
        cover = canopy.coverage_at([tuple(p) for p in pts])
        assert np.all((cover >= 0) & (cover <= 1))

    def test_moisture_year_multiplier(self, rng):
        moisture = MoistureMap.random(BOX, rng, years=[2000, 2001])
        pts = [(500.0, 500.0)]
        base = moisture.moisture_at(pts)[0]
        m2000 = moisture.moisture_at(pts, year=2000)[0]
        assert m2000 == pytest.approx(
            min(base * moisture.year_multipliers[2000], 1.0)
        )

    def test_unknown_year_uses_unit_multiplier(self, rng):
        moisture = MoistureMap.random(BOX, rng, years=[2000])
        pts = [(100.0, 100.0)]
        assert moisture.moisture_at(pts, year=1950)[0] == pytest.approx(
            moisture.moisture_at(pts)[0]
        )

    def test_moisture_clipped(self, rng):
        moisture = MoistureMap.random(BOX, rng, years=[2005])
        moisture.year_multipliers[2005] = 100.0
        pts = rng.uniform(0, 2000, size=(50, 2))
        assert np.all(moisture.moisture_at([tuple(p) for p in pts], year=2005) <= 1.0)
