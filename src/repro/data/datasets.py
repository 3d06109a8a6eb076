"""High-level dataset assembly: one call builds a region ready for modelling.

``load_region("A")`` generates the network, its environmental layers, the
latent ground truth and the sampled failure records, and wraps everything
in a :class:`PipeDataset` with the failure-matrix and train/test helpers
every model consumes. Generation is deterministic given (region, scale,
seed) and memoised within the process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ..gis.canopy import CanopyMap
from ..gis.moisture import MoistureMap
from ..gis.soil import SoilLayers
from ..gis.traffic import TrafficNetwork
from ..network.network import PipeNetwork
from ..network.pipe import PipeClass
from .failures import GroundTruth, build_ground_truth, simulate_failures
from .generator import generate_network
from .regions import OBSERVATION_YEARS, TEST_YEAR, TRAIN_YEARS, RegionSpec, get_region
from .schema import FailureRecord


@dataclass
class EnvironmentLayers:
    """Environmental GIS layers of one region."""

    soil: SoilLayers
    traffic: TrafficNetwork
    canopy: CanopyMap | None = None
    moisture: MoistureMap | None = None


@dataclass
class PipeDataset:
    """A region's network, environment and failure records.

    ``ground_truth`` holds the simulator's latent hazard — exposed for
    tests and oracle ablations only; prediction models must not read it.
    """

    spec: RegionSpec
    network: PipeNetwork
    environment: EnvironmentLayers
    failures: list[FailureRecord]
    years: tuple[int, ...] = OBSERVATION_YEARS
    ground_truth: GroundTruth | None = None

    # -- id orderings (canonical for every matrix in the repo) ------------

    def pipe_ids(self) -> list[str]:
        """Pipe IDs in network insertion order."""
        return [p.pipe_id for p in self.network.iter_pipes()]

    def segment_ids(self) -> list[str]:
        """Segment IDs grouped by pipe, in network insertion order."""
        return [s.segment_id for s in self.network.segments()]

    # -- failure matrices ---------------------------------------------------

    def segment_failure_matrix(self, years: tuple[int, ...] | None = None) -> np.ndarray:
        """Binary (n_segments, n_years) failure matrix (Fig. 18.3 right)."""
        years = self.years if years is None else years
        index = {sid: i for i, sid in enumerate(self.segment_ids())}
        year_index = {y: j for j, y in enumerate(years)}
        matrix = np.zeros((len(index), len(years)), dtype=np.int8)
        for rec in self.failures:
            j = year_index.get(rec.year)
            i = index.get(rec.segment_id)
            if i is not None and j is not None:
                matrix[i, j] = 1
        return matrix

    def pipe_failure_matrix(self, years: tuple[int, ...] | None = None) -> np.ndarray:
        """Binary (n_pipes, n_years) matrix: pipe failed in year (Fig. 18.3 left)."""
        years = self.years if years is None else years
        index = {pid: i for i, pid in enumerate(self.pipe_ids())}
        year_index = {y: j for j, y in enumerate(years)}
        matrix = np.zeros((len(index), len(years)), dtype=np.int8)
        for rec in self.failures:
            j = year_index.get(rec.year)
            i = index.get(rec.pipe_id)
            if i is not None and j is not None:
                matrix[i, j] = 1
        return matrix

    # -- splits & subsets -----------------------------------------------------

    @property
    def train_years(self) -> tuple[int, ...]:
        """1998–2008 (first 11 observation years)."""
        return tuple(y for y in self.years if y != TEST_YEAR) if TEST_YEAR in self.years else self.years[:-1]

    @property
    def test_year(self) -> int:
        """2009 (the held-out final year)."""
        return TEST_YEAR if TEST_YEAR in self.years else self.years[-1]

    def subset(self, pipe_class: PipeClass) -> "PipeDataset":
        """Dataset restricted to one pipe class (the experiments use CWMs).

        Environment layers are shared; the ground truth is dropped (its row
        ordering no longer matches the filtered network).
        """
        sub_network = PipeNetwork(region=f"{self.network.region}:{pipe_class.name}")
        keep_pipe_ids: set[str] = set()
        for pipe in self.network.iter_pipes():
            if pipe.pipe_class is pipe_class:
                sub_network.add_pipe(pipe)
                keep_pipe_ids.add(pipe.pipe_id)
        sub_failures = [r for r in self.failures if r.pipe_id in keep_pipe_ids]
        return replace(
            self, network=sub_network, failures=sub_failures, ground_truth=None
        )

    def n_failures(self, pipe_class: PipeClass | None = None) -> int:
        """Total failure events, optionally for one pipe class."""
        if pipe_class is None:
            return len(self.failures)
        class_ids = {p.pipe_id for p in self.network.pipes(pipe_class)}
        return sum(1 for r in self.failures if r.pipe_id in class_ids)


def build_environment(
    network: PipeNetwork, spec: RegionSpec, rng: np.random.Generator, with_vegetation: bool = False
) -> EnvironmentLayers:
    """Soil, traffic and (optionally) vegetation layers for a network."""
    bbox = network.bounding_box(margin=spec.block_size_m)
    soil = SoilLayers.random(bbox, rng)
    traffic = TrafficNetwork.from_street_grid(bbox, spec.block_size_m, rng)
    canopy = CanopyMap.random(bbox, rng) if with_vegetation else None
    moisture = (
        MoistureMap.random(bbox, rng, years=OBSERVATION_YEARS) if with_vegetation else None
    )
    return EnvironmentLayers(soil=soil, traffic=traffic, canopy=canopy, moisture=moisture)


@lru_cache(maxsize=16)
def _load_region_cached(name: str, scale: float | None, seed: int | None) -> PipeDataset:
    spec = get_region(name, scale=scale)
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    network = generate_network(spec, rng)
    environment = build_environment(network, spec, rng)
    truth = build_ground_truth(network, environment.soil, environment.traffic, spec, rng)
    failures = simulate_failures(network, truth, rng)
    return PipeDataset(
        spec=spec,
        network=network,
        environment=environment,
        failures=failures,
        ground_truth=truth,
    )


def load_region(name: str, scale: float | None = None, seed: int | None = None) -> PipeDataset:
    """Generate (or fetch from cache) one region's drinking-water dataset.

    Parameters
    ----------
    name:
        "A", "B" or "C".
    scale:
        Fraction of the paper's full counts to generate; default follows
        ``REPRO_SCALE`` (0.25 when unset).
    seed:
        Overrides the region's fixed seed — used by the repeated-evaluation
        significance tests.
    """
    return _load_region_cached(name.upper(), scale, seed)


#: Alias matching the train/test protocol constants.
__all__ = [
    "EnvironmentLayers",
    "PipeDataset",
    "build_environment",
    "load_region",
    "OBSERVATION_YEARS",
    "TRAIN_YEARS",
    "TEST_YEAR",
]
