"""Feature assembly: Table 18.2's features plus the train/test matrices.

``build_model_data(dataset)`` produces the one canonical
:class:`ModelData` object every compared method consumes — the chapter's
fairness requirement ("the features described in the previous section are
used for all the compared methods") is enforced by construction.

Features per pipe/segment:

* pipe attributes — protective coating (one-hot), diameter, length (log),
  laid date (through per-year ages), material (one-hot);
* environmental factors — four categorical soil layers (one-hot) sampled
  at segment midpoints, and the distance to the closest traffic
  intersection.

Pipe-level categorical environment values are the modal value over the
pipe's segments; the pipe's intersection distance is the minimum over its
segments (the most-exposed point governs loading).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..data.datasets import PipeDataset
from ..ml.preprocessing import OneHotEncoder, StandardScaler


@dataclass
class FeatureConfig:
    """Which feature blocks to include (the domain-knowledge ablation knob)."""

    include_attributes: bool = True  # coating, material (categorical blocks)
    include_dimensions: bool = True  # diameter, log-length
    include_soil: bool = True
    include_traffic: bool = True
    include_vegetation: bool = False  # canopy & moisture (waste water only)
    n_noise_decoys: int = 0  # "false correlated" features a naive pipeline keeps
    decoy_seed: int = 1234


@dataclass
class ModelData:
    """Everything a failure model may legitimately see.

    All matrices share canonical orderings: pipes in network insertion
    order, segments grouped by pipe. Continuous feature columns are
    standardised with statistics from the full region (test labels are
    never touched).
    """

    region: str
    pipe_ids: list[str]
    segment_ids: list[str]
    seg_pipe_idx: np.ndarray  # (n_seg,) → row in pipe arrays
    X_pipe: np.ndarray  # (n_pipes, d) standardised features
    X_seg: np.ndarray  # (n_seg, d) standardised features
    feature_names: list[str]
    pipe_lengths: np.ndarray
    seg_lengths: np.ndarray
    pipe_laid_year: np.ndarray
    pipe_material: list[str]
    pipe_diameter: np.ndarray
    seg_midpoints: np.ndarray  # (n_seg, 2) segment midpoint coordinates
    train_years: tuple[int, ...]
    test_year: int
    seg_fail_train: np.ndarray  # (n_seg, n_train_years) binary
    pipe_fail_train: np.ndarray  # (n_pipes, n_train_years) binary
    pipe_fail_test: np.ndarray  # (n_pipes,) binary test-year labels
    seg_fail_test: np.ndarray  # (n_seg,) binary
    _scaler_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_pipes(self) -> int:
        return len(self.pipe_ids)

    @property
    def n_segments(self) -> int:
        return len(self.segment_ids)

    def pipe_ages(self, year: int) -> np.ndarray:
        """Pipe age (years) in calendar ``year``, floored at 0."""
        return np.maximum(float(year) - self.pipe_laid_year, 0.0)

    @property
    def seg_laid_year(self) -> np.ndarray:
        """Laid year per segment (inherited from the owning pipe)."""
        return self.pipe_laid_year[self.seg_pipe_idx]

    def clustering_features(self) -> np.ndarray:
        """Segment features for adaptive grouping: Table 18.2 plus laid date.

        Laid date is a Table 18.2 feature but is kept out of ``X_seg`` (the
        dynamic models consume it as per-year age); grouping, however, is
        static, so it is appended here twice: as a standardised continuous
        column and as an installation-era one-hot block (the domain
        knowledge that manufacturing/jointing practice changed in discrete
        eras — giving era boundaries the same separating power in the
        cluster space as material boundaries).
        """
        from ..data.generator import era_bucket

        laid = self.seg_laid_year.astype(float)
        std = laid.std()
        laid_z = (laid - laid.mean()) / (std if std > 1e-12 else 1.0)
        eras = era_bucket(laid)
        era_onehot = np.zeros((len(laid), 5))
        era_onehot[np.arange(len(laid)), eras] = 1.0
        # Segment location (standardised): pipe locations are part of the
        # network data, and spatial proximity proxies every *unmeasured*
        # environmental factor (water table, bedding practice of the crew
        # that worked the area). Only the grouping sees coordinates — the
        # regression features (Table 18.2) do not, matching the paper.
        xy = self.seg_midpoints.astype(float)
        xy_z = (xy - xy.mean(axis=0)) / np.maximum(xy.std(axis=0), 1e-12)
        # Scale era indicators to a ~2-unit between-class gap, matching the
        # standardised one-hot blocks in X_seg.
        return np.hstack([self.X_seg, laid_z[:, None], 2.0 * era_onehot, 1.5 * xy_z])

    def validation_split(self) -> "ModelData":
        """Internal-validation view: last training year becomes the test year.

        Used to select model variants (e.g. the HBP grouping) without ever
        touching real test labels. The returned object shares the feature
        matrices; only the year bookkeeping and failure splits change.
        """
        from dataclasses import replace

        if len(self.train_years) < 2:
            raise ValueError("need at least two training years to split")
        return replace(
            self,
            train_years=self.train_years[:-1],
            test_year=self.train_years[-1],
            seg_fail_train=self.seg_fail_train[:, :-1],
            pipe_fail_train=self.pipe_fail_train[:, :-1],
            pipe_fail_test=self.pipe_fail_train[:, -1].astype(float),
            seg_fail_test=self.seg_fail_train[:, -1].astype(float),
        )

    def survival_pipe_probability(self, seg_probs: np.ndarray) -> np.ndarray:
        """Pipe failure probability from segment probabilities.

        The DPMHBP composition rule: ``π_i = 1 − Π_{l∈pipe i}(1 − ρ_l)``
        (a series system fails when any segment fails).
        """
        seg_probs = np.clip(np.asarray(seg_probs, dtype=float), 0.0, 1.0 - 1e-12)
        log_surv = np.zeros(self.n_pipes)
        np.add.at(log_surv, self.seg_pipe_idx, np.log1p(-seg_probs))
        return 1.0 - np.exp(log_surv)


def _modal(values: list[str]) -> str:
    return Counter(values).most_common(1)[0][0]


def build_model_data(dataset: PipeDataset, config: FeatureConfig | None = None) -> ModelData:
    """Assemble the canonical feature matrices and failure splits."""
    config = config or FeatureConfig()
    net = dataset.network
    env = dataset.environment
    pipes = net.pipes()
    segments = net.segments()
    pipe_ids = [p.pipe_id for p in pipes]
    segment_ids = [s.segment_id for s in segments]
    pipe_row = {pid: i for i, pid in enumerate(pipe_ids)}
    seg_pipe_idx = np.asarray([pipe_row[s.pipe_id] for s in segments], dtype=np.int64)

    midpoints = np.asarray([s.midpoint for s in segments], dtype=float)
    seg_lengths = np.asarray([s.length for s in segments])
    pipe_lengths = np.asarray([p.length for p in pipes])
    pipe_laid = np.asarray([p.laid_year for p in pipes], dtype=float)

    # Pre-group segment row indices by pipe (stable sort → O(n log n) once).
    order = np.argsort(seg_pipe_idx, kind="stable")
    group_counts = np.bincount(seg_pipe_idx, minlength=len(pipes))
    group_bounds = np.concatenate([[0], np.cumsum(group_counts)])
    pipe_seg_rows = [
        order[group_bounds[i] : group_bounds[i + 1]] for i in range(len(pipes))
    ]

    blocks_seg: list[np.ndarray] = []
    blocks_pipe: list[np.ndarray] = []
    names: list[str] = []

    def add_categorical(name: str, seg_values: list[str]) -> None:
        encoder = OneHotEncoder().fit(seg_values)
        blocks_seg.append(encoder.transform(seg_values))
        pipe_values = [
            _modal([seg_values[j] for j in rows]) for rows in pipe_seg_rows
        ]
        blocks_pipe.append(encoder.transform(pipe_values))
        names.extend(encoder.feature_names(name))

    def add_continuous(name: str, seg_values: np.ndarray, pipe_values: np.ndarray) -> None:
        scaler = StandardScaler().fit(np.concatenate([seg_values, pipe_values])[:, None])
        blocks_seg.append(scaler.transform(seg_values[:, None]))
        blocks_pipe.append(scaler.transform(pipe_values[:, None]))
        names.append(name)

    if config.include_attributes:
        seg_material = [net.pipe(s.pipe_id).material.name for s in segments]
        seg_coating = [net.pipe(s.pipe_id).coating.name for s in segments]
        add_categorical("material", seg_material)
        add_categorical("coating", seg_coating)

    if config.include_dimensions:
        seg_diam = np.asarray([net.pipe(s.pipe_id).diameter_mm for s in segments])
        pipe_diam = np.asarray([p.diameter_mm for p in pipes])
        add_continuous("diameter_mm", seg_diam, pipe_diam)
        add_continuous(
            "log_length_m", np.log(np.maximum(seg_lengths, 1.0)), np.log(np.maximum(pipe_lengths, 1.0))
        )

    if config.include_soil:
        soil_values = env.soil.sample(midpoints)
        for layer_name, values in soil_values.items():
            add_categorical(layer_name, values)

    if config.include_traffic:
        dist = env.traffic.distance_to_nearest(midpoints)
        pipe_dist = np.full(len(pipes), np.inf)
        np.minimum.at(pipe_dist, seg_pipe_idx, dist)
        add_continuous("dist_to_intersection_m", dist, pipe_dist)

    if config.include_vegetation:
        if env.canopy is None or env.moisture is None:
            raise ValueError("dataset has no vegetation layers; use a waste-water dataset")
        cover = env.canopy.coverage_at(midpoints)
        wet = env.moisture.moisture_at(midpoints)
        cover_pipe = np.zeros(len(pipes))
        wet_pipe = np.zeros(len(pipes))
        counts = np.bincount(seg_pipe_idx, minlength=len(pipes)).astype(float)
        np.add.at(cover_pipe, seg_pipe_idx, cover)
        np.add.at(wet_pipe, seg_pipe_idx, wet)
        add_continuous("tree_canopy_cover", cover, cover_pipe / np.maximum(counts, 1))
        add_continuous("soil_moisture", wet, wet_pipe / np.maximum(counts, 1))

    if config.n_noise_decoys:
        decoy_rng = np.random.default_rng(config.decoy_seed)
        for k in range(config.n_noise_decoys):
            seg_noise = decoy_rng.standard_normal(len(segments))
            pipe_noise = np.zeros(len(pipes))
            counts = np.bincount(seg_pipe_idx, minlength=len(pipes)).astype(float)
            np.add.at(pipe_noise, seg_pipe_idx, seg_noise)
            add_continuous(f"decoy_{k}", seg_noise, pipe_noise / np.maximum(counts, 1))

    if not blocks_seg:
        raise ValueError("feature config selected no features")
    X_seg = np.hstack(blocks_seg)
    X_pipe = np.hstack(blocks_pipe)

    train_years = dataset.train_years
    seg_fail = dataset.segment_failure_matrix()
    pipe_fail = dataset.pipe_failure_matrix()
    year_cols = {y: j for j, y in enumerate(dataset.years)}
    train_cols = [year_cols[y] for y in train_years]
    test_col = year_cols[dataset.test_year]

    return ModelData(
        region=net.region,
        pipe_ids=pipe_ids,
        segment_ids=segment_ids,
        seg_pipe_idx=seg_pipe_idx,
        X_pipe=X_pipe,
        X_seg=X_seg,
        feature_names=names,
        pipe_lengths=pipe_lengths,
        seg_lengths=seg_lengths,
        pipe_laid_year=pipe_laid,
        pipe_material=[p.material.name for p in pipes],
        pipe_diameter=np.asarray([p.diameter_mm for p in pipes]),
        seg_midpoints=midpoints,
        train_years=train_years,
        test_year=dataset.test_year,
        seg_fail_train=seg_fail[:, train_cols],
        pipe_fail_train=pipe_fail[:, train_cols],
        pipe_fail_test=pipe_fail[:, test_col].astype(float),
        seg_fail_test=seg_fail[:, test_col].astype(float),
    )
