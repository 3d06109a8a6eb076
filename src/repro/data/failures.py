"""Ground-truth failure simulator for drinking-water networks.

The simulator generates per-segment-per-year failure events from a latent
hazard engineered to reproduce the statistical properties the paper's
comparison hinges on:

* **extreme sparsity** — totals are calibrated (by bisection on a global
  multiplier, separately for CWM and RWM) to Table 18.1's counts, so most
  segments never fail in the observation window;
* **multi-modality** — failure behaviour clusters by latent *cohorts*
  (material × installation-era batch quality plus a hidden spatially
  banded installation-quality factor), which no single fixed grouping
  fully captures: this is what the DP mixture's adaptive grouping exploits;
* **feature interactions** — ferrous materials corrode only in corrosive
  soil, brittle materials (AC, CI) crack in expansive clay, traffic
  loading decays with distance to the nearest intersection: linear
  one-hot models (Cox/Weibull/SVM) can only partially express these;
* **persistent per-pipe frailty** — a gamma frailty shared across a pipe's
  segments and years makes past failures informative about future ones.

Models never see the latent cohort ids, the batch multipliers or the
frailties — only Table 18.2's observable features and failure histories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gis.soil import SoilLayers, corrosiveness_severity, expansiveness_severity
from ..gis.traffic import TrafficNetwork
from ..network.network import PipeNetwork
from ..network.pipe import FERROUS_MATERIALS, Material, PipeClass
from .generator import era_bucket
from .regions import OBSERVATION_YEARS, RegionSpec
from .schema import FailureRecord

#: Baseline propensity by material (relative; absolute level is calibrated).
#: Deliberately modest spread: on real networks the *vintage batch*
#: (material × era interaction, below) matters more than the material main
#: effect, which is why models limited to main effects underperform.
_MATERIAL_BASE = {
    Material.CI: 1.7,
    Material.CICL: 1.35,
    Material.AC: 1.3,
    Material.STEEL: 1.0,
    Material.DICL: 0.8,
    Material.PVC: 0.65,
    Material.PE: 0.6,
    Material.VC: 1.5,
    Material.CONC: 1.0,
}

#: Ageing exponent by material: AC embrittles fast, plastics barely age.
_MATERIAL_AGEING = {
    Material.CI: 1.3,
    Material.CICL: 1.2,
    Material.AC: 1.8,
    Material.STEEL: 1.1,
    Material.DICL: 1.0,
    Material.PVC: 0.7,
    Material.PE: 0.7,
    Material.VC: 1.4,
    Material.CONC: 1.1,
}

#: Materials whose failures are driven by soil expansiveness (brittle walls).
_BRITTLE_MATERIALS = frozenset({Material.AC, Material.CI, Material.VC, Material.CONC})


@dataclass
class GroundTruth:
    """Latent quantities behind one region's simulated failures.

    Exposed for tests and ablation benchmarks only — the prediction models
    must never read anything from this object.
    """

    segment_ids: list[str]
    pipe_ids: list[str]  # owning pipe per segment
    hazard: np.ndarray  # (n_segments, n_years) expected failures
    failure_probability: np.ndarray  # (n_segments, n_years) = 1 - exp(-hazard)
    cohort: np.ndarray  # (n_segments,) latent cohort id
    frailty: np.ndarray  # (n_segments,) pipe-level gamma frailty
    years: tuple[int, ...]
    multiplier_cwm: float
    multiplier_rwm: float


def _hidden_quality_band(midpoints: np.ndarray, side: float, rng: np.random.Generator) -> np.ndarray:
    """Hidden installation-quality multiplier in spatial bands.

    Construction crews worked the region in swathes; some laid poor beds.
    Returns a multiplier per segment in {0.45, 1.0, 2.6} (drawn per band
    with probabilities 0.3, 0.45, 0.25), constant within diagonal spatial
    bands — observable to no model, discoverable only through failure
    history.
    """
    n_bands = 6
    band = ((midpoints[:, 0] + midpoints[:, 1]) / (2.0 * side) * n_bands).astype(int) % n_bands
    band_quality = rng.choice(np.array([0.45, 1.0, 2.6]), size=n_bands, p=[0.3, 0.45, 0.25])
    return band_quality[band]


def _calibrate_multiplier(unit_hazard: np.ndarray, target: float) -> float:
    """Bisection for ``B`` s.t. ``Σ (1 − exp(−B·h)) = target`` (expected count)."""
    total = float(unit_hazard.sum())
    if total <= 0 or target <= 0:
        return 0.0
    lo, hi = 0.0, 1.0
    while float(np.sum(1.0 - np.exp(-hi * unit_hazard))) < target:
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError("calibration diverged; check hazard construction")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(np.sum(1.0 - np.exp(-mid * unit_hazard))) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def build_ground_truth(
    network: PipeNetwork,
    soil: SoilLayers,
    traffic: TrafficNetwork,
    spec: RegionSpec,
    rng: np.random.Generator,
    years: tuple[int, ...] = OBSERVATION_YEARS,
) -> GroundTruth:
    """Construct the latent hazard surface, calibrated to the spec's counts."""
    segments = network.segments()
    n_seg = len(segments)
    if n_seg == 0:
        raise ValueError("network has no segments")
    pipes = network.pipes()
    pipe_row = {p.pipe_id: i for i, p in enumerate(pipes)}

    seg_ids = [s.segment_id for s in segments]
    pipe_ids = [s.pipe_id for s in segments]
    seg_pipe = np.asarray([pipe_row[pid] for pid in pipe_ids], dtype=np.int64)
    midpoints = np.asarray([s.midpoint for s in segments])
    lengths = np.asarray([s.length for s in segments])
    # Pipe attributes are read once per pipe, then spread to segments.
    laid = np.asarray([p.laid_year for p in pipes], dtype=float)[seg_pipe]
    diam = np.asarray([p.diameter_mm for p in pipes])[seg_pipe]
    is_cwm = np.asarray([p.pipe_class is PipeClass.CWM for p in pipes])[seg_pipe]
    materials = [p.material for p in pipes]
    material_index = {m: i for i, m in enumerate(Material)}
    mat_idx = np.asarray([material_index[m] for m in materials])[seg_pipe]

    soil_values = soil.sample(midpoints)
    corr_sev = corrosiveness_severity(soil_values["soil_corrosiveness"])
    expa_sev = expansiveness_severity(soil_values["soil_expansiveness"])
    dist_int = traffic.distance_to_nearest(midpoints)

    base = np.asarray([_MATERIAL_BASE[m] for m in materials])[seg_pipe]
    ageing = np.asarray([_MATERIAL_AGEING[m] for m in materials])[seg_pipe]
    ferrous = np.asarray([m in FERROUS_MATERIALS for m in materials])[seg_pipe]
    brittle = np.asarray([m in _BRITTLE_MATERIALS for m in materials])[seg_pipe]

    # Latent cohorts: (material, era) batch quality — some vintages were bad.
    cohort = era_bucket(laid) * len(Material) + mat_idx
    # Large batch variance: some (material, vintage) combinations were simply
    # bad production runs. This is a material×era *interaction* — invisible
    # to models that only carry material and age main effects, discoverable
    # by grouping on the joint feature vector.
    batch_mult = np.exp(rng.normal(0.0, 1.1, size=int(cohort.max()) + 1))
    cohort_mult = batch_mult[cohort]

    hidden_mult = _hidden_quality_band(midpoints, spec.side_m, rng)

    # Two-level persistent frailty. Most persistence lives at the *segment*
    # level — failures recur at specific weak points (bad joints, poor
    # bedding), which is why the paper models segments — with a milder
    # shared pipe-level component. Shapes < 1 give the heavy right tail
    # that produces real networks' repeat-offender assets.
    segment_frailty = rng.gamma(0.55, 1.0 / 0.55, size=n_seg)
    pipe_component = rng.gamma(2.5, 1.0 / 2.5, size=len(pipes))
    frailty = segment_frailty * pipe_component[seg_pipe]

    # Static (year-independent) hazard factors.
    corrosion_f = np.where(ferrous, 1.0 + 3.5 * corr_sev, 1.0 + 0.2 * corr_sev)
    expansion_f = np.where(brittle, 1.0 + 2.5 * expa_sev, 1.0 + 0.3 * expa_sev)
    traffic_f = 1.0 + 1.3 * np.exp(-dist_int / 80.0)
    # Non-monotone diameter effect: a mid-size vulnerability band (a jointing
    # practice used for ~450–550 mm mains) on top of the usual thin-wall
    # decay — a shape no linear/multiplicative-in-diameter model can fit.
    diameter_f = (diam / 150.0) ** (-0.6) * (
        1.0 + 1.4 * np.exp(-((diam - 500.0) ** 2) / (2.0 * 90.0**2))
    )
    static = (
        base
        * cohort_mult
        * hidden_mult
        * corrosion_f
        * expansion_f
        * traffic_f
        * diameter_f
        * (lengths / 50.0)
        * frailty
    )

    # Year-dependent ageing: mild infant-mortality bump + power-law wear-out.
    # The age term is deliberately *flat-ish*: in real mains data the
    # installation vintage (cohort) explains far more than age itself once
    # cohorts are controlled for, which is the regime the paper's models
    # are designed for.
    hazard = np.empty((n_seg, len(years)))
    for j, year in enumerate(years):
        age = np.maximum(year - laid, 0.0)
        wear = 0.55 + (age / 45.0) ** ageing
        infant = 1.0 + 0.8 * np.exp(-age / 3.0)
        hazard[:, j] = static * wear * infant

    # Calibrate CWM and RWM levels separately to Table 18.1 totals.
    cwm_rows = np.repeat(is_cwm[:, None], len(years), axis=1)
    mult_cwm = _calibrate_multiplier(hazard[is_cwm].ravel(), spec.target_failures_cwm)
    mult_rwm = _calibrate_multiplier(hazard[~is_cwm].ravel(), spec.target_failures_rwm)
    hazard = np.where(cwm_rows, hazard * mult_cwm, hazard * mult_rwm)

    return GroundTruth(
        segment_ids=seg_ids,
        pipe_ids=pipe_ids,
        hazard=hazard,
        failure_probability=1.0 - np.exp(-hazard),
        cohort=cohort,
        frailty=frailty,
        years=tuple(int(y) for y in years),
        multiplier_cwm=mult_cwm,
        multiplier_rwm=mult_rwm,
    )


def simulate_failures(
    network: PipeNetwork, truth: GroundTruth, rng: np.random.Generator
) -> list[FailureRecord]:
    """Sample failure records from the ground truth.

    At most one failure per segment per year (the paper: "it is very rare
    for a segment to fail twice in a year" — the Bernoulli-process view),
    located at the failed segment's midpoint.
    """
    draws = rng.random(truth.failure_probability.shape)
    hit_seg, hit_year = np.nonzero(draws < truth.failure_probability)
    records: list[FailureRecord] = []
    for s_idx, y_idx in zip(hit_seg, hit_year):
        seg = network.segment(truth.segment_ids[s_idx])
        records.append(
            FailureRecord(
                year=truth.years[y_idx],
                pipe_id=truth.pipe_ids[s_idx],
                segment_id=seg.segment_id,
                location=seg.midpoint,
            )
        )
    records.sort()
    return records
