"""Synthetic metropolitan pipe-network generator.

Builds a region's drinking-water network on a jittered street grid:
pipes run along streets, each pipe is split into serially connected
segments of roughly constant length (the DPMHBP modelling unit), and
attributes follow era-realistic material/coating/diameter mixes. Counts,
CWM share and laid-year ranges are driven by a :class:`RegionSpec`
calibrated to the paper's Table 18.1.
"""

from __future__ import annotations

import numpy as np

from ..network.geometry import BoundingBox, Point
from ..network.network import PipeNetwork
from ..network.pipe import Coating, Material, Pipe, PipeSegment
from .regions import RegionSpec

#: Diameter (mm) choices and probabilities per class.
_CWM_DIAMETERS = np.array([300.0, 375.0, 450.0, 500.0, 600.0, 750.0])
_CWM_DIAMETER_P = np.array([0.35, 0.25, 0.15, 0.12, 0.08, 0.05])
_RWM_DIAMETERS = np.array([100.0, 150.0, 200.0, 250.0])
_RWM_DIAMETER_P = np.array([0.30, 0.40, 0.20, 0.10])

#: Era boundaries for the material mix.
_ERAS = np.array([1930, 1955, 1975, 1990])

#: Target segment lengths (m) per class; small per-pipe variance.
_SEGMENT_TARGET = {"CWM": 45.0, "RWM": 32.0}


def era_bucket(laid_year: int | np.ndarray) -> int | np.ndarray:
    """Installation-era index 0..4 (pre-1930 … post-1990).

    Scalar in, ``int`` out; an array of laid years gives an int64 array of
    eras from one ``searchsorted``. A boundary year joins the later era.
    """
    eras = np.searchsorted(_ERAS, laid_year, side="right")
    return int(eras) if np.ndim(eras) == 0 else eras


def _material_mix(era: int, is_cwm: bool) -> tuple[list[Material], list[float]]:
    """Era- and class-appropriate material distribution."""
    if era == 0:
        return [Material.CI, Material.CICL], [0.7, 0.3]
    if era == 1:
        return [Material.CICL, Material.CI, Material.STEEL], [0.6, 0.3, 0.1]
    if era == 2:
        return (
            [Material.CICL, Material.AC, Material.STEEL, Material.DICL],
            [0.40, 0.40, 0.10, 0.10],
        )
    if era == 3:
        if is_cwm:
            return [Material.DICL, Material.STEEL, Material.AC, Material.CICL], [0.55, 0.20, 0.20, 0.05]
        return [Material.DICL, Material.AC, Material.PVC, Material.CICL], [0.40, 0.25, 0.30, 0.05]
    if is_cwm:
        return [Material.DICL, Material.STEEL, Material.CICL], [0.65, 0.25, 0.10]
    return [Material.PVC, Material.DICL, Material.PE], [0.50, 0.35, 0.15]


def _coating_for(material: Material, laid_year: int, rng: np.random.Generator) -> Coating:
    """Coating practice by material and era."""
    if material in (Material.CI, Material.CICL):
        return Coating.TAR if laid_year < 1960 else Coating.NONE
    if material is Material.DICL:
        return Coating.POLYETHYLENE_SLEEVE if rng.random() < 0.7 else Coating.ZINC
    if material is Material.STEEL:
        return Coating.EPOXY if laid_year >= 1960 else Coating.TAR
    return Coating.NONE  # PVC / PE / AC are laid uncoated


def _sample_laid_years(spec: RegionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Laid years as a mixture of uniform backfill and two expansion booms."""
    lo, hi = spec.laid_year_lo, spec.laid_year_hi
    span = hi - lo
    component = rng.choice(3, size=n, p=[0.30, 0.35, 0.35])
    years = np.empty(n)
    uniform = component == 0
    early = component == 1
    late = component == 2
    years[uniform] = rng.uniform(lo, hi, uniform.sum())
    years[early] = lo + span * rng.beta(2.0, 5.0, early.sum())
    years[late] = lo + span * rng.beta(5.0, 2.0, late.sum())
    return np.clip(np.round(years), lo, hi).astype(int)


def generate_network(spec: RegionSpec, rng: np.random.Generator) -> PipeNetwork:
    """Generate one region's network to the spec's counts and eras."""
    side = spec.side_m
    block = spec.block_size_m
    bbox = BoundingBox(0.0, 0.0, side, side)
    network = PipeNetwork(region=spec.name)

    n_cwm, n_rwm = spec.n_cwm, spec.n_rwm
    is_cwm = np.concatenate([np.ones(n_cwm, bool), np.zeros(n_rwm, bool)])
    n = n_cwm + n_rwm

    lengths = np.where(
        is_cwm,
        np.clip(rng.lognormal(np.log(320.0), 0.55, n), 60.0, 1500.0),
        np.clip(rng.lognormal(np.log(120.0), 0.50, n), 20.0, 600.0),
    )
    diameters = np.where(
        is_cwm,
        rng.choice(_CWM_DIAMETERS, size=n, p=_CWM_DIAMETER_P),
        rng.choice(_RWM_DIAMETERS, size=n, p=_RWM_DIAMETER_P),
    )
    laid_years = _sample_laid_years(spec, n, rng)
    horizontal = rng.random(n) < 0.5
    n_streets = max(2, int(side // block))
    street_idx = rng.integers(0, n_streets + 1, size=n)
    start_along = rng.uniform(0.0, np.maximum(side - lengths, 1.0))
    # Small lateral offset: mains sit under the road edge, not its centre.
    lateral = street_idx * block + rng.normal(0.0, 3.0, n)

    for i in range(n):
        pipe_id = f"{spec.name}-P{i:05d}"
        length = float(lengths[i])
        if horizontal[i]:
            start: Point = (float(start_along[i]), float(lateral[i]))
            end: Point = (float(start_along[i] + length), float(lateral[i]))
        else:
            start = (float(lateral[i]), float(start_along[i]))
            end = (float(lateral[i]), float(start_along[i] + length))
        target = _SEGMENT_TARGET["CWM" if is_cwm[i] else "RWM"]
        n_segments = max(1, int(round(length / target)))
        dx = (end[0] - start[0]) / n_segments
        dy = (end[1] - start[1]) / n_segments
        segments = [
            PipeSegment(
                segment_id=f"{pipe_id}/s{k}",
                pipe_id=pipe_id,
                start=(start[0] + k * dx, start[1] + k * dy),
                end=(start[0] + (k + 1) * dx, start[1] + (k + 1) * dy),
            )
            for k in range(n_segments)
        ]
        era = era_bucket(int(laid_years[i]))
        materials, probs = _material_mix(era, bool(is_cwm[i]))
        material = materials[int(rng.choice(len(materials), p=np.asarray(probs) / np.sum(probs)))]
        pipe = Pipe(
            pipe_id=pipe_id,
            material=material,
            coating=_coating_for(material, int(laid_years[i]), rng),
            diameter_mm=float(diameters[i]),
            laid_year=int(laid_years[i]),
            segments=segments,
        )
        network.add_pipe(pipe)

    # Sanity: the bbox used downstream must cover the network.
    net_box = network.bounding_box()
    if net_box.width > side * 1.5 or net_box.height > side * 1.5:
        raise AssertionError("generated network escaped its modelling domain")
    _ = bbox  # documented domain; environment layers derive their own bbox
    return network
