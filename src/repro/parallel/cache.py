"""Seed-keyed memoization of region generation and feature assembly.

``load_region`` already memoises the raw dataset per (region, scale,
seed); the expensive step on top of it — ``build_model_data``'s feature
assembly over every segment — was recomputed on every call. Repeated
evaluations (the t-test protocol fits six models on the *same* generated
region instance) and successive CLI invocations in one process pay that
cost once through this cache.

The cache is process-local and LRU-bounded. Entries are keyed by
everything that determines the output bit-for-bit: region name, scale,
seed, pipe-class subset and the full :class:`FeatureConfig` (its fields
are bools and ints, so ``astuple`` is hashable). Callers must treat the
returned :class:`ModelData` as read-only — and the cache *enforces* it:
every array is marked non-writeable on insertion, so a model mutating a
feature matrix in place raises ``ValueError`` instead of silently
corrupting every sibling's cache hit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import astuple, fields
from threading import Lock

import numpy as np

from .. import telemetry
from ..data.datasets import load_region
from ..features.builder import FeatureConfig, ModelData, build_model_data
from ..network.pipe import PipeClass

#: Generated regions are a few MB each at default scale; keep a handful.
_MAX_ENTRIES = 8

_cache: OrderedDict[tuple, ModelData] = OrderedDict()
_lock = Lock()


def _key(
    region: str,
    scale: float | None,
    seed: int | None,
    pipe_class: PipeClass | None,
    feature_config: FeatureConfig | None,
) -> tuple:
    return (
        region.upper(),
        scale,
        seed,
        pipe_class.name if pipe_class is not None else None,
        astuple(feature_config) if feature_config is not None else None,
    )


def _freeze(data: ModelData) -> ModelData:
    """Mark every array field of ``data`` non-writeable (in place).

    The read-only contract of the cache, enforced: a cached
    :class:`ModelData` is shared by every model and repeat that hits the
    same key, so an in-place mutation would corrupt all of them at once.
    With the flag cleared, NumPy raises on the write instead.
    """
    for field in fields(data):
        value = getattr(data, field.name)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return data


def cached_model_data(
    region: str,
    scale: float | None = None,
    seed: int | None = None,
    pipe_class: PipeClass | None = PipeClass.CWM,
    feature_config: FeatureConfig | None = None,
) -> ModelData:
    """Generate (or fetch) the canonical :class:`ModelData` for one region."""
    key = _key(region, scale, seed, pipe_class, feature_config)
    with _lock:
        if key in _cache:
            _cache.move_to_end(key)
            telemetry.count("cache.hit")
            return _cache[key]
    telemetry.count("cache.miss")
    with telemetry.span("cache.build", region=region, scale=scale, seed=seed):
        dataset = load_region(region, scale=scale, seed=seed)
        if pipe_class is not None:
            dataset = dataset.subset(pipe_class)
        data = _freeze(build_model_data(dataset, feature_config))
    with _lock:
        _cache[key] = data
        _cache.move_to_end(key)
        while len(_cache) > _MAX_ENTRIES:
            _cache.popitem(last=False)
    return data


def clear_model_data_cache() -> None:
    """Drop every cached region (tests; long-running servers on reconfigure)."""
    with _lock:
        _cache.clear()
