"""Parallel execution layer: executors, the shm bundle plane, the region cache.

Everything in the repo that fans independent units of work — MCMC chains
in :class:`~repro.core.dpmhbp.DPMHBPModel`, the (region, repeat) cells of
:func:`~repro.eval.experiment.run_comparison` — goes through the
:func:`parallel_map` abstraction here, so one config (or the
``REPRO_JOBS``/``REPRO_EXECUTOR`` environment variables) switches the
whole pipeline between serial and multi-process execution.

The processes backend builds one context-managed pool per map. Array
bundles can travel through :mod:`repro.parallel.shm` (published once,
resolved as read-only views) instead of one pickle per task.

Every unit of work derives its own RNG seed, so results are bit-identical
across backends — parallelism changes wall-clock, never numbers.
"""

from .cache import cached_model_data, clear_model_data_cache
from .executor import (
    ExecutorConfig,
    WorkError,
    WorkResult,
    parallel_map,
    resolve_executor,
    safe_parallel_map,
)
from .shm import (
    BundleHandle,
    active_segments,
    publish_bundle,
    release,
    resolve_bundle,
    retain,
    unlink_all,
)

__all__ = [
    "BundleHandle",
    "ExecutorConfig",
    "WorkError",
    "WorkResult",
    "active_segments",
    "cached_model_data",
    "clear_model_data_cache",
    "parallel_map",
    "publish_bundle",
    "release",
    "resolve_bundle",
    "resolve_executor",
    "retain",
    "safe_parallel_map",
    "unlink_all",
]
