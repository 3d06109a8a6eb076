"""Lifetime tests for the shared-memory data plane.

The contract under test: every segment this process publishes is gone —
from the owner registry *and* from ``/dev/shm`` — after the normal
release path, after a worker raises mid-map, and after a worker is
killed hard enough to break the pool. A leaked segment survives process
exit on Linux, so these are the tests that keep long CI runs from
filling the shm tmpfs.
"""

import os
import signal

import numpy as np
import pytest

from repro.core.dpmhbp import DPMHBPModel
from repro.parallel import (
    ExecutorConfig,
    active_segments,
    parallel_map,
    publish_bundle,
    release,
    resolve_bundle,
    retain,
)
from repro.parallel.shm import SEGMENT_PREFIX

PROCS = ExecutorConfig(mode="processes", jobs=2)
SERIAL = ExecutorConfig()


def _dev_shm_entries() -> list[str]:
    """Segments owned by *this* process still visible in the shm filesystem."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover — non-Linux
        pytest.skip("/dev/shm not available")
    mine = f"{SEGMENT_PREFIX}_{os.getpid()}_"
    return sorted(name for name in os.listdir("/dev/shm") if name.startswith(mine))


def _arrays() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    return {
        "failures": (rng.random((50, 11)) < 0.1).astype(np.int8),
        "features": rng.standard_normal((50, 4)),
        "empty": np.zeros((0, 3)),
    }


def _sum_field(task):
    """Module-level pool worker: resolve the bundle, reduce one field."""
    handle, i = task
    arrays = resolve_bundle(handle)
    return float(arrays["features"][i % arrays["features"].shape[0]].sum())


def _raise_on_odd(task):
    handle, i = task
    if i % 2:
        raise ValueError(f"item {i} is odd")
    return _sum_field(task)


def _kill_self(task):  # pragma: no cover — runs (and dies) in a worker
    os.kill(os.getpid(), signal.SIGKILL)


class TestBundleLifetime:
    def test_publish_resolve_release_roundtrip(self):
        arrays = _arrays()
        handle = publish_bundle(arrays, config=PROCS)
        assert not handle.is_local
        assert handle.segment in active_segments()
        assert _dev_shm_entries() == [handle.segment]
        views = resolve_bundle(handle)
        for name, src in arrays.items():
            assert np.array_equal(views[name], src)
            assert views[name].dtype == src.dtype
            assert not views[name].flags.writeable
        release(handle)
        assert active_segments() == []
        assert _dev_shm_entries() == []

    def test_shared_views_reject_mutation(self):
        handle = publish_bundle(_arrays(), config=PROCS)
        try:
            views = resolve_bundle(handle)
            with pytest.raises(ValueError, match="read-only"):
                views["features"][0, 0] = 99.0
        finally:
            release(handle)

    def test_serial_config_degrades_to_references(self):
        arrays = _arrays()
        handle = publish_bundle(arrays, config=SERIAL)
        assert handle.is_local
        assert _dev_shm_entries() == []
        views = resolve_bundle(handle)
        for name in arrays:
            assert views[name] is arrays[name]  # by reference, zero copies
        release(handle)
        with pytest.raises(KeyError):
            resolve_bundle(handle)

    def test_payload_rides_the_handle(self):
        handle = publish_bundle(
            _arrays(), payload={"region": "A", "years": (1996, 2006)}, config=PROCS
        )
        try:
            assert handle.payload == {"region": "A", "years": (1996, 2006)}
        finally:
            release(handle)

    def test_refcount_survives_one_release(self):
        handle = publish_bundle(_arrays(), config=PROCS)
        retain(handle)
        release(handle)
        assert handle.segment in active_segments()  # still one reference
        release(handle)
        assert active_segments() == []
        assert _dev_shm_entries() == []

    def test_release_is_idempotent(self):
        handle = publish_bundle(_arrays(), config=PROCS)
        release(handle)
        release(handle)  # second release of a gone segment must not raise
        assert _dev_shm_entries() == []


class TestFanOutLifetime:
    def test_map_then_release_leaves_nothing(self):
        handle = publish_bundle(_arrays(), config=PROCS)
        try:
            results = parallel_map(_sum_field, [(handle, i) for i in range(6)], PROCS)
        finally:
            release(handle)
        assert len(results) == 6
        assert active_segments() == []
        assert _dev_shm_entries() == []

    def test_worker_exception_still_releases(self):
        handle = publish_bundle(_arrays(), config=PROCS)
        with pytest.raises(ValueError, match="odd"):
            try:
                parallel_map(_raise_on_odd, [(handle, i) for i in range(4)], PROCS)
            finally:
                release(handle)
        assert active_segments() == []
        assert _dev_shm_entries() == []

    def test_killed_worker_breaks_pool_but_leaks_nothing(self):
        from concurrent.futures.process import BrokenProcessPool

        handle = publish_bundle(_arrays(), config=PROCS)
        # Two items: a single-item map short-circuits to the in-process
        # serial path, which would kill the test process itself.
        with pytest.raises(BrokenProcessPool):
            try:
                parallel_map(_kill_self, [(handle, 0), (handle, 1)], PROCS)
            finally:
                release(handle)
        # The broken pool died with its map: the next map gets a fresh one.
        fresh = publish_bundle(_arrays(), config=PROCS)
        try:
            results = parallel_map(_sum_field, [(fresh, i) for i in range(3)], PROCS)
        finally:
            release(fresh)
        assert len(results) == 3
        assert active_segments() == []
        assert _dev_shm_entries() == []


class TestChainFanOut:
    def test_processes_fit_leaves_no_segments(self, small_model_data):
        model = DPMHBPModel(
            n_sweeps=4, burn_in=1, seed=0, n_chains=2, jobs=2, executor="processes"
        )
        model.fit(small_model_data)
        assert active_segments() == []
        assert _dev_shm_entries() == []
