"""The end-to-end benchmark's trace hooks still resolve on this tree.

``gridbench/run.py --trace 1`` replaces every boundary listed in
``gridbench/tracing.py`` ``LAYERS`` with a timing shim and reads a few
attributes of the results through its counters. A deletion or rename of
any of them breaks the traced benchmark; these tests catch it in the
tier-1 suite. ``tracing.py`` is only read here, never patched into the
program.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core.dpmhbp import DPMHBPModel
from repro.parallel.shm import publish_bundle

TRACING = Path(__file__).resolve().parents[1] / "gridbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("gridbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTraceHooks:
    def test_every_layer_resolves(self, tracing):
        assert tracing.LAYERS
        for layer, modules, attr, _counter in tracing.LAYERS:
            owner_name, _, name = attr.rpartition(".")
            for module_name in modules:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
                assert callable(getattr(owner, name)), f"{layer}: {module_name}.{attr}"

    def test_segment_counter_reads_the_network(self, tracing, tiny_dataset):
        counts = tracing._segments((), tiny_dataset.network)
        assert counts == {"segments": tiny_dataset.network.n_segments}
        assert counts["segments"] > 0

    def test_dpmhbp_counter_reads_the_chain_posteriors(self, tracing, small_model_data):
        model = DPMHBPModel(n_sweeps=4, burn_in=1, n_chains=2, seed=0).fit(small_model_data)
        counts = tracing._dpmhbp((), model)
        assert counts["sweeps"] == 8
        assert 0.0 <= counts["accept_ratio"] <= 1.0

    def test_shm_counter_reads_the_bundle_handle(self, tracing):
        handle = publish_bundle({"x": np.zeros(3)})
        assert handle.is_local
        assert tracing._shm((), handle) == {"shm_bytes": 0}
