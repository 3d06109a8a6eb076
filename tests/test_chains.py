"""Unit tests for MCMC trace storage."""

import numpy as np
import pytest

from repro.inference.chains import Trace


class TestTrace:
    def test_record_and_get(self):
        t = Trace()
        for i in range(5):
            t.record(x=float(i), v=np.array([i, i + 1]))
        assert len(t) == 5
        assert t.get("x").tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert t.get("v").shape == (5, 2)

    def test_burn_in_and_thin(self):
        t = Trace()
        for i in range(10):
            t.record(x=float(i))
        assert t.get("x", burn_in=4).tolist() == [4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        assert t.get("x", burn_in=0, thin=3).tolist() == [0.0, 3.0, 6.0, 9.0]

    def test_mean_scalar_and_vector(self):
        t = Trace()
        t.record(x=1.0, v=np.array([0.0, 2.0]))
        t.record(x=3.0, v=np.array([2.0, 4.0]))
        assert t.mean("x") == pytest.approx(2.0)
        assert t.mean("v").tolist() == [1.0, 3.0]

    def test_quantile(self):
        t = Trace()
        for i in range(101):
            t.record(x=float(i))
        assert t.quantile("x", 0.5) == pytest.approx(50.0)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            Trace().get("missing")

    def test_invalid_params(self):
        t = Trace()
        t.record(x=1.0)
        with pytest.raises(ValueError):
            t.get("x", burn_in=-1)
        with pytest.raises(ValueError):
            t.get("x", thin=0)

    def test_mean_after_total_burn_raises(self):
        t = Trace()
        t.record(x=1.0)
        with pytest.raises(ValueError):
            t.mean("x", burn_in=5)

    def test_names_and_contains(self):
        t = Trace()
        t.record(a=1.0, b=2.0)
        assert set(t.names()) == {"a", "b"}
        assert "a" in t and "c" not in t

    def test_empty_len(self):
        assert len(Trace()) == 0
