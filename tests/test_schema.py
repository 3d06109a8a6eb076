"""Unit tests for the failure record schema."""

import pytest

from repro.data.schema import FailureRecord


class TestFailureRecord:
    def test_ordering_by_year_first(self):
        a = FailureRecord(2001, "P2", "P2/s0", (0.0, 0.0))
        b = FailureRecord(2000, "P1", "P1/s0", (0.0, 0.0))
        assert sorted([a, b])[0] is b

    def test_implausible_year_rejected(self):
        with pytest.raises(ValueError):
            FailureRecord(1500, "P", "P/s0", (0.0, 0.0))

    def test_hashable_for_dedup(self):
        a = FailureRecord(2000, "P", "P/s0", (1.0, 2.0))
        b = FailureRecord(2000, "P", "P/s0", (1.0, 2.0))
        assert len({a, b}) == 1
