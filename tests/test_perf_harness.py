"""Unit tests for the ``python -m repro.perf smoke`` CI perf check."""

from repro.perf import main as perf_main


class TestCli:
    def test_smoke_passes(self):
        assert perf_main(["smoke"]) == 0

    def test_smoke_ceiling_breach(self):
        assert perf_main(["smoke", "--ceiling", "1e-9"]) == 1
