"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_summary_defaults(self):
        args = build_parser().parse_args(["summary"])
        assert args.regions == ["A", "B", "C"]

    def test_compare_region_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--region", "Z"])

    def test_plan_budget(self):
        args = build_parser().parse_args(["plan", "--budget", "0.02"])
        assert args.budget == 0.02

    def test_jobs_and_executor_flags(self):
        args = build_parser().parse_args(["summary", "--jobs", "4", "--executor", "processes"])
        assert args.jobs == 4
        assert args.executor == "processes"
        # Unset by default so env/serial resolution applies downstream.
        defaults = build_parser().parse_args(["summary"])
        assert defaults.jobs is None and defaults.executor is None
        with pytest.raises(SystemExit) as exc:
            main(["summary", "--executor", "threads"])
        assert exc.value.code == 2

    def test_executor_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["summary", "--executor", "gpu"])

    def test_parent_flags_shared_by_every_subcommand(self):
        """The parent parser declares the common flags once for all commands."""
        for command in ("summary", "compare", "grid", "riskmap", "plan"):
            args = build_parser().parse_args([command, "--jobs", "2", "--scale", "0.1"])
            assert args.jobs == 2 and args.scale == 0.1
            assert args.on_error == "raise"  # run-control flags ride along too

    def test_grid_run_control_flags(self):
        args = build_parser().parse_args(
            [
                "grid",
                "--regions", "A", "B",
                "--repeats", "4",
                "--run-dir", "runs/exp1",
                "--on-error", "retry",
                "--retries", "1",
            ]
        )
        assert args.regions == ["A", "B"]
        assert args.repeats == 4
        assert str(args.run_dir) == "runs/exp1"
        assert args.on_error == "retry"
        assert args.retries == 1
        assert not hasattr(args, "cell_timeout")

    def test_grid_on_error_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["grid", "--on-error", "explode"])

    def test_grid_rejects_run_dir_plus_resume(self, tmp_path):
        from repro.cli import main

        code = main(
            ["grid", "--run-dir", str(tmp_path / "a"), "--resume", str(tmp_path / "b")]
        )
        assert code == 2


class TestCommands:
    def test_summary_runs(self, capsys):
        assert main(["summary", "--regions", "A", "--scale", "0.03", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Region A" in out and "CWM" in out

    def test_riskmap_runs(self, tmp_path, capsys):
        out_file = tmp_path / "m.svg"
        code = main(
            [
                "riskmap",
                "--region",
                "A",
                "--scale",
                "0.05",
                "--seed",
                "9",
                "--sweeps",
                "6",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        assert out_file.exists()

    def test_plan_runs(self, capsys):
        code = main(
            ["plan", "--region", "A", "--scale", "0.05", "--seed", "9", "--sweeps", "6", "--budget", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "net savings" in out


class TestGridCellFailures:
    """``repro grid`` under ``--on-error skip`` when cells keep failing."""

    @staticmethod
    def _grid(run_dir, *extra):
        # Serial, so the injected fault reaches every cell.
        return main(
            ["grid", "--regions", "A", "--repeats", "2", "--scale", "0.05", "--seed", "9",
             "--executor", "serial", "--on-error", "skip", "--run-dir", str(run_dir), *extra]
        )

    def test_run_whose_cells_all_failed_reads_finished(self, tmp_path, monkeypatch, capsys):
        from ._faults import FaultInjector, FaultSpec, inject

        plan = {cell: FaultSpec(times=99) for cell in ("A-r000", "A-r001")}
        inject(monkeypatch, FaultInjector(state_dir=str(tmp_path / "faults"), plan=plan))
        run_dir = tmp_path / "run"
        with pytest.warns(UserWarning, match="every cell failed"):
            assert self._grid(run_dir) == 1
        captured = capsys.readouterr()
        assert "2 cell(s) failed and were skipped: A-r000, A-r001" in captured.err
        assert "Traceback" not in captured.err
        assert main(["status", str(run_dir)]) == 1
        out = capsys.readouterr().out
        assert "[finished]" in out and "[in flight]" not in out
        assert "0/2 done, 2 failed" in out

    def test_region_with_one_completed_cell_skips_its_t_test(
        self, tmp_path, monkeypatch, capsys
    ):
        from ._faults import FaultInjector, FaultSpec, inject

        plan = {"A-r001": FaultSpec(times=99)}
        inject(monkeypatch, FaultInjector(state_dir=str(tmp_path / "faults"), plan=plan))
        with pytest.warns(UserWarning, match="A-r001"):
            assert self._grid(tmp_path / "run") == 0
        captured = capsys.readouterr()
        assert "A:DPMHBP" in captured.out  # Table 18.3 of the one completed cell
        assert "vs HBP" not in captured.out  # no Table 18.4 rows to pair
        assert "Table 18.4 omits region(s) A: fewer than two completed cells" in captured.out
        assert "1 cell(s) failed and were skipped: A-r001" in captured.err
