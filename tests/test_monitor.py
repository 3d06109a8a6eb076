"""Model-health monitoring: convergence verdicts and the doctor.

Pins the contracts of :mod:`repro.monitor`:

* the pass/warn/fail bands are the conventional constants;
* :class:`ChainHealth` turns per-sweep scalars into per-quantity
  ESS/Geweke/split-R̂ verdicts — healthy chains pass, divergent chains
  are flagged, a quantity stuck at one value warns, chains stuck at
  different values fail, and a series too short for any statistic stays
  "undiagnosable" without escalating or passing anything;
* a real two-chain DPMHBP fit produces finite R̂/ESS for the cluster
  count and the collapsed log-likelihood, and ``DPMHBPModel`` pools its
  chains into ``health_``;
* the run journal carries each fit's ``health_`` in its cell's completion
  marker next to (not among) the model's metrics, restores it on resume,
  and still reads markers whose reports carry a ``thresholds`` entry;
* ``repro doctor`` folds failures > per-cell chain health into exit
  codes 0/1/2 (no health report at all is a warning), with ``--json``
  round-tripping;
* ``repro status`` and ``repro doctor`` render one run report: the same
  cells, failures, retries and health, and a worst-verdict column per cell
  in status.
"""

import json
import shutil

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.dpmhbp import DPMHBP, DPMHBPModel
from repro.eval.experiment import (
    ModelEvaluation,
    RegionRun,
    prepare_region_data,
    run_comparison,
)
from repro.monitor import (
    ChainHealth,
    HealthReport,
    diagnose,
    format_status,
    run_report,
)
from repro.monitor import health as health_module
from repro.monitor.doctor import EXIT_CODES
from repro.runs import CellSpec, RunJournal


def _white_noise_chains(n_chains=2, n=400, seed=0):
    """Independent draws: every diagnostic should come out clean."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_chains, n))


def _divergent_chains(n=200, offset=50.0, seed=1):
    """Two chains around means ``offset`` apart: R̂ must blow up."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.standard_normal(n), rng.standard_normal(n) + offset])


class TestHealthThresholds:
    def test_defaults_are_the_conventional_bands(self):
        m = health_module
        assert (m.RHAT_WARN, m.RHAT_FAIL) == (1.1, 1.3)
        assert (m.ESS_WARN, m.ESS_FAIL) == (25.0, 10.0)
        assert (m.GEWEKE_WARN, m.GEWEKE_FAIL) == (2.5, 4.0)


class TestChainHealth:
    def test_healthy_chains_pass(self):
        health = ChainHealth()
        for chain in _white_noise_chains():
            health.ingest_chain({"theta": chain})
        report = health.report()
        assert report.verdict == "pass" and report.ok
        q = report.quantities["theta"]
        assert q.n_chains == 2 and q.n_samples == 400
        assert np.isfinite(q.rhat) and q.rhat < 1.1
        assert np.isfinite(q.ess) and q.ess > 25.0
        assert np.isfinite(q.geweke_z)
        assert q.verdict == "pass" and q.reasons == ()

    def test_divergent_chains_are_flagged(self):
        health = ChainHealth()
        for chain in _divergent_chains():
            health.ingest_chain({"theta": chain})
        report = health.report()
        assert report.verdict != "pass"
        q = report.quantities["theta"]
        assert q.rhat > 1.3
        assert any("R-hat" in reason for reason in q.reasons)

    def test_divergent_chains_warn_inside_the_warn_band(self):
        # Chains a little more than one sd apart: R̂ lands in the warn
        # band, and the divergence must warn, not silently pass.
        health = ChainHealth()
        for chain in _divergent_chains(offset=1.15):
            health.ingest_chain({"theta": chain})
        report = health.report()
        q = report.quantities["theta"]
        assert 1.1 <= q.rhat < 1.3
        assert q.verdict == "warn" and report.verdict == "warn"
        assert any("R-hat" in reason for reason in q.reasons)

    def test_constant_quantity_is_stuck_warn_not_fail(self):
        health = ChainHealth()
        for chain in _white_noise_chains():
            health.ingest_chain({"theta": chain, "flat": np.full(400, 7.0)})
        report = health.report()
        flat = report.quantities["flat"]
        assert flat.verdict == "warn" and flat.reasons == ("stuck at 7",)
        assert np.isnan(flat.rhat) and np.isnan(flat.ess) and np.isnan(flat.geweke_z)
        # ... a stuck chain is not a converged one, so the fit warns.
        assert report.quantities["theta"].verdict == "pass"
        assert report.verdict == "warn" and not report.ok
        assert "warn  (stuck at 7)" in report.format()

    def test_chains_stuck_at_different_values_fail(self):
        health = ChainHealth()
        for value in (23.0, 26.0):
            health.ingest_chain({"n_clusters": np.full(30, value)})
        report = health.report()
        q = report.quantities["n_clusters"]
        assert q.verdict == "fail" and report.verdict == "fail"
        assert q.reasons == ("chains stuck at different values: 23, 26",)
        assert np.isnan(q.rhat) and np.isnan(q.ess)

    def test_only_undiagnosable_quantities_fold_to_undiagnosable(self):
        # Too short for split-R̂: a constant series is not graded stuck.
        health = ChainHealth()
        health.ingest_chain({"flat": np.full(3, 1.0)})
        report = health.report()
        assert report.quantities["flat"].verdict == "undiagnosable"
        assert report.verdict == "undiagnosable"
        assert not report.ok
        assert EXIT_CODES[report.verdict] == 0  # undiagnosable never fails CI

    def test_worst_quantity_wins_the_fold(self):
        health = ChainHealth()
        noise = _white_noise_chains()
        bad = _divergent_chains()
        for i in range(2):
            health.ingest_chain({"good": noise[i], "bad": bad[i]})
        report = health.report()
        assert report.quantities["good"].verdict == "pass"
        assert report.quantities["bad"].verdict == "fail"
        assert report.verdict == "fail"

    def test_burn_in_trims_the_transient(self):
        rng = np.random.default_rng(3)
        # 100 wildly-off transient sweeps, then stationarity.
        chains = [
            np.concatenate([np.full(100, 500.0 * (c + 1)), rng.standard_normal(300)])
            for c in range(2)
        ]
        flagged = ChainHealth(burn_in=0)
        healthy = ChainHealth(burn_in=100)
        for chain in chains:
            flagged.ingest_chain({"theta": chain})
            healthy.ingest_chain({"theta": chain})
        assert flagged.report().verdict == "fail"
        report = healthy.report()
        assert report.verdict == "pass"
        assert report.quantities["theta"].n_samples == 300

    def test_split_ingest_appends_to_the_same_chain(self):
        whole, split = ChainHealth(), ChainHealth()
        for index, chain in enumerate(_white_noise_chains()):
            whole.ingest_chain({"theta": chain})
            split.ingest_chain({"theta": chain[:150]}, chain=index)
            split.ingest_chain({"theta": chain[150:]}, chain=index)
        assert split.report() == whole.report()

    def test_short_series_leave_rhat_and_geweke_undiagnosable(self):
        health = ChainHealth()
        health.ingest_chain({"theta": np.array([1.0, 2.0, 1.5])})  # < 4 samples
        q = health.report().quantities["theta"]
        assert np.isnan(q.rhat)
        assert np.isnan(q.geweke_z)  # < MIN_GEWEKE_SAMPLES too

    def test_short_varying_series_is_undiagnosable_not_failed_on_ess(self):
        # ESS of a 3-sample series would just echo its length (3 < ESS_FAIL).
        health = ChainHealth()
        health.ingest_chain({"x": [1.0, 2.0, 1.5]})
        report = health.report()
        q = report.quantities["x"]
        assert q.verdict == "undiagnosable" and q.reasons == ()
        assert np.isnan(q.ess)
        assert report.verdict == "undiagnosable"

    def test_negative_burn_in_rejected(self):
        with pytest.raises(ValueError, match="burn_in"):
            ChainHealth(burn_in=-1)

    def test_report_round_trips_through_json(self):
        health = ChainHealth()
        for chain in _white_noise_chains():
            health.ingest_chain({"theta": chain, "flat": np.full(400, 2.0)})
        report = health.report()
        restored = HealthReport.from_json(json.loads(json.dumps(report.to_json())))
        assert restored.verdict == report.verdict
        for name, q in report.quantities.items():
            r = restored.quantities[name]
            assert r.verdict == q.verdict and r.reasons == q.reasons
            for stat in ("mean", "ess", "geweke_z", "rhat"):
                np.testing.assert_equal(getattr(r, stat), getattr(q, stat))

    def test_format_renders_table_and_verdict(self):
        health = ChainHealth()
        for chain in _white_noise_chains():
            health.ingest_chain({"theta": chain})
        text = health.report().format()
        assert "quantity" in text and "R-hat" in text
        assert "health verdict: PASS" in text


def _synthetic_segments(seed=0, n=150, years=10):
    """A tiny two-regime failure matrix whose DPMHBP cluster count moves."""
    rng = np.random.default_rng(seed)
    p = rng.choice([0.02, 0.15], size=(n, 1), p=[0.7, 0.3])
    failures = (rng.random((n, years)) < p).astype(int)
    features = rng.standard_normal((n, 4))
    return failures, features


class TestDPMHBPHealth:
    def test_two_chain_fit_has_finite_rhat_and_ess(self):
        """The acceptance bar: a real 2-chain fit is fully diagnosable."""
        failures, features = _synthetic_segments()
        health = ChainHealth(burn_in=10)
        for seed in (0, 101):
            posterior = DPMHBP(alpha=4.0, n_sweeps=40, burn_in=10, seed=seed).fit(
                failures, features
            )
            health.ingest_chain(
                {
                    "n_clusters": np.asarray(posterior.n_clusters_trace, dtype=float),
                    "log_lik": posterior.log_lik_trace,
                    "accept_q": posterior.accept_trace,
                }
            )
        report = health.report()
        for name in ("n_clusters", "log_lik"):
            q = report.quantities[name]
            assert q.n_chains == 2
            assert np.isfinite(q.rhat), name
            assert np.isfinite(q.ess), name
        assert report.verdict in ("pass", "warn", "fail")

    def test_fit_records_per_sweep_traces(self):
        failures, features = _synthetic_segments()
        posterior = DPMHBP(n_sweeps=12, burn_in=4, seed=0).fit(failures, features)
        assert posterior.log_lik_trace.shape == (12,)
        assert posterior.accept_trace.shape == (12,)
        assert np.all(np.isfinite(posterior.log_lik_trace))
        assert np.all((posterior.accept_trace >= 0) & (posterior.accept_trace <= 1))

    def test_model_pools_chains_into_health(self, small_model_data):
        model = DPMHBPModel(
            n_sweeps=12, burn_in=4, n_chains=2, jobs=1, seed=3
        ).fit(small_model_data)
        report = model.health_
        assert isinstance(report, HealthReport)
        assert set(report.quantities) >= {"n_clusters", "log_lik", "accept_q"}
        assert report.quantities["log_lik"].n_chains == 2
        assert np.isfinite(report.quantities["log_lik"].rhat)


def _report(chains):
    """The convergence report of one scalar quantity over ``chains``."""
    health = ChainHealth()
    for chain in chains:
        health.ingest_chain({"theta": chain})
    return health.report()


def _completed_run(tmp_path, auc=0.7, fail_one=False, name="run", health=True):
    """A journalled 1×2 run with one (or two) completed cells of metrics.

    With ``health`` each cell's evaluation carries a passing convergence
    report in its completion marker, as a grid cell's DPMHBP fit does.
    """
    run_dir = tmp_path / name
    journal = RunJournal.create(run_dir, {"regions": ["A"], "n_repeats": 2})
    journal.log_event("run_started")
    rng = np.random.default_rng(0)
    n = 20
    for repeat, cell_auc in ((0, auc), (1, auc + 0.05)):
        cell = f"A-r{repeat:03d}"
        if fail_one and repeat == 1:
            journal.log_event("cell_started", cell=cell, attempt=1, seed=repeat)
            journal.record_failure(
                CellSpec(region="A", repeat=repeat, seed=repeat),
                error="Traceback …\nInjectedFault: boom",
                error_type="InjectedFault",
                attempts=2,
            )
            continue
        run = RegionRun(
            region="A",
            seed=repeat,
            labels=(rng.random(n) < 0.2).astype(float),
            pipe_lengths=rng.uniform(1, 9, n),
        )
        run.evaluations["Cox"] = ModelEvaluation(
            model_name="Cox",
            scores=rng.standard_normal(n),
            auc=cell_auc,
            auc_budget_permyriad=3.0,
            health=_report(_white_noise_chains()) if health else None,
        )
        journal.log_event("cell_started", cell=cell, attempt=1, seed=repeat)
        journal.save_cell(CellSpec(region="A", repeat=repeat, seed=repeat), run)
        journal.log_event("cell_completed", cell=cell, attempt=1, duration_s=0.5)
    journal.log_event("run_completed")
    return run_dir


class TestDoctor:
    def test_healthy_run_passes_with_exit_zero(self, tmp_path):
        report = diagnose(_completed_run(tmp_path))
        assert report.verdict == "pass" and report.exit_code == 0
        assert report.cells_completed == 2 and not report.cells_failed
        assert set(report.health) == {"A-r000/Cox", "A-r001/Cox"}
        assert all(health.verdict == "pass" for health in report.health.values())
        text = report.format()
        assert "doctor verdict: PASS (exit 0)" in text
        assert "[A-r000/Cox]" in text

    def test_failed_cells_force_exit_two(self, tmp_path):
        run_dir = _completed_run(tmp_path, fail_one=True)
        report = diagnose(run_dir)
        assert report.verdict == "fail" and report.exit_code == 2
        assert "A-r001" in report.cells_failed
        assert "FAILED A-r001: InjectedFault" in report.format()

    def test_divergent_chains_escalate_the_verdict(self, tmp_path):
        # One divergent cell among healthy ones fails the whole run.
        run_dir = _completed_run(tmp_path)
        marker = run_dir / "cells" / "A-r001.json"
        record = json.loads(marker.read_text())
        record["models"][0]["health"] = _report(_divergent_chains()).to_json()
        marker.write_text(json.dumps(record))
        report = diagnose(run_dir)
        assert report.health["A-r000/Cox"].verdict == "pass"
        assert report.health["A-r001/Cox"].verdict == "fail"
        assert report.verdict == "fail" and report.exit_code == 2

    def test_stuck_chain_is_a_warning_exit_one(self, tmp_path):
        run_dir = _completed_run(tmp_path)
        marker = run_dir / "cells" / "A-r001.json"
        record = json.loads(marker.read_text())
        record["models"][0]["health"] = _report([np.full(30, 23.0)] * 2).to_json()
        marker.write_text(json.dumps(record))
        report = diagnose(run_dir)
        assert report.health["A-r001/Cox"].quantities["theta"].reasons == ("stuck at 23",)
        assert report.verdict == "warn" and report.exit_code == 1

    def test_completed_cells_without_health_warn(self, tmp_path):
        # A gate that found nothing to check must not pass.
        report = diagnose(_completed_run(tmp_path, health=False))
        assert report.verdict == "warn" and report.exit_code == 1
        assert report.health == {}
        assert "no completed cell carries a health report" in report.format()

    def test_json_report_round_trips(self, tmp_path):
        run_dir = _completed_run(tmp_path, fail_one=True)
        payload = json.loads(json.dumps(diagnose(run_dir).to_json()))
        assert payload["verdict"] == "fail" and payload["exit_code"] == 2
        assert payload["cells_failed"]["A-r001"]["error_type"] == "InjectedFault"
        assert payload["cells_completed"] == 1


class TestDoctorCLI:
    def test_healthy_run_exits_zero(self, tmp_path, capsys):
        run_dir = _completed_run(tmp_path)
        assert cli_main(["doctor", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "doctor verdict: PASS (exit 0)" in out

    def test_failed_run_exits_two(self, tmp_path, capsys):
        run_dir = _completed_run(tmp_path, fail_one=True)
        assert cli_main(["doctor", str(run_dir)]) == 2
        assert "FAILED A-r001" in capsys.readouterr().out

    def test_json_output_parses(self, tmp_path, capsys):
        run_dir = _completed_run(tmp_path)
        assert cli_main(["doctor", str(run_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "pass"
        assert payload["exit_code"] == 0
        assert "drift" not in payload
        assert "thresholds" not in payload["health"]["A-r000/Cox"]

    def test_not_a_run_directory_exits_two(self, tmp_path, capsys):
        assert cli_main(["doctor", str(tmp_path)]) == 2
        assert "not a run directory" in capsys.readouterr().err


class TestRunReport:
    """``repro status`` and ``repro doctor`` render one fold of the journal."""

    def test_status_shows_each_cells_worst_verdict(self, tmp_path, capsys):
        run_dir = _completed_run(tmp_path)
        marker = run_dir / "cells" / "A-r001.json"
        record = json.loads(marker.read_text())
        # A second chain-fitting model whose chains diverged: the cell's
        # worst verdict is its failing model, whatever the order.
        diverged = dict(record["models"][0], name="HBP")
        diverged["health"] = _report(_divergent_chains()).to_json()
        record["models"].insert(0, diverged)
        marker.write_text(json.dumps(record))

        report = run_report(run_dir)
        assert [c.verdict for c in report.cells] == ["pass", "fail"]
        assert cli_main(["status", str(run_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("cell "))
        assert lines[header].endswith("  verdict")
        assert lines[header + 1].startswith("A-r000") and lines[header + 1].endswith("  pass")
        assert lines[header + 2].startswith("A-r001") and lines[header + 2].endswith("  fail")

    def test_cells_without_health_show_a_dash(self, tmp_path):
        text = format_status(run_report(_completed_run(tmp_path, health=False)))
        rows = [line for line in text.splitlines() if line.startswith("A-r")]
        assert len(rows) == 2 and all(row.endswith("  —") for row in rows)

    def test_doctor_renders_the_status_fold(self, tmp_path):
        run_dir = _completed_run(tmp_path, fail_one=True)
        journal = RunJournal.open(run_dir)
        journal.log_event("cell_retried", cell="A-r001")
        journal.log_event("cell_retried", cell="A-r001")
        report = run_report(run_dir)
        doctor = diagnose(run_dir)
        assert doctor.run == report
        assert doctor.retries == sum(report.retries.values()) == 2
        assert doctor.cells_completed == report.counts()["done"] == 1
        assert list(doctor.cells_failed) == [
            c.cell_id for c in report.cells if c.state == "failed"
        ]
        assert set(doctor.health) == set(report.health) == {"A-r000/Cox"}


def _small_dpmhbp(seed):
    """Module-level (picklable) line-up: one short two-chain DPMHBP."""
    return [DPMHBPModel(n_sweeps=8, burn_in=2, n_chains=2, seed=seed, jobs=1)]


GRID = dict(regions=("A",), n_repeats=2, scale=0.05, models_factory=_small_dpmhbp)


@pytest.fixture(scope="module")
def dpmhbp_grid(tmp_path_factory):
    """A finished, journalled two-cell grid of the small DPMHBP line-up."""
    run_dir = tmp_path_factory.mktemp("grid") / "run"
    return run_dir, run_comparison(run_dir=run_dir, **GRID)


def _marker(run_dir, repeat):
    return json.loads((run_dir / "cells" / f"A-r{repeat:03d}.json").read_text())


class TestHealthInTheJournal:
    def test_markers_carry_the_fit_health(self, dpmhbp_grid):
        run_dir, result = dpmhbp_grid
        for repeat, run in enumerate(result.runs["A"]):
            (entry,) = _marker(run_dir, repeat)["models"]
            # Repeat 0 runs on the region's canonical seed.
            data = prepare_region_data("A", seed=run.seed if repeat else None, scale=0.05)
            direct = _small_dpmhbp(repeat)[0].fit(data)
            assert entry["health"] == direct.health_.to_json()
            assert set(entry["health"]["quantities"]) == {"n_clusters", "log_lik", "accept_q"}

    def test_load_cell_restores_health(self, dpmhbp_grid):
        run_dir, result = dpmhbp_grid
        journal = RunJournal.open(run_dir)
        for repeat, run in enumerate(result.runs["A"]):
            restored = journal.load_cell(CellSpec(region="A", repeat=repeat))
            # to_json, not ==: nan statistics never compare equal.
            assert (
                restored.evaluations["DPMHBP"].health.to_json()
                == run.evaluations["DPMHBP"].health.to_json()
            )

    def test_doctor_output_survives_resume(self, dpmhbp_grid, capsys):
        run_dir, result = dpmhbp_grid
        rc_before = cli_main(["doctor", str(run_dir)])
        before = capsys.readouterr().out
        resumed = run_comparison(resume=run_dir, **GRID)
        rc_after = cli_main(["doctor", str(run_dir)])
        assert capsys.readouterr().out == before
        assert rc_after == rc_before
        assert "[A-r000/DPMHBP]" in before and "[A-r001/DPMHBP]" in before
        for run, again in zip(result.runs["A"], resumed.runs["A"]):
            assert (
                again.evaluations["DPMHBP"].health.to_json()
                == run.evaluations["DPMHBP"].health.to_json()
            )

    def test_health_is_not_a_drift_metric(self, dpmhbp_grid):
        # The marker keeps the report beside the model's scalar metrics,
        # not as one of them.
        run_dir, _ = dpmhbp_grid
        for repeat in (0, 1):
            (entry,) = _marker(run_dir, repeat)["models"]
            assert entry["name"] == "DPMHBP" and entry["health"] is not None
            assert set(entry) == {"name", "budget", "auc", "auc_budget_permyriad", "health"}
            assert isinstance(entry["health"], dict)

    def test_markers_with_thresholds_still_render(self, dpmhbp_grid, tmp_path, capsys):
        # Older markers record the bands each report was graded with.
        run_dir = tmp_path / "run"
        shutil.copytree(dpmhbp_grid[0], run_dir)
        marker = run_dir / "cells" / "A-r000.json"
        record = json.loads(marker.read_text())
        health = record["models"][0]["health"]
        health["thresholds"] = {
            "rhat_warn": 1.1, "rhat_fail": 1.3, "ess_warn": 25.0,
            "ess_fail": 10.0, "geweke_warn": 2.5, "geweke_fail": 4.0,
        }
        marker.write_text(json.dumps(record))
        report = run_report(run_dir)
        assert report.health["A-r000/DPMHBP"].to_json() == {
            k: v for k, v in health.items() if k != "thresholds"
        }
        assert cli_main(["status", str(run_dir)]) == 0
        capsys.readouterr()
        rc = cli_main(["doctor", str(run_dir)])
        out = capsys.readouterr().out
        assert rc == cli_main(["doctor", str(dpmhbp_grid[0])])
        assert out == capsys.readouterr().out.replace(str(dpmhbp_grid[0]), str(run_dir))
        assert "[A-r000/DPMHBP]" in out
