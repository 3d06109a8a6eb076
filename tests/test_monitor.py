"""Model-health monitoring: convergence verdicts, drift, and the doctor.

Pins the contracts of :mod:`repro.monitor`:

* thresholds reject inverted bands;
* :class:`ChainHealth` turns per-sweep scalars into per-quantity
  ESS/Geweke/split-R̂ verdicts — healthy chains pass, divergent chains
  are flagged, constant (nan) quantities stay "undiagnosable" without
  escalating or passing anything;
* a real two-chain DPMHBP fit produces finite R̂/ESS for the cluster
  count and the collapsed log-likelihood, and ``DPMHBPModel`` pools its
  chains into ``health_``;
* the run journal carries each fit's ``health_`` in its cell's completion
  marker, restores it on resume, and keeps it out of the drift metrics;
* drift baselines flag cell×model×metric moves outside the band, and a
  comparison with no metric in common grades ``warn``, never ``pass``;
* ``repro doctor`` folds failures > per-cell chain health > drift into
  exit codes 0/1/2 (no health report at all is a warning), with
  ``--json`` and ``--metrics-out`` round-tripping.
"""

import json

import numpy as np
import pytest

from repro import telemetry
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
    HealthThresholds,
    compare_run,
    compare_to_baseline,
    diagnose,
    load_baseline,
    metrics_snapshot,
    save_baseline,
)
from repro.monitor.__main__ import main as monitor_main
from repro.monitor.doctor import EXIT_CODES
from repro.monitor.drift import latest_baseline
from repro.runs import CellSpec, RunJournal
from repro.telemetry import TRACE_ENV


@pytest.fixture(autouse=True)
def _clean_recorder(monkeypatch):
    """Telemetry off between tests."""
    monkeypatch.delenv(TRACE_ENV, raising=False)
    telemetry.disable()
    yield
    telemetry.disable()


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
        t = HealthThresholds()
        assert (t.rhat_warn, t.rhat_fail) == (1.1, 1.3)
        assert (t.ess_warn, t.ess_fail) == (25.0, 10.0)
        assert (t.geweke_warn, t.geweke_fail) == (2.5, 4.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rhat_warn": 0.9},  # below the R-hat floor of 1.0
            {"rhat_warn": 1.4, "rhat_fail": 1.2},  # warn above fail
            {"ess_warn": 5.0, "ess_fail": 10.0},  # fail above warn
            {"geweke_warn": 0.0},  # degenerate band
        ],
    )
    def test_inverted_bands_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HealthThresholds(**kwargs)


class TestChainHealth:
    def test_healthy_chains_pass(self):
        health = ChainHealth()
        for chain in _white_noise_chains():
            health.ingest_chain({"theta": chain})
        report = health.report(publish=False)
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
        report = health.report(publish=False)
        assert report.verdict != "pass"
        q = report.quantities["theta"]
        assert q.rhat > 1.3
        assert any("R-hat" in reason for reason in q.reasons)

    def test_divergent_chains_warn_inside_the_warn_band(self):
        # Push every fail bound out of reach: the same divergence must
        # land in the warn band, not silently pass.
        health = ChainHealth(
            thresholds=HealthThresholds(rhat_fail=1e6, geweke_fail=1e6, ess_fail=0.0)
        )
        for chain in _divergent_chains():
            health.ingest_chain({"theta": chain})
        report = health.report(publish=False)
        assert report.verdict == "warn"
        assert report.quantities["theta"].verdict == "warn"

    def test_constant_quantity_is_undiagnosable_not_fail(self):
        health = ChainHealth()
        for chain in _white_noise_chains():
            health.ingest_chain({"theta": chain, "flat": np.full(400, 7.0)})
        report = health.report(publish=False)
        flat = report.quantities["flat"]
        assert flat.verdict == "undiagnosable"
        assert np.isnan(flat.rhat) and np.isnan(flat.ess) and np.isnan(flat.geweke_z)
        # ... and it neither fails nor passes the folded verdict.
        assert report.verdict == "pass"

    def test_only_undiagnosable_quantities_fold_to_undiagnosable(self):
        health = ChainHealth()
        health.ingest_chain({"flat": np.full(50, 1.0)})
        report = health.report(publish=False)
        assert report.verdict == "undiagnosable"
        assert not report.ok
        assert np.isnan(report.worst_rhat())
        assert EXIT_CODES[report.verdict] == 0  # undiagnosable never fails CI

    def test_worst_quantity_wins_the_fold(self):
        health = ChainHealth()
        noise = _white_noise_chains()
        bad = _divergent_chains()
        for i in range(2):
            health.ingest_chain({"good": noise[i], "bad": bad[i]})
        report = health.report(publish=False)
        assert report.quantities["good"].verdict == "pass"
        assert report.quantities["bad"].verdict == "fail"
        assert report.verdict == "fail"
        assert report.worst_rhat() == report.quantities["bad"].rhat

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
        assert flagged.report(publish=False).verdict == "fail"
        report = healthy.report(publish=False)
        assert report.verdict == "pass"
        assert report.quantities["theta"].n_samples == 300

    def test_short_series_leave_rhat_and_geweke_undiagnosable(self):
        health = ChainHealth()
        health.ingest_chain({"theta": np.array([1.0, 2.0, 1.5])})  # < 4 samples
        q = health.report(publish=False).quantities["theta"]
        assert np.isnan(q.rhat)
        assert np.isnan(q.geweke_z)  # < MIN_GEWEKE_SAMPLES too

    def test_report_publishes_summary_gauges(self):
        rec = telemetry.configure(enabled=True)
        health = ChainHealth()
        for chain in _white_noise_chains():
            health.ingest_chain({"theta": chain})
        health.report()
        gauges = rec.snapshot()["gauges"]
        assert gauges["chain.health"] == 0.0  # pass
        assert gauges["chain.rhat"] == pytest.approx(gauges["chain.rhat.theta"])
        assert "chain.ess.theta" in gauges and "chain.geweke.theta" in gauges

    def test_negative_burn_in_rejected(self):
        with pytest.raises(ValueError, match="burn_in"):
            ChainHealth(burn_in=-1)

    def test_report_round_trips_through_json(self):
        health = ChainHealth()
        for chain in _white_noise_chains():
            health.ingest_chain({"theta": chain, "flat": np.full(400, 2.0)})
        report = health.report(publish=False)
        restored = HealthReport.from_json(json.loads(json.dumps(report.to_json())))
        assert restored.verdict == report.verdict
        assert restored.thresholds == report.thresholds
        for name, q in report.quantities.items():
            r = restored.quantities[name]
            assert r.verdict == q.verdict and r.reasons == q.reasons
            for stat in ("mean", "ess", "geweke_z", "rhat"):
                np.testing.assert_equal(getattr(r, stat), getattr(q, stat))

    def test_format_renders_table_and_verdict(self):
        health = ChainHealth()
        for chain in _white_noise_chains():
            health.ingest_chain({"theta": chain})
        text = health.report(publish=False).format()
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
        report = health.report(publish=False)
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
    return health.report(publish=False)


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


class TestDrift:
    def test_snapshot_reads_completed_cell_metrics(self, tmp_path):
        snapshot = metrics_snapshot(_completed_run(tmp_path))
        assert snapshot["cells"]["A-r000"]["Cox"]["auc"] == pytest.approx(0.7)
        assert snapshot["cells"]["A-r001"]["Cox"]["auc"] == pytest.approx(0.75)

    def test_failed_cells_contribute_no_metrics(self, tmp_path):
        snapshot = metrics_snapshot(_completed_run(tmp_path, fail_one=True))
        assert list(snapshot["cells"]) == ["A-r000"]

    def test_save_compare_round_trip(self, tmp_path):
        run_dir = _completed_run(tmp_path)
        path = save_baseline(run_dir, directory=tmp_path, rev="abc123")
        assert path.name == "HEALTH_abc123.json"
        assert latest_baseline(tmp_path) == path
        report = compare_run(run_dir, path)
        assert report.ok and report.verdict == "pass"
        assert report.n_compared == 4  # 2 cells × 2 metrics
        assert report.baseline_rev == "abc123"

    def test_unit_scale_metrics_use_the_absolute_band(self, tmp_path):
        run_dir = _completed_run(tmp_path)
        baseline = load_baseline(save_baseline(run_dir, directory=tmp_path, rev="r"))
        baseline["cells"]["A-r000"]["Cox"]["auc"] = 0.75  # moved 0.05 > band 0.02
        report = compare_to_baseline(baseline, metrics_snapshot(run_dir))
        (flag,) = report.flags
        assert flag.key == "A-r000/Cox/auc"
        assert not flag.relative
        assert flag.delta == pytest.approx(-0.05)
        assert "DRIFT: A-r000/Cox/auc" in report.format()

    def test_unbounded_metrics_use_the_relative_band(self):
        baseline = {"rev": "r", "cells": {"c": {"M": {"loss": 100.0}}}}
        within = {"cells": {"c": {"M": {"loss": 101.0}}}}  # +1% < 2%
        outside = {"cells": {"c": {"M": {"loss": 104.0}}}}  # +4% > 2%
        assert compare_to_baseline(baseline, within).ok
        report = compare_to_baseline(baseline, outside)
        assert [f.relative for f in report.flags] == [True]

    def test_missing_and_added_metrics_do_not_flag(self):
        baseline = {"rev": "r", "cells": {"c": {"Old": {"auc": 0.7}, "Kept": {"auc": 0.6}}}}
        current = {"cells": {"c": {"New": {"auc": 0.7}, "Kept": {"auc": 0.6}}}}
        report = compare_to_baseline(baseline, current)
        assert report.ok and report.n_compared == 1
        assert report.missing == ["c/Old/auc"]
        assert report.added == ["c/New/auc"]

    def test_nothing_compared_is_a_warning(self):
        # A gate that found nothing to check must not pass.
        baseline = {"rev": "r", "cells": {"A-r000": {"HBP": {"auc": 0.8}}}}
        report = compare_to_baseline(baseline, {"cells": {}})
        assert report.n_compared == 0 and not report.flags
        assert not report.ok and report.verdict == "warn"
        assert report.missing == ["A-r000/HBP/auc"]
        assert "shares no metric with the baseline" in report.format()

    def test_band_must_be_positive(self):
        with pytest.raises(ValueError, match="band"):
            compare_to_baseline({"cells": {}}, {"cells": {}}, band=0.0)

    def test_load_baseline_rejects_non_baselines(self, tmp_path):
        path = tmp_path / "HEALTH_x.json"
        path.write_text('{"rev": "x"}')
        with pytest.raises(ValueError, match="no 'cells' key"):
            load_baseline(path)

    def test_monitor_cli_save_then_compare(self, tmp_path, capsys):
        run_dir = _completed_run(tmp_path)
        rc = monitor_main(
            ["save", str(run_dir), "--dir", str(tmp_path), "--rev", "test"]
        )
        assert rc == 0
        assert "2 cell(s), 4 metric(s)" in capsys.readouterr().out
        rc = monitor_main(["compare", str(run_dir), "--dir", str(tmp_path)])
        assert rc == 0
        assert "no metric drifted" in capsys.readouterr().out

    def test_monitor_cli_flags_drift_with_exit_one(self, tmp_path, capsys):
        run_dir = _completed_run(tmp_path)
        baseline = save_baseline(run_dir, directory=tmp_path, rev="test")
        payload = json.loads(baseline.read_text())
        payload["cells"]["A-r000"]["Cox"]["auc"] = 0.9
        baseline.write_text(json.dumps(payload))
        rc = monitor_main(["compare", str(run_dir), str(baseline), "--json"])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "warn"
        assert [f["metric"] for f in report["flags"]] == ["auc"]

    def test_monitor_cli_disjoint_baseline_exits_one(self, tmp_path, capsys):
        run_dir = _completed_run(tmp_path)
        baseline = tmp_path / "HEALTH_disjoint.json"
        baseline.write_text(json.dumps({"rev": "d", "cells": {"B-r000": {"HBP": {"auc": 0.8}}}}))
        rc = monitor_main(["compare", str(run_dir), str(baseline), "--json"])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "warn" and report["n_compared"] == 0
        assert report["flags"] == []

    def test_monitor_cli_without_baseline_exits_two(self, tmp_path, capsys):
        run_dir = _completed_run(tmp_path)
        rc = monitor_main(["compare", str(run_dir), "--dir", str(tmp_path / "empty")])
        assert rc == 2
        assert "no HEALTH_*.json baseline" in capsys.readouterr().err


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

    def test_drift_is_a_warning_exit_one(self, tmp_path):
        run_dir = _completed_run(tmp_path)
        baseline = save_baseline(run_dir, directory=tmp_path, rev="r")
        payload = json.loads(baseline.read_text())
        payload["cells"]["A-r000"]["Cox"]["auc"] = 0.9
        baseline.write_text(json.dumps(payload))
        report = diagnose(run_dir, baseline=baseline)
        assert report.verdict == "warn" and report.exit_code == 1
        assert len(report.drift.flags) == 1

    def test_disjoint_baseline_is_a_warning_exit_one(self, tmp_path):
        run_dir = _completed_run(tmp_path)
        assert diagnose(run_dir).verdict == "pass"
        baseline = tmp_path / "HEALTH_disjoint.json"
        baseline.write_text(json.dumps({"rev": "d", "cells": {"B-r000": {"HBP": {"auc": 0.8}}}}))
        report = diagnose(run_dir, baseline=baseline)
        assert report.drift.n_compared == 0 and not report.drift.flags
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

    def test_drifted_baseline_exits_one(self, tmp_path, capsys):
        run_dir = _completed_run(tmp_path)
        baseline = save_baseline(run_dir, directory=tmp_path, rev="r")
        payload = json.loads(baseline.read_text())
        payload["cells"]["A-r000"]["Cox"]["auc"] = 0.9
        baseline.write_text(json.dumps(payload))
        assert cli_main(["doctor", str(run_dir), "--baseline", str(baseline)]) == 1
        assert "DRIFT: A-r000/Cox/auc" in capsys.readouterr().out

    def test_disjoint_baseline_exits_one(self, tmp_path, capsys):
        run_dir = _completed_run(tmp_path)
        baseline = tmp_path / "HEALTH_disjoint.json"
        baseline.write_text(json.dumps({"rev": "d", "cells": {"B-r000": {"HBP": {"auc": 0.8}}}}))
        assert cli_main(["doctor", str(run_dir), "--baseline", str(baseline)]) == 1
        assert "shares no metric with the baseline" in capsys.readouterr().out

    def test_json_output_parses(self, tmp_path, capsys):
        run_dir = _completed_run(tmp_path)
        assert cli_main(["doctor", str(run_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "pass"
        assert payload["exit_code"] == 0
        assert payload["drift"] is None

    def test_not_a_run_directory_exits_two(self, tmp_path, capsys):
        assert cli_main(["doctor", str(tmp_path)]) == 2
        assert "not a run directory" in capsys.readouterr().err

    def test_metrics_out_writes_prometheus_text(self, tmp_path, capsys):
        run_dir = _completed_run(tmp_path)
        metrics = tmp_path / "doctor.prom"
        rc = cli_main(["doctor", str(run_dir), "--metrics-out", str(metrics)])
        assert rc == 0
        text = metrics.read_text()
        assert "# TYPE repro_doctor_health gauge" in text
        assert "repro_doctor_health 0" in text
        assert "# TYPE repro_chain_rhat gauge" in text
        assert "repro_doctor_cells_completed 2" in text
        # The passive command stays quiet on stdout apart from the report.
        assert "doctor verdict" in capsys.readouterr().out
        # ... and the flag's enablement was scoped to the command.
        assert not telemetry.enabled()


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
        run_dir, _ = dpmhbp_grid
        assert _marker(run_dir, 0)["models"][0]["health"] is not None
        cells = RunJournal.open(run_dir).cell_metrics()
        for cell in ("A-r000", "A-r001"):
            assert set(cells[cell]["DPMHBP"]) == {"auc", "auc_budget_permyriad"}
        assert metrics_snapshot(run_dir)["cells"] == cells
