"""Unit tests for the survival FailureModel adapters."""

import numpy as np
import pytest

from repro.core.ranking.objective import empirical_auc
from repro.core.survival_models import (
    CoxPHModel,
    TimeRateModel,
    WeibullModel,
    _cox_arrays,
    _pipe_year_windows,
)
from repro.survival.time_models import TimeExponentialModel, TimeLinearModel, TimePowerModel


class TestCoxArrays:
    def test_entry_is_1998_age(self, small_model_data):
        entry, _exit, _event = _cox_arrays(small_model_data)
        assert np.allclose(entry, np.maximum(1998 - small_model_data.pipe_laid_year, 0))

    def test_events_match_training_failures(self, small_model_data):
        _entry, _exit, event = _cox_arrays(small_model_data)
        assert event.sum() == (small_model_data.pipe_fail_train.sum(1) > 0).sum()

    def test_exit_after_entry(self, small_model_data):
        entry, exit_age, _ = _cox_arrays(small_model_data)
        assert np.all(exit_age > entry - 1e-9)

    def test_failure_exit_uses_first_failure_year(self, small_model_data):
        md = small_model_data
        entry, exit_age, event = _cox_arrays(md)
        failed = np.flatnonzero(event == 1.0)[:5]
        for i in failed:
            first_col = np.argmax(md.pipe_fail_train[i])
            year = md.train_years[first_col]
            assert exit_age[i] == pytest.approx(year - md.pipe_laid_year[i] + 0.5)


class TestExposureRows:
    def test_row_count(self, small_model_data):
        counts, ages = _pipe_year_windows(small_model_data)
        n = (small_model_data.n_pipes, len(small_model_data.train_years))
        assert counts.shape == ages.shape == n

    def test_one_year_windows(self, small_model_data):
        """Each window opens at the pipe's age in its training year; in service, they step by one year."""
        md = small_model_data
        _, ages = _pipe_year_windows(md)
        for j, year in enumerate(md.train_years):
            assert np.array_equal(ages[:, j], md.pipe_ages(year))
        assert np.all(np.diff(md.train_years) == 1)
        in_service = ages[:, :-1] > 0
        assert in_service.any()
        assert np.allclose(np.diff(ages, axis=1)[in_service], 1.0)

    def test_counts_total(self, small_model_data):
        counts, _ = _pipe_year_windows(small_model_data)
        assert counts.sum() == small_model_data.pipe_fail_train.sum()

    @pytest.mark.parametrize("kind,cls", [
        ("exponential", TimeExponentialModel),
        ("power", TimePowerModel),
        ("linear", TimeLinearModel),
    ])
    def test_time_models_match_stacked_rows(self, small_model_data, kind, cls):
        """Ravelled windows score byte-identically to one stacked row per pipe-year."""
        md = small_model_data
        a0, counts, lengths = [], [], []
        for i in range(md.n_pipes):
            for j, year in enumerate(md.train_years):
                a0.append(max(float(year) - md.pipe_laid_year[i], 0.0))
                counts.append(float(md.pipe_fail_train[i, j]))
                lengths.append(md.pipe_lengths[i])
        reference = cls().fit(np.array(a0), np.array(counts), np.array(lengths))
        expected = reference.expected_failures(md.pipe_ages(md.test_year), md.pipe_lengths)
        scores = TimeRateModel(kind=kind).fit_predict(md)
        assert scores.tobytes() == expected.tobytes()


class TestAdapters:
    def test_cox_beats_chance(self, small_model_data):
        scores = CoxPHModel().fit_predict(small_model_data)
        assert scores.shape == (small_model_data.n_pipes,)
        assert empirical_auc(scores, small_model_data.pipe_fail_test) > 0.5

    def test_weibull_beats_chance(self, small_model_data):
        scores = WeibullModel().fit_predict(small_model_data)
        assert empirical_auc(scores, small_model_data.pipe_fail_test) > 0.5

    @pytest.mark.parametrize("kind,name", [
        ("exponential", "TimeExp"), ("power", "TimePow"), ("linear", "TimeLin"),
    ])
    def test_time_models_run(self, small_model_data, kind, name):
        model = TimeRateModel(kind=kind)
        assert model.name == name
        scores = model.fit_predict(small_model_data)
        assert np.all(scores >= 0)

    def test_time_model_unknown_kind(self):
        with pytest.raises(ValueError):
            TimeRateModel(kind="quadratic")

    def test_predict_before_fit(self, small_model_data):
        for model in (CoxPHModel(), WeibullModel(), TimeRateModel(kind="power")):
            with pytest.raises(RuntimeError):
                model.predict_pipe_risk(small_model_data)

    def test_time_model_rate_depends_only_on_age(self, small_model_data):
        """Age-only models: per-metre rate is a function of age alone."""
        md = small_model_data
        scores = TimeRateModel(kind="exponential").fit_predict(md)
        ages = md.pipe_ages(md.test_year)
        dense = scores / np.maximum(md.pipe_lengths, 1.0)  # rate per metre
        same_age = np.flatnonzero(ages == ages[0])
        assert np.allclose(dense[same_age], dense[same_age][0], rtol=1e-9)
        # And the rate curve is monotone (exponential in age).
        order = np.argsort(ages)
        diffs = np.diff(dense[order])
        assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)
