"""Numerical-hazard containment: guard semantics, campaign accounting."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import CampaignResult
from repro.core.hazard import HazardReport, NumericalHazardGuard
from repro.core.injector import BayesianFaultInjector
from repro.core.sweep import ProbabilitySweep
from repro.exec import ForwardSpec
from repro.train.metrics import classification_error


class TestGuardScore:
    def test_finite_logits_delegate_bit_exactly(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(40, 3))
        labels = rng.integers(0, 3, size=40)
        guard = NumericalHazardGuard()
        assert guard.score(logits, labels) == classification_error(logits, labels)
        assert guard.report().hazard_rows == 0
        assert guard.report().rows == 40

    def test_nonfinite_rows_quarantined(self):
        logits = np.array(
            [
                [1.0, 0.0],  # correct (label 0)
                [0.0, 1.0],  # misclassified (label 0)
                [np.nan, 0.0],  # hazard
                [np.inf, -np.inf],  # hazard
            ]
        )
        labels = np.array([0, 0, 0, 0])
        guard = NumericalHazardGuard()
        error = guard.score(logits, labels)
        report = guard.report()
        # 1 row misclassified + 2 hazard rows (always errors, but counted
        # deterministically rather than via NaN argmax) out of 4
        assert error == 0.75
        assert report.rows == 4
        assert report.hazard_rows == 2
        assert report.hazard_fraction == 0.5
        assert report.hazard_evaluations == 1
        # hazard ⊆ error: correct + error = 1
        assert 1 - error == pytest.approx(0.25)
        assert report.hazard_fraction <= error

    def test_fp_events_counted_not_warned(self):
        guard = NumericalHazardGuard()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any RuntimeWarning would fail
            with guard.capture():
                np.float32(3e38) * np.float32(10.0)  # overflow
                np.float32(np.inf) - np.float32(np.inf)  # invalid
        report = guard.report()
        assert report.fp_overflow >= 1
        assert report.fp_invalid >= 1
        assert report.any_hazard

    def test_errstate_restored_after_capture(self):
        guard = NumericalHazardGuard()
        with guard.capture():
            pass
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            np.float32(3e38) * np.float32(10.0)
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)


_POISON = (np.nan, np.inf, -np.inf)
_COUNTERS = ("evaluations", "hazard_evaluations", "rows", "hazard_rows")


@st.composite
def poisoned_stacks(draw):
    """(k, B, C) float32 logits with NaN/±inf sprinkled over some rows, plus labels."""
    k = draw(st.integers(min_value=1, max_value=6))
    batch = draw(st.integers(min_value=1, max_value=12))
    classes = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    # few distinct values, so argmax ties (first index wins) are common
    logits = rng.integers(-2, 3, size=(k, batch, classes)).astype(np.float32)
    cells = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, batch - 1),
                                    st.integers(0, classes - 1), st.sampled_from(_POISON)),
                          max_size=10))
    for i, row, column, value in cells:
        logits[i, row, column] = value
    labels = rng.integers(0, classes, size=batch)
    return logits, labels


def counters(guard):
    return {name: getattr(guard, name) for name in _COUNTERS}


class TestScoreRows:
    """``score_rows`` over a stack equals ``score`` row by row, counters included."""

    @given(poisoned_stacks())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_row_score(self, stack):
        logits, labels = stack
        rows_guard, stack_guard = NumericalHazardGuard(), NumericalHazardGuard()
        expected = np.array([rows_guard.score(row, labels) for row in logits])
        errors = stack_guard.score_rows(logits, labels)
        assert errors.dtype == np.float64 and errors.shape == (len(logits),)
        assert np.array_equal(errors.view(np.uint64), expected.view(np.uint64))
        assert counters(stack_guard) == counters(rows_guard)

    def test_nan_and_inf_rows_counted_once_per_evaluation(self):
        logits = np.zeros((3, 4, 2), dtype=np.float32)
        logits[0, :, 0] = 1.0  # every row predicts class 0: clean and correct
        logits[1, 1] = [np.nan, 0.0]
        logits[1, 2] = [np.inf, -np.inf]
        logits[2, 3] = [-np.inf, 5.0]
        labels = np.zeros(4, dtype=np.int64)
        guard = NumericalHazardGuard()
        guard.score_rows(logits[:1], labels)  # counters accumulate across calls
        errors = guard.score_rows(logits, labels)
        assert errors.tolist() == [0.0, 0.5, 0.25]  # hazard rows are errors, the rest correct
        assert counters(guard) == {
            "evaluations": 4, "hazard_evaluations": 2, "rows": 16, "hazard_rows": 3,
        }

    def test_broadcast_stack_of_shared_logits(self):
        rng = np.random.default_rng(4)
        shared = rng.normal(size=(10, 3)).astype(np.float32)
        labels = rng.integers(0, 3, size=10)
        guard = NumericalHazardGuard()
        errors = guard.score_rows(np.broadcast_to(shared, (5, 10, 3)), labels)
        assert errors.tolist() == [classification_error(shared, labels)] * 5
        assert guard.rows == 50 and guard.hazard_rows == 0

    def test_batch_mismatch_rejected(self):
        with pytest.raises(ValueError, match="batch mismatch"):
            NumericalHazardGuard().score_rows(np.zeros((2, 4, 3)), np.zeros(5, dtype=np.int64))


class TestHazardReport:
    def test_round_trip(self):
        report = HazardReport(
            evaluations=10, hazard_evaluations=2, rows=400, hazard_rows=17,
            fp_overflow=5, fp_invalid=3, fp_divide=1,
        )
        assert HazardReport.from_dict(report.to_dict()) == report

    def test_fractions(self):
        report = HazardReport(evaluations=4, hazard_evaluations=1, rows=100, hazard_rows=25)
        assert report.hazard_fraction == 0.25
        assert report.hazard_evaluation_fraction == 0.25
        assert HazardReport().hazard_fraction == 0.0


class TestCampaignHazard:
    @pytest.fixture(scope="class")
    def hazardous_campaign(self, trained_mlp, moons_eval):
        """A campaign at p high enough that exponent flips force NaN/inf logits."""
        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(trained_mlp, eval_x, eval_y, seed=11)
        with warnings.catch_warnings():
            # the whole point: numerical blow-ups must not leak warnings
            warnings.simplefilter("error", RuntimeWarning)
            return injector.run(ForwardSpec(p=0.05, samples=60, chains=2))

    def test_high_p_campaign_reports_nonzero_hazard(self, hazardous_campaign):
        campaign = hazardous_campaign
        assert campaign.hazard is not None
        assert campaign.hazard.hazard_rows > 0
        assert campaign.hazard_fraction > 0.0
        assert campaign.hazard.fp_overflow + campaign.hazard.fp_invalid > 0

    def test_hazard_is_error_subset(self, hazardous_campaign):
        # every hazard row counts as an error, so the hazard fraction can
        # never exceed the mean error rate
        assert hazardous_campaign.hazard_fraction <= hazardous_campaign.mean_error + 1e-12
        assert hazardous_campaign.mean_error <= 1.0 + 1e-12

    def test_summary_row_surfaces_hazard(self, hazardous_campaign):
        row = hazardous_campaign.summary_row()
        assert "hazard_pct" in row
        assert row["hazard_pct"] > 0.0

    def test_result_round_trips_with_hazard(self, hazardous_campaign):
        restored = CampaignResult.from_dict(hazardous_campaign.to_dict())
        assert restored.hazard == hazardous_campaign.hazard
        assert np.array_equal(
            restored.posterior.samples, hazardous_campaign.posterior.samples
        )

    def test_benign_p_campaign_has_zero_hazard(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(trained_mlp, eval_x, eval_y, seed=3)
        campaign = injector.run(ForwardSpec(p=1e-6, samples=20, chains=2))
        assert campaign.hazard is not None
        assert campaign.hazard.evaluations > 0

    def test_sweep_table_has_hazard_column(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(trained_mlp, eval_x, eval_y, seed=5)
        sweep = ProbabilitySweep(
            injector, p_values=(1e-3, 5e-2), spec=ForwardSpec(p=1e-3, samples=20, chains=2)
        ).run()
        for row in sweep.table():
            assert "hazard_pct" in row
        assert sweep.table()[-1]["hazard_pct"] >= 0.0
