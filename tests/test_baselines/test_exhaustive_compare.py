"""Exhaustive bit sweep and estimator comparison statistics."""

import pytest

from repro.baselines import ExhaustiveBitInjector, compare_estimators, wilson_interval
from repro.faults import TargetSpec


@pytest.fixture(scope="module")
def exhaustive(trained_mlp, moons_eval):
    eval_x, eval_y = moons_eval
    injector = ExhaustiveBitInjector(
        trained_mlp, eval_x, eval_y, spec=TargetSpec.single_layer("layers.2"), seed=0
    )
    return injector, injector.run()  # layers.2 is small: full enumeration


class TestExhaustive:
    def test_space_size(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        injector = ExhaustiveBitInjector(
            trained_mlp, eval_x, eval_y, spec=TargetSpec.single_layer("layers.2"), seed=0
        )
        # layers.2: Dense(32, 2) weight + bias = 66 params × 32 bits.
        assert injector.space_size == 66 * 32

    def test_full_run_counts_every_site(self, exhaustive):
        _, sensitivity = exhaustive
        assert sum(sensitivity.count_by_bit.values()) == 66 * 32
        assert all(sensitivity.count_by_bit[b] == 66 for b in range(32))

    def test_exponent_flips_most_dangerous(self, exhaustive):
        _, sensitivity = exhaustive
        rows = {row["field"]: row for row in sensitivity.field_table()}
        assert rows["exponent"]["sdc_rate"] > rows["mantissa"]["sdc_rate"]

    def test_high_exponent_bit_worst_lane(self, exhaustive):
        _, sensitivity = exhaustive
        combined = {
            b: sensitivity.sdc_by_bit[b] + sensitivity.due_by_bit[b]
            for b in sensitivity.sdc_by_bit
        }
        # Bit 30 (exponent MSB) must be among the most damaging lanes.
        top = sorted(combined, key=combined.get, reverse=True)[:8]
        assert 30 in top

    def test_budgeted_run_samples_subset(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        injector = ExhaustiveBitInjector(
            trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=0
        )
        sensitivity = injector.run(budget=100)
        assert sum(sensitivity.count_by_bit.values()) == 100

    def test_budget_validation(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        injector = ExhaustiveBitInjector(trained_mlp, eval_x, eval_y, seed=0)
        with pytest.raises(ValueError):
            injector.run(budget=0)


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi

    def test_sane_at_extremes(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(50, 50)
        assert lo < 1.0 and hi == 1.0

    def test_narrows_with_n(self):
        wide = wilson_interval(5, 10)
        narrow = wilson_interval(500, 1000)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
        with pytest.raises(ValueError):
            wilson_interval(1, 10, confidence=1.0)


class TestCompare:
    def test_identical_rates_agree(self):
        comparison = compare_estimators("a", 20, 100, "b", 40, 200)
        assert comparison.agree
        assert comparison.p_value == pytest.approx(1.0)

    def test_different_rates_detected(self):
        comparison = compare_estimators("a", 10, 1000, "b", 300, 1000)
        assert not comparison.agree
        assert comparison.p_value < 1e-6

    def test_zero_rates_degenerate(self):
        comparison = compare_estimators("a", 0, 100, "b", 0, 100)
        assert comparison.agree
        assert comparison.z_statistic == 0.0

    def test_efficiency_ratio_scale_free_for_matched_estimators(self):
        # Same underlying rate, different n: width²·n is invariant, ratio ≈ 1.
        comparison = compare_estimators("cheap", 10, 100, "pricey", 40, 400)
        assert comparison.efficiency_ratio() == pytest.approx(1.0, abs=0.15)

    def test_efficiency_ratio_rewards_low_variance_estimates(self):
        # A near-zero rate has a much narrower interval than p=0.5 at equal
        # n, i.e. estimator a extracts more precision per forward pass.
        comparison = compare_estimators("rare", 1, 1000, "coin", 500, 1000)
        assert comparison.efficiency_ratio() > 5.0

    def test_summary_keys(self):
        summary = compare_estimators("a", 1, 10, "b", 2, 10).summary()
        assert {"estimate_a", "estimate_b", "p_value", "agree"} <= set(summary)

    def test_validation(self):
        with pytest.raises(ValueError):
            compare_estimators("a", 0, 0, "b", 1, 10)
