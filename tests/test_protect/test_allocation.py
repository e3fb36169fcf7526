"""Protection allocation and measured scheme evaluation."""

import pytest

from repro.core import BayesianFaultInjector
from repro.faults import TargetSpec
from repro.protect import ProtectionScheme, allocate_protection, evaluate_scheme
from repro.sensitivity import TaylorSensitivity


@pytest.fixture()
def injector(trained_mlp, moons_eval):
    eval_x, eval_y = moons_eval
    return BayesianFaultInjector(
        trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=0
    )


@pytest.fixture()
def sensitivity(trained_mlp, moons_eval, injector):
    eval_x, eval_y = moons_eval
    return TaylorSensitivity(trained_mlp, eval_x, eval_y, injector.parameter_targets)


class TestAllocation:
    def test_respects_budget(self, injector, sensitivity):
        for budget in (0.1, 0.3, 0.6):
            scheme = allocate_protection(sensitivity, budget_fraction=budget)
            assert scheme.overhead_fraction(injector.parameter_targets) <= budget + 1e-9

    def test_prefers_exponent_fields(self, sensitivity):
        # At a tight budget, the catastrophic exponent sites dominate the
        # damage score, so allocated lanes must be exponent lanes.
        scheme = allocate_protection(sensitivity, budget_fraction=0.3)
        allocated_lanes = set()
        for lanes in scheme.lanes_by_target.values():
            allocated_lanes |= lanes
        assert allocated_lanes, "budget 0.3 must allocate something"
        assert frozenset(range(23, 31)) & allocated_lanes

    def test_bigger_budget_allocates_superset_overhead(self, injector, sensitivity):
        small = allocate_protection(sensitivity, budget_fraction=0.1)
        large = allocate_protection(sensitivity, budget_fraction=0.9)
        assert large.overhead_bits(injector.parameter_targets) >= small.overhead_bits(
            injector.parameter_targets
        )

    def test_validation(self, sensitivity):
        with pytest.raises(ValueError):
            allocate_protection(sensitivity, budget_fraction=0.0)
        with pytest.raises(ValueError):
            allocate_protection(sensitivity, budget_fraction=1.5)


class TestEvaluateScheme:
    def test_full_protection_recovers_golden(self, injector):
        comparison = evaluate_scheme(injector, ProtectionScheme.full(), p=5e-3, samples=80)
        assert comparison.protected_error == pytest.approx(injector.golden_error, abs=1e-9)
        assert comparison.recovery_fraction == pytest.approx(1.0, abs=0.05)

    def test_no_protection_changes_nothing_statistically(self, injector):
        comparison = evaluate_scheme(injector, ProtectionScheme.none(), p=5e-3, samples=120)
        assert abs(comparison.protected_error - comparison.unprotected_error) < 0.08

    def test_exponent_protection_recovers_most_error(self, injector):
        scheme = ProtectionScheme.field_everywhere("exponent")
        comparison = evaluate_scheme(injector, scheme, p=5e-3, samples=120)
        assert comparison.recovery_fraction > 0.5
        assert comparison.overhead_fraction == pytest.approx(0.25)

    def test_allocated_scheme_beats_unprotected(self, injector, sensitivity):
        scheme = allocate_protection(sensitivity, budget_fraction=0.3)
        comparison = evaluate_scheme(injector, scheme, p=5e-3, samples=120)
        assert comparison.protected_error < comparison.unprotected_error
        assert comparison.error_averted > 0

    def test_summary_row_keys(self, injector):
        comparison = evaluate_scheme(injector, ProtectionScheme.none(), p=1e-3, samples=20)
        assert {"p", "unprotected_pct", "protected_pct", "recovered_frac"} <= set(
            comparison.summary_row()
        )

    def test_recovery_fraction_clamped(self):
        from repro.protect.allocation import ProtectionComparison

        comparison = ProtectionComparison(
            p=1e-3, unprotected_error=0.01, protected_error=0.02,
            golden_error=0.01, overhead_fraction=0.0,
        )
        assert comparison.recovery_fraction == 0.0
