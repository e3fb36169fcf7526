"""Hamming-weight-stratified estimator (advantage #2)."""

import numpy as np
import pytest

from repro.core import BayesianFaultInjector, StratifiedErrorEstimator
from repro.faults import FaultSurface, TargetSpec


@pytest.fixture()
def injector(trained_mlp, moons_eval):
    eval_x, eval_y = moons_eval
    return BayesianFaultInjector(
        trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=0
    )


class TestStrata:
    def test_weights_cover_binomial_mass(self, injector):
        estimator = StratifiedErrorEstimator(injector, samples_per_stratum=5)
        ks, weights = estimator.strata_for(1e-4)
        assert weights.sum() > 1 - 2 * estimator.mass_tolerance
        assert ks[0] == 0

    def test_stratum_zero_is_golden(self, injector):
        estimator = StratifiedErrorEstimator(injector, samples_per_stratum=5)
        values = estimator.conditional_error_samples(0)
        assert values.tolist() == [injector.golden_error]

    def test_conditional_samples_cached(self, injector):
        estimator = StratifiedErrorEstimator(injector, samples_per_stratum=5)
        first = estimator.conditional_error_samples(2)
        spent = estimator.evaluations_spent
        second = estimator.conditional_error_samples(2)
        assert np.array_equal(first, second)
        assert estimator.evaluations_spent == spent  # no new forward passes

    def test_invalid_k(self, injector):
        estimator = StratifiedErrorEstimator(injector, samples_per_stratum=5)
        with pytest.raises(ValueError):
            estimator.conditional_error_samples(-1)

    def test_invalid_p(self, injector):
        estimator = StratifiedErrorEstimator(injector, samples_per_stratum=5)
        with pytest.raises(ValueError):
            estimator.strata_for(0.0)

    def test_exact_flip_count_configurations(self, injector, rng):
        estimator = StratifiedErrorEstimator(injector, samples_per_stratum=5)
        for k in (1, 3, 7):
            cfg = estimator.configuration_with_flips(k, rng)
            assert cfg.total_flips() == k

    def test_transient_surfaces_rejected(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        spec = TargetSpec(surfaces=frozenset({FaultSurface.WEIGHTS, FaultSurface.ACTIVATIONS}))
        inj = BayesianFaultInjector(trained_mlp, eval_x, eval_y, spec=spec, seed=0)
        with pytest.raises(ValueError, match="parameter surfaces only"):
            StratifiedErrorEstimator(inj)


class TestEstimates:
    def test_agrees_with_forward_sampling(self, injector):
        p = 2e-3
        estimator = StratifiedErrorEstimator(injector, samples_per_stratum=40)
        stratified = estimator.estimate(p)
        forward = injector.forward_campaign(p, samples=600)
        assert stratified.mean_error == pytest.approx(forward.mean_error, abs=0.03)

    def test_variance_reduction_at_small_p(self, injector):
        """At p where most draws have zero flips, the stratified estimator's
        standard error beats plain MC at a comparable budget."""
        p = 5e-5
        estimator = StratifiedErrorEstimator(injector, samples_per_stratum=50)
        stratified = estimator.estimate(p)

        forward = injector.forward_campaign(p, samples=max(stratified.evaluations, 50))
        values = forward.posterior.samples
        mc_std = values.std(ddof=1) / np.sqrt(len(values))
        assert stratified.std_error < mc_std + 1e-9

    def test_sweep_reuses_conditionals(self, injector):
        estimator = StratifiedErrorEstimator(injector, samples_per_stratum=10)
        estimates = estimator.sweep(np.array([1e-5, 3e-5, 1e-4]))
        assert len(estimates) == 3
        # Later points mostly reuse strata: total spend well below 3x a full sweep.
        total_unique_strata = len(estimator._conditional_cache)
        assert estimator.evaluations_spent == total_unique_strata * 10

    def test_as_campaign_result(self, injector):
        estimator = StratifiedErrorEstimator(injector, samples_per_stratum=10)
        result = estimator.estimate(1e-3).as_campaign_result()
        assert result.method == "stratified"
        assert 0.0 <= result.mean_error <= 1.0

    def test_construction_validation(self, injector):
        with pytest.raises(ValueError):
            StratifiedErrorEstimator(injector, samples_per_stratum=0)
        with pytest.raises(ValueError):
            StratifiedErrorEstimator(injector, mass_tolerance=0.0)


class TestExactDecomposition:
    def test_matches_analytic_mixture_on_known_statistic(self, injector):
        """Check Σ P(K=k)·E[stat|k] against the analytic E[stat] when the
        statistic is the flip count itself (E = N·p)."""
        estimator = StratifiedErrorEstimator(injector, samples_per_stratum=1)
        p = 1e-4
        ks, weights = estimator.strata_for(p)
        mean_from_strata = float((ks * weights).sum())
        analytic = estimator.total_bits * p
        residual = 1.0 - weights.sum()
        assert mean_from_strata == pytest.approx(analytic, rel=0.01 + residual)
