"""Parallel tempering over fault space."""

import numpy as np
import pytest

from repro.faults import BernoulliBitFlipModel, TargetSpec, resolve_parameter_targets
from repro.mcmc import ParallelTemperingSampler, SingleBitToggle
from repro.nn import paper_mlp


@pytest.fixture(scope="module")
def targets():
    return resolve_parameter_targets(paper_mlp(rng=0), TargetSpec.weights_and_biases())


def _total_bits(targets):
    return sum(param.size for _, param in targets) * 32


def _normalised_flips(targets):
    n = _total_bits(targets)
    return lambda cfg: cfg.total_flips() / n


def _sampler(targets, p=0.01, betas=(0.0, 200.0, 1000.0)):
    model = BernoulliBitFlipModel(p)
    return ParallelTemperingSampler(
        targets, model, _normalised_flips(targets), SingleBitToggle(targets), betas=betas
    ), model


class TestConstruction:
    def test_ladder_validation(self, targets):
        model = BernoulliBitFlipModel(0.01)
        stat = _normalised_flips(targets)
        proposal = SingleBitToggle(targets)
        with pytest.raises(ValueError, match="beta=0"):
            ParallelTemperingSampler(targets, model, stat, proposal, betas=(1.0, 2.0))
        with pytest.raises(ValueError, match="increasing"):
            ParallelTemperingSampler(targets, model, stat, proposal, betas=(0.0, 2.0, 2.0))
        with pytest.raises(ValueError, match="two rungs"):
            ParallelTemperingSampler(targets, model, stat, proposal, betas=(0.0,))
        with pytest.raises(ValueError):
            ParallelTemperingSampler([], model, stat, proposal)

    def test_run_validation(self, targets):
        sampler, _ = _sampler(targets)
        with pytest.raises(ValueError):
            sampler.run(chains=0, sweeps=10, rng=0)
        with pytest.raises(ValueError):
            sampler.run(chains=1, sweeps=0, rng=0)


class TestSampling:
    def test_hot_rungs_have_higher_statistic(self, targets):
        sampler, _ = _sampler(targets, p=0.005)
        result = sampler.run(chains=2, sweeps=200, rng=0)
        means = result.rung_means
        assert means[-1] > means[0]  # hottest rung biased toward more flips

    def test_cold_rung_matches_prior_mean(self, targets):
        p = 0.01
        sampler, model = _sampler(targets, p=p)
        result = sampler.run(chains=4, sweeps=300, rng=1)
        expected = p  # normalised flips have prior mean exactly p
        cold_mean = float(result.cold_chains.matrix(0.25).mean())
        assert cold_mean == pytest.approx(expected, rel=0.15)

    def test_swap_acceptance_in_unit_interval(self, targets):
        sampler, _ = _sampler(targets)
        result = sampler.run(chains=2, sweeps=100, rng=2)
        assert 0.0 <= result.swap_acceptance <= 1.0

    def test_cold_rung_records_its_own_acceptance(self, targets):
        """The cold chain's accept flags are its MH decisions, not a
        constant: at p = 0.05 a single-bit toggle is accepted about one
        time in ten."""
        sampler, _ = _sampler(targets, p=0.05)
        result = sampler.run(chains=2, sweeps=100, rng=4)
        for chain in result.cold_chains.chains:
            assert 0.0 < chain.acceptance_rate < 0.5

    def test_reproducible(self, targets):
        sampler, _ = _sampler(targets)
        a = sampler.run(chains=2, sweeps=50, rng=3)
        b = sampler.run(chains=2, sweeps=50, rng=3)
        assert np.array_equal(a.cold_chains.matrix(), b.cold_chains.matrix())
        assert a.swap_acceptance == b.swap_acceptance


class TestInjectorIntegration:
    def test_campaign_agrees_with_forward(self, trained_mlp, moons_eval):
        from repro.core import BayesianFaultInjector

        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(
            trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=0
        )
        p = 1e-2
        forward = injector.forward_campaign(p, samples=300)
        # hazard rows counting as errors widens the statistic's spread, so
        # the MCMC side needs a larger budget for the means to meet inside
        # the same tolerance
        tempered = injector.parallel_tempering_campaign(p, chains=4, sweeps=400)
        assert tempered.mean_error == pytest.approx(forward.mean_error, abs=0.07)
        assert tempered.method.startswith("tempering")

    def test_requires_parameter_surfaces(self, trained_mlp, moons_eval):
        from repro.core import BayesianFaultInjector
        from repro.faults import FaultSurface

        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(
            trained_mlp, eval_x, eval_y,
            spec=TargetSpec(surfaces=frozenset({FaultSurface.INPUTS})), seed=0,
        )
        with pytest.raises(ValueError, match="parameter fault surfaces"):
            injector.parallel_tempering_campaign(1e-3)
