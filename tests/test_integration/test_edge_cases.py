"""Cross-cutting edge cases not covered by per-module suites."""

import math

import numpy as np
import pytest

from repro.core import BayesianFaultInjector, OutcomeCampaign
from repro.faults import (
    BernoulliBitFlipModel,
    BurstBitFlipModel,
    FaultConfiguration,
    HeterogeneousBitFlipModel,
    TargetSpec,
)
from repro.mcmc import MetropolisHastingsSampler, SingleBitToggle
from repro.mcmc.metropolis import StatisticRounds, metropolis_step


@pytest.fixture()
def injector(trained_mlp, moons_eval):
    eval_x, eval_y = moons_eval
    return BayesianFaultInjector(
        trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=0
    )


class _CountingRng:
    """A generator stub: a fixed uniform, and how many were drawn."""

    def __init__(self, u: float) -> None:
        self.u, self.draws = u, 0

    def random(self) -> float:
        self.draws += 1
        return self.u


class _FixedProposal:
    def __init__(self, candidate, log_hastings: float) -> None:
        self.candidate, self.log_hastings = candidate, log_hastings

    def propose(self, state, rng):
        return self.candidate, self.log_hastings


class TestTargetsAPI:
    def test_prior_target_importance_weight_zero(self, injector):
        # β=0 is the prior: every importance weight is one, so the weighted
        # error is the campaign's own (tail) mean
        result, weighted = injector.tempered_campaign(1e-2, beta=0.0, chains=2, steps=20)
        assert weighted == result.mean_error
        assert np.isfinite(weighted)

    def test_tempered_target_density_decomposes(self, injector):
        """One accept decision on log prior + β·score, by the formula; the
        uniform is drawn only when log α < 0."""
        model, beta = BernoulliBitFlipModel(1e-3), 4.0
        state = FaultConfiguration.empty(injector.parameter_targets)
        candidate, _ = SingleBitToggle(injector.parameter_targets).propose(
            state, np.random.default_rng(0)
        )
        scorer = StatisticRounds(lambda cfg: 0.75 if cfg is candidate else 0.25)
        for log_hastings, draws in ((0.0, 1), (10.0, 0)):
            log_alpha = (
                (candidate.log_prob(model) + beta * 0.75)
                - (state.log_prob(model) + beta * 0.25)
                + log_hastings
            )
            assert (log_alpha < 0) == bool(draws)
            for u in (0.5 * math.exp(min(log_alpha, 0.0)), 1 - 1e-12):
                rng = _CountingRng(u)
                states, scores, log_priors = [state], [0.25], [state.log_prob(model)]
                (accepted,) = metropolis_step(
                    scorer, _FixedProposal(candidate, log_hastings), model, beta,
                    [scorer.session()], states, scores, log_priors, [rng],
                )
                assert rng.draws == draws
                assert accepted == (log_alpha >= 0 or math.log(u) < log_alpha)
                want = (candidate, 0.75, candidate.log_prob(model)) if accepted else (
                    state, 0.25, state.log_prob(model)
                )
                assert (states[0], scores[0], log_priors[0]) == want

    def test_tempered_beta_validation(self, injector):
        model = BernoulliBitFlipModel(1e-3)
        targets = injector.parameter_targets
        with pytest.raises(ValueError, match="non-negative"):
            MetropolisHastingsSampler(
                targets, model, lambda c: 0.0, SingleBitToggle(targets), beta=-1.0
            )


class TestAlternativeModelsThroughCampaigns:
    """Every mask-based fault model must compose with the full campaign API."""

    @pytest.mark.parametrize(
        "fault_model",
        [
            HeterogeneousBitFlipModel.ecc_on_exponent(5e-3),
            BurstBitFlipModel(5e-3, burst_length=3),
            BernoulliBitFlipModel(5e-3, bits=(29, 30, 31)),
        ],
        ids=["heterogeneous-ecc", "burst", "lane-restricted"],
    )
    def test_forward_campaign_accepts_model(self, injector, fault_model):
        campaign = injector.forward_campaign(5e-3, samples=40, fault_model=fault_model)
        assert 0.0 <= campaign.mean_error <= 1.0
        assert campaign.total_evaluations == 40

    def test_outcome_campaign_with_custom_model(self, injector):
        campaign = OutcomeCampaign(injector).run(
            5e-3, samples=40, fault_model=BurstBitFlipModel(5e-3, burst_length=2)
        )
        assert campaign.masked_rate + campaign.sdc_rate + campaign.due_rate == pytest.approx(1.0)


class TestInjectorStreamIsolation:
    def test_named_streams_are_independent(self, injector):
        a = injector.forward_campaign(1e-3, samples=30, stream="alpha")
        b = injector.forward_campaign(1e-3, samples=30, stream="beta")
        assert not np.array_equal(a.chains.matrix(), b.chains.matrix())

    def test_same_stream_same_result(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval

        def run():
            injector = BayesianFaultInjector(
                trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=5
            )
            return injector.forward_campaign(1e-3, samples=30, stream="gamma").chains.matrix()

        assert np.array_equal(run(), run())


class TestGoldenStateInvariants:
    def test_many_campaign_kinds_leave_weights_untouched(self, trained_mlp, moons_eval):
        """The strongest hygiene invariant: after every campaign style, the
        golden bit patterns are exactly intact."""
        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(
            trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=9
        )
        before = {
            name: param.data.view(np.uint32).copy()
            for name, param in injector.parameter_targets
        }
        injector.forward_campaign(1e-2, samples=20)
        injector.mcmc_campaign(1e-2, chains=2, steps=10)
        injector.tempered_campaign(1e-2, beta=2.0, chains=2, steps=10)
        injector.parallel_tempering_campaign(1e-2, chains=1, sweeps=10)
        OutcomeCampaign(injector).run(1e-2, samples=10)
        for name, param in injector.parameter_targets:
            assert np.array_equal(before[name], param.data.view(np.uint32)), name
