"""Each sampler keeps one loop; the standard path only swaps the scorer.

A campaign over weights *and* activations shares one transient fault
stream between its chains (or replicas), so its values depend on the
order the chains consume that stream. The references below are compact
sequential samplers — one chain, or one replica system, after the other,
one configuration at a time — that read the injector's own streams; the
campaigns, which run the samplers' block and round loops, must reproduce
them bit for bit. (A stream name hands out a fresh generator on every
request, so a reference and a campaign on one injector draw alike.)
"""

import math

import pytest

from repro.core import BayesianFaultInjector
from repro.faults import BernoulliBitFlipModel, FaultConfiguration, FaultSurface, TargetSpec
from repro.utils.rng import spawn_generators

P = 2e-2
MIXED = TargetSpec(surfaces=frozenset({FaultSurface.WEIGHTS, FaultSurface.ACTIVATIONS}))


@pytest.fixture()
def injector(trained_mlp, moons_eval):
    eval_x, eval_y = moons_eval
    injector = BayesianFaultInjector(trained_mlp, eval_x, eval_y, spec=MIXED, seed=17)
    assert injector._engine() is None  # transient surfaces run the standard path
    return injector


def streams(injector, stream, chains):
    """(statistic, per-chain generators, fault model) exactly as the campaign draws them."""
    factory = injector._rng_factory
    model = BernoulliBitFlipModel(P)
    statistic = injector.make_statistic(model, factory.stream(f"{stream}:transient:p={P!r}"))
    return statistic, spawn_generators(factory.stream(f"{stream}:p={P!r}"), chains), model


def forward_reference(injector, chains, steps):
    statistic, generators, model = streams(injector, "forward", chains)
    return [
        [
            statistic(FaultConfiguration.sample(injector.parameter_targets, model, rng))
            for _ in range(steps)
        ]
        for rng in generators
    ]


def mcmc_reference(injector, chains, steps):
    statistic, generators, model = streams(injector, "mcmc", chains)
    proposal = injector._make_proposal(model, toggle_weight=0.5, resample_weight=0.5)
    out = []
    for rng in generators:
        state = FaultConfiguration.sample(injector.parameter_targets, model, rng)
        stat, logd = statistic(state), state.log_prob(model)
        values = []
        for _ in range(steps):
            candidate, log_hastings = proposal.propose(state, rng)
            candidate_stat, candidate_logd = statistic(candidate), candidate.log_prob(model)
            log_alpha = candidate_logd - logd + log_hastings
            if (math.log(rng.random()) < log_alpha) if log_alpha < 0 else True:
                state, stat, logd = candidate, candidate_stat, candidate_logd
            values.append(stat)
        out.append(values)
    return out


def tempering_reference(injector, chains, sweeps, betas):
    """(cold-rung values, cold-rung MH accept flags, swap accepts)."""
    statistic, generators, model = streams(injector, "tempering", chains)
    proposal = injector._make_proposal(model, toggle_weight=0.8, resample_weight=0.2)
    out, accepts, swaps = [], [], 0
    for rng in generators:
        states = [
            FaultConfiguration.sample(injector.parameter_targets, model, rng) for _ in betas
        ]
        stats = [statistic(state) for state in states]
        priors = [state.log_prob(model) for state in states]
        cold, cold_accepts = [], []
        for _ in range(sweeps):
            for rung, beta in enumerate(betas):
                candidate, log_hastings = proposal.propose(states[rung], rng)
                candidate_stat, candidate_prior = statistic(candidate), candidate.log_prob(model)
                log_alpha = (
                    (candidate_prior + beta * candidate_stat)
                    - (priors[rung] + beta * stats[rung])
                    + log_hastings
                )
                accepted = log_alpha >= 0 or math.log(rng.random()) < log_alpha
                if accepted:
                    states[rung], stats[rung], priors[rung] = candidate, candidate_stat, candidate_prior
                if rung == 0:
                    cold_accepts.append(accepted)
            low = int(rng.integers(0, len(betas) - 1))
            log_alpha = (betas[low] - betas[low + 1]) * (stats[low + 1] - stats[low])
            if log_alpha >= 0 or math.log(rng.random()) < log_alpha:
                for column in (states, stats, priors):
                    column[low], column[low + 1] = column[low + 1], column[low]
                swaps += 1
            cold.append(stats[0])
        out.append(cold)
        accepts.append(cold_accepts)
    return out, accepts, swaps


def test_mixed_forward_campaign_matches_sequential_reference(injector):
    want = forward_reference(injector, chains=2, steps=70)
    result = injector.forward_campaign(P, samples=140, chains=2)
    assert result.chains.matrix().tolist() == want
    assert len(set(want[0])) > 1  # the transient draws actually move the statistic


def test_mixed_mcmc_campaign_matches_sequential_reference(injector):
    want = mcmc_reference(injector, chains=2, steps=25)
    result = injector.mcmc_campaign(P, chains=2, steps=25)
    assert result.chains.matrix().tolist() == want


def test_mixed_tempering_campaign_matches_sequential_reference(injector):
    betas = (0.0, 10.0, 40.0)
    want, accepts, swaps = tempering_reference(injector, chains=2, sweeps=15, betas=betas)
    result = injector.parallel_tempering_campaign(P, chains=2, sweeps=15, betas=betas)
    assert result.chains.matrix().tolist() == want
    assert swaps > 0  # the reference exercised the swap branch
    # the cold chains record the cold rung's own MH decisions, not swaps
    assert [chain.accepts.tolist() for chain in result.chains.chains] == accepts
    assert not all(all(flags) for flags in accepts)
