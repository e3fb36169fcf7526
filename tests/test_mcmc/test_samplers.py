"""Samplers and proposals over fault-configuration space.

The crucial statistical property: the MH kernel targeting the fault prior
must agree with exact i.i.d. forward sampling — same stationary
distribution. We verify on the cheap "total flips" statistic, whose exact
law is Binomial(N, p).
"""

import math

import numpy as np
import pytest

from repro.faults import BernoulliBitFlipModel, FaultConfiguration, TargetSpec, resolve_parameter_targets
from repro.mcmc import (
    BlockResample,
    ForwardSampler,
    MetropolisHastingsSampler,
    MixtureProposal,
    SingleBitToggle,
)
from repro.mcmc.metropolis import StatisticRounds, metropolis_accept, metropolis_step
from repro.nn import paper_mlp


@pytest.fixture(scope="module")
def targets():
    return resolve_parameter_targets(paper_mlp(rng=0), TargetSpec.weights_and_biases())


def _flip_stat(cfg):
    return float(cfg.total_flips())


def _flip_score(block):
    return [_flip_stat(row) for row in block]


def _total_bits(targets):
    return sum(param.size for _, param in targets) * 32


class TestForwardSampler:
    def test_mean_flips_matches_binomial(self, targets):
        p = 0.02
        sampler = ForwardSampler(targets, BernoulliBitFlipModel(p), _flip_score)
        chains = sampler.run(chains=2, steps=250, rng=0)
        expected = _total_bits(targets) * p
        std = np.sqrt(_total_bits(targets) * p * (1 - p) / 500)
        assert abs(chains.mean() - expected) < 5 * std
        # the recorded flips are the block's per-row counts, which the
        # scored statistic recomputes from each row
        assert np.array_equal(chains.chains[0].values, chains.chains[0].flips)

    def test_chains_are_independent_streams(self, targets):
        sampler = ForwardSampler(targets, BernoulliBitFlipModel(0.05), _flip_score)
        chains = sampler.run(chains=2, steps=20, rng=1)
        assert not np.array_equal(chains.chains[0].values, chains.chains[1].values)

    def test_reproducible_for_equal_seed(self, targets):
        sampler = ForwardSampler(targets, BernoulliBitFlipModel(0.05), _flip_score)
        a = sampler.run(chains=2, steps=30, rng=42).matrix()
        b = sampler.run(chains=2, steps=30, rng=42).matrix()
        assert np.array_equal(a, b)

    def test_blocks_draw_as_one_sample_per_step(self, targets):
        """A chain longer than a block scores each block once, and its rows
        are the configurations one ``sample`` call per step would draw."""
        from repro.mcmc.forward import BLOCK_ROWS

        model = BernoulliBitFlipModel(0.01)
        blocks = []

        def score(block):
            blocks.append(len(block))
            return _flip_score(block)

        steps = 2 * BLOCK_ROWS + 3
        chain = ForwardSampler(targets, model, score).run_chain(steps, np.random.default_rng(9))
        assert blocks == [BLOCK_ROWS, BLOCK_ROWS, 3]
        rng = np.random.default_rng(9)
        want = [FaultConfiguration.sample(targets, model, rng).total_flips() for _ in range(steps)]
        assert chain.flips.tolist() == want
        assert chain.values.tolist() == [float(flips) for flips in want]

    def test_validation(self, targets):
        sampler = ForwardSampler(targets, BernoulliBitFlipModel(0.1), _flip_score)
        with pytest.raises(ValueError):
            sampler.run(chains=0, steps=5, rng=0)
        with pytest.raises(ValueError):
            sampler.run_chain(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ForwardSampler([], BernoulliBitFlipModel(0.1), _flip_score)


class TestProposals:
    def test_single_bit_toggle_changes_one_bit(self, targets, rng):
        proposal = SingleBitToggle(targets)
        state = FaultConfiguration.empty(targets)
        candidate, log_h = proposal.propose(state, rng)
        assert log_h == 0.0
        assert candidate.total_flips() == 1
        assert state.total_flips() == 0  # original untouched

    def test_toggle_is_an_involution_in_distribution(self, targets, rng):
        proposal = SingleBitToggle(targets, bits_per_toggle=3)
        state = FaultConfiguration.empty(targets)
        candidate, _ = proposal.propose(state, rng)
        assert candidate.total_flips() == 3

    def test_block_resample_hastings_ratio(self, targets, rng):
        model = BernoulliBitFlipModel(0.05)
        proposal = BlockResample(targets, model)
        state = FaultConfiguration.sample(targets, model, rng)
        candidate, log_h = proposal.propose(state, rng)
        # For the prior target, acceptance = prior(new)/prior(old) * hastings
        # must be exactly 1 (Gibbs move).
        log_alpha = candidate.log_prob(model) - state.log_prob(model) + log_h
        assert log_alpha == pytest.approx(0.0, abs=1e-9)

    def test_mixture_weights_validated(self, targets):
        with pytest.raises(ValueError):
            MixtureProposal([])
        with pytest.raises(ValueError):
            MixtureProposal([(SingleBitToggle(targets), 0.0)])


class _CountingSession:
    def __init__(self) -> None:
        self.commits = 0

    def commit(self) -> None:
        self.commits += 1


class _CountingScorer:
    """A round scorer over ``statistic`` whose sessions count commits."""

    def __init__(self, statistic) -> None:
        self.statistic = statistic

    def session(self) -> _CountingSession:
        return _CountingSession()

    def evaluate_round(self, sessions, candidates):
        return [self.statistic(candidate) for candidate in candidates]


class _HastingsByState:
    """Toggle one bit, with a log Hastings ratio chosen by the current state."""

    def __init__(self, targets, log_hastings: dict) -> None:
        self.toggle, self.log_hastings = SingleBitToggle(targets), log_hastings

    def propose(self, state, rng):
        candidate, _ = self.toggle.propose(state, rng)
        return candidate, self.log_hastings[id(state)]


class TestMetropolisStep:
    def test_accept_draws_only_when_log_alpha_negative(self):
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        assert metropolis_accept(0.0, rng) and metropolis_accept(3.0, rng)
        assert rng.random() == ref.random()  # no uniform taken
        for log_alpha in (-0.7, -1e-9, -50.0, -math.inf):
            u = ref.random()
            assert metropolis_accept(log_alpha, rng) == (math.log(u) < log_alpha)
        assert rng.random() == ref.random()  # exactly one uniform per test
        assert not metropolis_accept(-math.inf, np.random.default_rng(0))

    def test_rejected_chain_keeps_state_and_skips_commit(self, targets):
        model = BernoulliBitFlipModel(0.01)
        rng = np.random.default_rng(0)
        states = [FaultConfiguration.sample(targets, model, rng) for _ in range(2)]
        proposal = _HastingsByState(targets, {id(states[0]): math.inf, id(states[1]): -math.inf})
        scorer = _CountingScorer(_flip_stat)
        sessions = [scorer.session(), scorer.session()]
        before = list(states)
        scores = [_flip_stat(state) for state in states]
        log_priors = [state.log_prob(model) for state in states]
        accepted = metropolis_step(
            scorer, proposal, model, 1.0, sessions, states, scores, log_priors,
            [np.random.default_rng(1), np.random.default_rng(2)],
        )
        assert accepted == [True, False]
        assert [session.commits for session in sessions] == [1, 0]
        assert states[0] is not before[0] and states[1] is before[1]
        assert scores == [_flip_stat(states[0]), _flip_stat(before[1])]
        assert log_priors == [states[0].log_prob(model), before[1].log_prob(model)]

    def test_round_matches_chains_stepped_alone(self, targets):
        """Each chain draws only from its own generator, so sharing a round
        changes nothing about any chain."""
        model, proposal, beta = BernoulliBitFlipModel(0.005), SingleBitToggle(targets), 0.5
        scorer = StatisticRounds(_flip_stat)

        def walk(seeds):
            generators = [np.random.default_rng(seed) for seed in seeds]
            states = [FaultConfiguration.sample(targets, model, g) for g in generators]
            scores = [_flip_stat(state) for state in states]
            log_priors = [state.log_prob(model) for state in states]
            sessions = [scorer.session() for _ in seeds]
            trace = []
            for _ in range(40):
                accepted = metropolis_step(
                    scorer, proposal, model, beta, sessions, states, scores, log_priors, generators
                )
                trace.append((accepted, list(scores), list(log_priors)))
            return trace

        together = walk([11, 12])
        alone = [walk([11]), walk([12])]
        for i in range(2):
            assert [(a[i], s[i], lp[i]) for a, s, lp in together] == [
                (a[0], s[0], lp[0]) for a, s, lp in alone[i]
            ]
        assert any(not a[0] for a, _, _ in together)  # some steps were rejected

    def test_beta_zero_walk_ignores_statistic(self, targets):
        """At β = 0 the target is the prior: the statistic is recorded but
        never moves the walk."""
        model, proposal = BernoulliBitFlipModel(0.01), SingleBitToggle(targets)
        runs = [
            MetropolisHastingsSampler(targets, model, stat, proposal).run(chains=2, steps=60, rng=8)
            for stat in (_flip_stat, lambda cfg: 0.0)
        ]
        for flips_chain, constant_chain in zip(runs[0].chains, runs[1].chains):
            assert np.array_equal(flips_chain.flips, constant_chain.flips)
            assert np.array_equal(flips_chain.accepts, constant_chain.accepts)
            assert not constant_chain.values.any()

    def test_sampler_run_validation(self, targets):
        sampler = MetropolisHastingsSampler(
            targets, BernoulliBitFlipModel(0.01), _flip_stat, SingleBitToggle(targets)
        )
        with pytest.raises(ValueError, match="chains"):
            sampler.run(chains=0, steps=10, rng=0)
        with pytest.raises(ValueError, match="steps"):
            sampler.run(chains=1, steps=0, rng=0)


class TestMetropolisHastings:
    def test_prior_target_matches_forward_sampling(self, targets):
        """MH stationary distribution = prior: flip-count means must agree."""
        p = 0.02
        model = BernoulliBitFlipModel(p)
        proposal = MixtureProposal(
            [(SingleBitToggle(targets), 0.3), (BlockResample(targets, model), 0.7)]
        )
        sampler = MetropolisHastingsSampler(targets, model, _flip_stat, proposal)
        chains = sampler.run(chains=4, steps=300, rng=2)
        expected = _total_bits(targets) * p
        # Generous tolerance: MH samples are correlated.
        assert abs(chains.mean(0.25) - expected) < 0.05 * expected

    def test_block_resample_always_accepted_on_prior(self, targets):
        model = BernoulliBitFlipModel(0.05)
        sampler = MetropolisHastingsSampler(
            targets, model, _flip_stat, BlockResample(targets, model)
        )
        (chain,) = sampler.run(chains=1, steps=100, rng=3).chains
        assert chain.acceptance_rate == 1.0

    def test_single_bit_toggle_acceptance_reflects_prior(self, targets):
        # At small p a toggle almost always turns a bit ON, accepted w.p.
        # ~p/(1-p); turning one OFF is always accepted but rarely proposed.
        # From a prior draw, acceptance must therefore be far below 1.
        p = 0.001
        model = BernoulliBitFlipModel(p)
        sampler = MetropolisHastingsSampler(targets, model, _flip_stat, SingleBitToggle(targets))
        (chain,) = sampler.run(chains=1, steps=300, rng=4).chains
        assert chain.acceptance_rate < 0.1

    def test_reproducibility(self, targets):
        model = BernoulliBitFlipModel(0.02)
        make = lambda: MetropolisHastingsSampler(
            targets, model, _flip_stat, BlockResample(targets, model)
        )
        a = make().run(chains=2, steps=50, rng=5).matrix()
        b = make().run(chains=2, steps=50, rng=5).matrix()
        assert np.array_equal(a, b)

    def test_tempered_target_biases_toward_high_statistic(self, targets):
        """β>0 should shift the chain toward configurations with more flips
        (using flips as the 'error' statistic)."""
        model = BernoulliBitFlipModel(0.01)
        normaliser = _total_bits(targets)
        stat = lambda cfg: cfg.total_flips() / normaliser
        plain = MetropolisHastingsSampler(
            targets, model, stat, BlockResample(targets, model)
        ).run(chains=2, steps=200, rng=6)
        tempered = MetropolisHastingsSampler(
            targets, model, stat, SingleBitToggle(targets), beta=2000.0
        ).run(chains=2, steps=200, rng=7)
        assert tempered.mean(0.5) > plain.mean(0.5)

    def test_importance_weights_recover_prior(self, trained_mlp, moons_eval):
        from repro.core import BayesianFaultInjector

        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(trained_mlp, eval_x, eval_y, seed=0)
        # β=0: the importance weights are all equal, so the weighted
        # estimate is the raw mean of the retained chain tails.
        result, weighted = injector.tempered_campaign(2e-2, beta=0.0, chains=2, steps=30)
        tails = np.concatenate([c.tail(result.discard_fraction) for c in result.chains.chains])
        assert weighted == pytest.approx(float(tails.mean()), rel=1e-12)
        assert len(set(tails.tolist())) > 1  # the weights average something
