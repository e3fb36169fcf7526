"""Samplers and proposals over fault-configuration space.

The crucial statistical property: the MH kernel targeting the fault prior
must agree with exact i.i.d. forward sampling — same stationary
distribution. We verify on the cheap "total flips" statistic, whose exact
law is Binomial(N, p).
"""

import numpy as np
import pytest

from repro.faults import BernoulliBitFlipModel, FaultConfiguration, TargetSpec, resolve_parameter_targets
from repro.mcmc import (
    BlockResample,
    ForwardSampler,
    MetropolisHastingsSampler,
    MixtureProposal,
    PriorTarget,
    SingleBitToggle,
    TemperedErrorTarget,
)
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


class TestMetropolisHastings:
    def test_prior_target_matches_forward_sampling(self, targets):
        """MH stationary distribution = prior: flip-count means must agree."""
        p = 0.02
        model = BernoulliBitFlipModel(p)
        proposal = MixtureProposal(
            [(SingleBitToggle(targets), 0.3), (BlockResample(targets, model), 0.7)]
        )
        sampler = MetropolisHastingsSampler(
            PriorTarget(model),
            proposal,
            _flip_stat,
            initial=lambda r: FaultConfiguration.sample(targets, model, r),
        )
        chains = sampler.run(chains=4, steps=300, rng=2)
        expected = _total_bits(targets) * p
        # Generous tolerance: MH samples are correlated.
        assert abs(chains.mean(0.25) - expected) < 0.05 * expected

    def test_block_resample_always_accepted_on_prior(self, targets):
        model = BernoulliBitFlipModel(0.05)
        sampler = MetropolisHastingsSampler(
            PriorTarget(model),
            BlockResample(targets, model),
            _flip_stat,
            initial=lambda r: FaultConfiguration.sample(targets, model, r),
        )
        (chain,) = sampler.run(chains=1, steps=100, rng=3).chains
        assert chain.acceptance_rate == 1.0

    def test_single_bit_toggle_acceptance_reflects_prior(self, targets):
        # At small p, turning a bit ON is accepted w.p. ~p/(1-p); turning OFF
        # always. Starting from the empty config, acceptance ≈ p/(1-p) early,
        # so overall acceptance must be far below 1.
        p = 0.001
        model = BernoulliBitFlipModel(p)
        sampler = MetropolisHastingsSampler(
            PriorTarget(model),
            SingleBitToggle(targets),
            _flip_stat,
            initial=lambda r: FaultConfiguration.empty(targets),
        )
        (chain,) = sampler.run(chains=1, steps=300, rng=4).chains
        assert chain.acceptance_rate < 0.1

    def test_reproducibility(self, targets):
        model = BernoulliBitFlipModel(0.02)
        make = lambda: MetropolisHastingsSampler(
            PriorTarget(model),
            BlockResample(targets, model),
            _flip_stat,
            initial=lambda r: FaultConfiguration.sample(targets, model, r),
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
            PriorTarget(model),
            BlockResample(targets, model),
            stat,
            initial=lambda r: FaultConfiguration.sample(targets, model, r),
        ).run(chains=2, steps=200, rng=6)
        tempered = MetropolisHastingsSampler(
            TemperedErrorTarget(model, stat, beta=2000.0),
            SingleBitToggle(targets),
            stat,
            initial=lambda r: FaultConfiguration.sample(targets, model, r),
        ).run(chains=2, steps=200, rng=7)
        assert tempered.mean(0.5) > plain.mean(0.5)

    def test_importance_weights_recover_prior(self, targets):
        target = TemperedErrorTarget(BernoulliBitFlipModel(0.01), _flip_stat, beta=0.0)
        # β=0: weights are all zero in log space → estimate equals raw mean.
        assert target.importance_log_weight(None, 0.5) == 0.0
