"""MCMC inference over fault-configuration space.

The paper "perform[s] inference multiple times on the DBN using MCMC to
obtain the classification uncertainty of the network for different flip
probabilities", and uses **MCMC mixing** to decide when an injection
campaign is complete (advantage #1 over traditional FI).

Components:

* Proposals — single-bit toggles (local moves), block resampling from the
  prior (global moves), and mixtures.
* :class:`~repro.mcmc.metropolis.MetropolisHastingsSampler`,
  :class:`~repro.mcmc.tempering.ParallelTemperingSampler` and
  :class:`~repro.mcmc.forward.ForwardSampler` (i.i.d. ancestral draws).
  Each keeps one sampling loop and is handed what scores it: a forward
  sampler a ``score(block)`` callable, a chain sampler a round scorer
  (the segment engine's delta rounds, or
  :class:`~repro.mcmc.metropolis.StatisticRounds` over the standard
  statistic). The engine and the standard path differ only there, and
  they score the same values bit for bit.
* The chain samplers' target — the fault prior tempered by the
  statistic, ∝ prior·exp(β·error). β = 0 is the prior itself (whose
  push-forward is the fault-induced output distribution); β > 0 biases
  the walk toward error-causing configurations for rare-event
  exploration. Both chain samplers take the one MH step
  :func:`~repro.mcmc.metropolis.metropolis_step`, which accepts on
  log prior + β·score, each score from the round that scored its state.
* :mod:`~repro.mcmc.diagnostics` — split-R̂ (Gelman–Rubin), effective
  sample size, Geweke z, autocorrelation.
* :class:`~repro.mcmc.mixing.CompletenessCriterion` — converts diagnostics
  into the paper's stop-when-mixed campaign-completeness decision.
"""

from repro.mcmc.chain import Chain, ChainSet
from repro.mcmc.proposals import SingleBitToggle, BlockResample, MixtureProposal
from repro.mcmc.forward import ForwardSampler
from repro.mcmc.metropolis import MetropolisHastingsSampler
from repro.mcmc.tempering import ParallelTemperingSampler, TemperingResult
from repro.mcmc.diagnostics import (
    split_r_hat,
    effective_sample_size,
    geweke_z,
    autocorrelation,
    monte_carlo_standard_error,
)
from repro.mcmc.mixing import CompletenessCriterion, CompletenessReport

__all__ = [
    "Chain",
    "ChainSet",
    "SingleBitToggle",
    "BlockResample",
    "MixtureProposal",
    "ForwardSampler",
    "MetropolisHastingsSampler",
    "ParallelTemperingSampler",
    "TemperingResult",
    "split_r_hat",
    "effective_sample_size",
    "geweke_z",
    "autocorrelation",
    "monte_carlo_standard_error",
    "CompletenessCriterion",
    "CompletenessReport",
]
