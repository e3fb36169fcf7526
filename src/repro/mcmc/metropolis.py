"""Metropolis–Hastings over fault-configuration space.

State: a :class:`~repro.faults.FaultConfiguration`. Target: the fault
model's prior tempered by the statistic, ∝ prior(e)·exp(β·statistic(e));
β = 0 is the prior itself, and β > 0 biases the walk toward
error-causing configurations (the rare-event regime), reweighted back to
the prior by the campaign. Proposal: any object with
``propose(state, rng) → (candidate, log_hastings)``.

:func:`metropolis_step` is the one MH step, shared by this sampler and
:class:`~repro.mcmc.tempering.ParallelTemperingSampler`: it proposes one
candidate per chain, scores the round, and accepts on
``log prior + β·score``. Every state's score is already in hand from the
round that scored it, so a rejected step costs no forward pass and the
density costs none at all. The loop differs between the segment engine
and the standard path only in the round scorer it is handed (a delta
engine, or :class:`StatisticRounds` over the plain statistic).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

import repro.obs as obs
from repro.faults.configuration import FaultConfiguration
from repro.faults.model import FaultModel
from repro.mcmc.chain import Chain, ChainSet
from repro.mcmc.forward import PROGRESS_EVERY
from repro.utils.rng import spawn_generators

__all__ = [
    "MetropolisHastingsSampler",
    "StatisticRounds",
    "metropolis_accept",
    "metropolis_step",
    "round_groups",
]


class _Unstaged:
    """The session of :class:`StatisticRounds`: nothing is cached, so nothing commits."""

    __slots__ = ()

    def commit(self) -> None:
        pass


class StatisticRounds:
    """Score a round of chain proposals by calling ``statistic`` on each.

    The samplers' standard path, with the round interface of
    :class:`~repro.core.delta.DeltaChainEvaluator`, so the engine and the
    standard path differ only in how a round is scored.
    """

    def __init__(self, statistic: Callable[[FaultConfiguration], float]) -> None:
        self.statistic = statistic

    def session(self) -> _Unstaged:
        return _Unstaged()

    def evaluate_round(self, sessions: list, candidates: list[FaultConfiguration]) -> list[float]:
        return [self.statistic(candidate) for candidate in candidates]


def round_groups(engine, statistic: Callable[[FaultConfiguration], float], generators: list):
    """(round scorer, generator groups) for a chain sampler's run.

    With an engine every chain shares each round. Without one, each chain
    is its own group, run to the end before the next starts: a statistic
    over parameter *and* transient surfaces draws the transient faults
    from one stream shared by all chains, and must consume it chain by
    chain.
    """
    if engine is not None:
        return engine, [generators]
    return StatisticRounds(statistic), [[generator] for generator in generators]


def metropolis_accept(log_alpha: float, rng: np.random.Generator) -> bool:
    """The Metropolis test: accept outright when ``log_alpha >= 0``, else
    draw one uniform from ``rng`` and accept when its log is below it."""
    return log_alpha >= 0 or math.log(rng.random()) < log_alpha


def metropolis_step(
    scorer,
    proposal,
    fault_model: FaultModel,
    beta: float,
    sessions: list,
    states: list[FaultConfiguration],
    scores: list[float],
    log_priors: list[float],
    generators: list,
) -> list[bool]:
    """One MH step of every chain in a round; returns the accept flags.

    Chain ``i`` is ``sessions[i]``, ``states[i]``, its score
    ``scores[i]``, its log prior ``log_priors[i]`` and its generator. Each
    chain proposes one candidate, ``scorer.evaluate_round`` scores them
    all, and chain ``i`` accepts on
    ``log α = (lp' + β·s') − (lp + β·s) + log_hastings`` (see
    :func:`metropolis_accept`). An accepted chain takes the candidate, its
    score and log prior in place, and commits its session. Each chain
    draws from its own generator in the same order (proposal, then the
    accept draw when ``log α < 0``) however many chains share the round.
    """
    proposals = [proposal.propose(state, rng) for state, rng in zip(states, generators)]
    candidate_scores = scorer.evaluate_round(sessions, [candidate for candidate, _ in proposals])
    accepted = []
    for i, (candidate, log_hastings) in enumerate(proposals):
        candidate_score = candidate_scores[i]
        candidate_log_prior = candidate.log_prob(fault_model)
        log_alpha = (
            (candidate_log_prior + beta * candidate_score)
            - (log_priors[i] + beta * scores[i])
            + log_hastings
        )
        accept = metropolis_accept(log_alpha, generators[i])
        if accept:
            states[i], scores[i], log_priors[i] = candidate, candidate_score, candidate_log_prior
            sessions[i].commit()
        accepted.append(accept)
    return accepted


class MetropolisHastingsSampler:
    """Multi-chain MH over fault configurations, with per-chain acceptance.

    Parameters
    ----------
    targets / fault_model:
        The mask space and its prior; each chain starts from a prior draw
        (an overdispersed start, so R̂ is meaningful).
    statistic:
        ``FaultConfiguration → float`` recorded per step (classification
        error for BDLFI), and the score the target is tempered by.
    proposal:
        Proposal kernel.
    beta:
        Inverse temperature of the target ∝ prior·exp(β·statistic);
        0 samples the prior itself. Must be non-negative.
    engine:
        Optional :class:`~repro.core.delta.DeltaChainEvaluator`. When set,
        :meth:`run` steps every chain in lockstep and scores each round of
        proposals through one delta round (one grouped forward per
        distinct cut among the proposals); without one,
        :class:`StatisticRounds` calls ``statistic`` per candidate. Both
        scorers give bit-identical values (property-tested), so the chains
        are the same; the engine is order-of-magnitude faster on deep
        models.
    """

    def __init__(
        self,
        targets: list,
        fault_model: FaultModel,
        statistic: Callable[[FaultConfiguration], float],
        proposal,
        beta: float = 0.0,
        engine=None,
    ) -> None:
        if beta < 0:
            raise ValueError(f"beta must be non-negative, got {beta}")
        self.targets = list(targets)
        self.fault_model = fault_model
        self.statistic = statistic
        self.proposal = proposal
        self.beta = float(beta)
        self.engine = engine

    def run(self, chains: int, steps: int, rng) -> ChainSet:
        """Run ``chains`` independent chains from overdispersed starts.

        Every chain draws from its own spawned generator; see
        :func:`round_groups` for which chains share a round.
        """
        if chains <= 0:
            raise ValueError(f"chains must be positive, got {chains}")
        if steps <= 0:
            raise ValueError(f"steps must be positive, got {steps}")
        scorer, groups = round_groups(self.engine, self.statistic, spawn_generators(rng, chains))
        chain_objs: list[Chain] = []
        for group in groups:
            chain_objs += self._run_rounds(scorer, group, steps, len(chain_objs))
        return ChainSet(chain_objs)

    def _run_rounds(self, scorer, generators: list, steps: int, first_id: int) -> list[Chain]:
        """The sampling loop: one chain per generator, one :func:`metropolis_step` per step.

        ``scorer`` is a round scorer (:class:`StatisticRounds` or a
        :class:`~repro.core.delta.DeltaChainEvaluator`): it scores one
        candidate per session, and ``session.commit()`` on acceptance
        makes the staged candidate that session's state. Each chain
        consumes its generator in the same order whichever scorer runs and
        however many chains share a round (initial draw, then per step a
        proposal and a conditional accept draw), and the scorers' values
        are bit-identical, so the chains are too.
        """
        chains = len(generators)
        sessions = [scorer.session() for _ in range(chains)]
        states = [FaultConfiguration.sample(self.targets, self.fault_model, g) for g in generators]
        scores = scorer.evaluate_round(sessions, states)
        for session in sessions:
            session.commit()
        log_priors = [state.log_prob(self.fault_model) for state in states]
        chain_objs = [Chain(first_id + i) for i in range(chains)]
        with obs.span("chain.mcmc", chains=chains, steps=steps):
            for step in range(steps):
                accepted = metropolis_step(
                    scorer, self.proposal, self.fault_model, self.beta,
                    sessions, states, scores, log_priors, generators,
                )
                for chain, state, score, accept in zip(chain_objs, states, scores, accepted):
                    chain.record(score, state.total_flips(), accepted=accept)
                if obs.listening() and (step + 1) % PROGRESS_EVERY == 0:
                    for chain in chain_objs:
                        obs.publish(
                            "chain.progress",
                            sampler="mcmc",
                            chain_id=chain.chain_id,
                            step=step + 1,
                            steps=steps,
                            window_mean=float(chain.recent(PROGRESS_EVERY).mean()),
                            window_acceptance=chain.recent_acceptance(PROGRESS_EVERY),
                        )
        return chain_objs
