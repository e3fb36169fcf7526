"""Metropolis–Hastings over fault-configuration space.

State: a :class:`~repro.faults.FaultConfiguration`. Target: any object with
``log_density(configuration)`` (see :mod:`repro.mcmc.targets`). Proposal:
any object with ``propose(state, rng) → (candidate, log_hastings)``.

One loop steps the chains; it differs between the segment engine and the
standard path only in the round scorer it is handed (a delta engine, or
:class:`StatisticRounds` over the plain statistic). The statistic of the
*current* state is cached so a rejected step costs no forward pass; for
:class:`~repro.mcmc.targets.TemperedErrorTarget` the statistic is likewise
memoised per configuration evaluation, because the target's density itself
depends on it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

import repro.obs as obs
from repro.faults.configuration import FaultConfiguration
from repro.mcmc.chain import Chain, ChainSet
from repro.mcmc.forward import PROGRESS_EVERY
from repro.utils.rng import spawn_generators

__all__ = ["MetropolisHastingsSampler", "StatisticRounds", "round_groups"]


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


class MetropolisHastingsSampler:
    """Generic MH kernel with per-chain acceptance bookkeeping.

    Parameters
    ----------
    target:
        Density over configurations (``log_density`` + ``importance_log_weight``).
    proposal:
        Proposal kernel.
    statistic:
        Scalar summary recorded per step. When the target is tempered on
        the same statistic, pass the identical callable — evaluations are
        shared within a step.
    initial:
        Callable ``rng → FaultConfiguration`` drawing the chain's start
        state (typically the fault prior, giving an overdispersed start for
        R̂ to be meaningful).
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
        target,
        proposal,
        statistic: Callable[[FaultConfiguration], float],
        initial: Callable[[np.random.Generator], FaultConfiguration],
        engine=None,
    ) -> None:
        self.target = target
        self.proposal = proposal
        self.statistic = statistic
        self.initial = initial
        self.engine = engine

    def _log_density(self, configuration: FaultConfiguration, statistic_value: float) -> float:
        """Evaluate the target density, reusing the known statistic if tempered.

        A target tempered on the sampler's *own* statistic gets the density
        computed directly from ``statistic_value`` — zero extra forwards. A
        tempered target built over a *different* callable used to be routed
        through the same shortcut, silently substituting the sampler's
        statistic for the target's; now the target is primed with the known
        value (see :meth:`TemperedErrorTarget.prime` — the two callables
        must compute the same quantity, which the shortcut always assumed)
        and then asked for its own density, so one proposal still never
        costs a second forward pass.
        """
        beta = getattr(self.target, "beta", None)
        if beta is not None:
            if getattr(self.target, "statistic", None) is self.statistic:
                prior_logp = configuration.log_prob(self.target.fault_model)
                return prior_logp + beta * statistic_value
            prime = getattr(self.target, "prime", None)
            if prime is not None:
                prime(configuration, statistic_value)
        return self.target.log_density(configuration)

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
        """The sampling loop: one chain per generator, one scored round per step.

        ``scorer`` is a round scorer (:class:`StatisticRounds` or a
        :class:`~repro.core.delta.DeltaChainEvaluator`): it scores one
        candidate per session, and ``session.commit()`` on acceptance
        makes the staged candidate that session's state. Each chain consumes its generator in
        the same order whichever scorer runs and however many chains share
        a round (initial draw, then per step a proposal and a conditional
        accept draw), and the scorers' values are bit-identical, so the
        chains are too.
        """
        chains = len(generators)
        sessions = [scorer.session() for _ in range(chains)]
        states = [self.initial(g) for g in generators]
        stats = scorer.evaluate_round(sessions, states)
        for session in sessions:
            session.commit()
        logds = [self._log_density(s, v) for s, v in zip(states, stats)]
        chain_objs = [Chain(first_id + i) for i in range(chains)]
        with obs.span("chain.mcmc", chains=chains, steps=steps):
            for step in range(steps):
                proposals = [self.proposal.propose(states[i], generators[i]) for i in range(chains)]
                candidates = [candidate for candidate, _ in proposals]
                cand_stats = scorer.evaluate_round(sessions, candidates)
                for i in range(chains):
                    candidate, log_hastings = proposals[i]
                    candidate_logd = self._log_density(candidate, cand_stats[i])
                    log_alpha = candidate_logd - logds[i] + log_hastings
                    accepted = math.log(generators[i].random()) < log_alpha if log_alpha < 0 else True
                    if accepted:
                        states[i], stats[i], logds[i] = candidate, cand_stats[i], candidate_logd
                        sessions[i].commit()
                    chain_objs[i].record(stats[i], states[i].total_flips(), accepted=accepted)
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
