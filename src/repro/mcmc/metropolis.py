"""Metropolis–Hastings over fault-configuration space.

State: a :class:`~repro.faults.FaultConfiguration`. Target: any object with
``log_density(configuration)`` (see :mod:`repro.mcmc.targets`). Proposal:
any object with ``propose(state, rng) → (candidate, log_hastings)``.

The statistic of the *current* state is cached so a rejected step costs no
forward pass; for :class:`~repro.mcmc.targets.TemperedErrorTarget` the
statistic is likewise memoised per configuration evaluation, because the
target's density itself depends on it.
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

__all__ = ["MetropolisHastingsSampler"]


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
        proposals through one grouped delta forward instead of calling
        ``statistic`` per candidate — bit-identical to the sequential path
        (property-tested), order-of-magnitude faster on deep models.
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

    def run_chain(self, steps: int, rng: np.random.Generator, chain_id: int = 0) -> Chain:
        if steps <= 0:
            raise ValueError(f"steps must be positive, got {steps}")
        state = self.initial(rng)
        state_stat = self.statistic(state)
        state_logd = self._log_density(state, state_stat)

        chain = Chain(chain_id)
        with obs.span("chain.mcmc", chain_id=chain_id, steps=steps):
            for step in range(steps):
                candidate, log_hastings = self.proposal.propose(state, rng)
                candidate_stat = self.statistic(candidate)
                candidate_logd = self._log_density(candidate, candidate_stat)
                log_alpha = candidate_logd - state_logd + log_hastings
                accepted = math.log(rng.random()) < log_alpha if log_alpha < 0 else True
                if accepted:
                    state, state_stat, state_logd = candidate, candidate_stat, candidate_logd
                chain.record(state_stat, state.total_flips(), accepted=accepted)
                if obs.listening() and (step + 1) % PROGRESS_EVERY == 0:
                    obs.publish(
                        "chain.progress",
                        sampler="mcmc",
                        chain_id=chain_id,
                        step=step + 1,
                        steps=steps,
                        window_mean=float(chain.recent(PROGRESS_EVERY).mean()),
                        window_acceptance=chain.recent_acceptance(PROGRESS_EVERY),
                    )
        return chain

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

        With a delta engine attached the chains advance in lockstep (one
        grouped forward per proposal round); results are bit-identical to
        the sequential path either way.
        """
        if chains <= 0:
            raise ValueError(f"chains must be positive, got {chains}")
        if self.engine is not None:
            return self._run_lockstep(chains, steps, rng)
        generators = spawn_generators(rng, chains)
        return ChainSet([self.run_chain(steps, g, chain_id=i) for i, g in enumerate(generators)])

    def _run_lockstep(self, chains: int, steps: int, rng) -> ChainSet:
        """All chains in lockstep; one grouped delta forward per round.

        Bit-identity with the sequential path holds because every chain
        draws from its own spawned generator in the same per-chain order
        (initial draw, then propose / conditional accept draw per step —
        the parameter-only statistic consumes no randomness), the engine's
        scored statistics are bit-identical to the standard statistic, and
        the acceptance arithmetic is expression-for-expression the same.
        """
        if steps <= 0:
            raise ValueError(f"steps must be positive, got {steps}")
        engine = self.engine
        generators = spawn_generators(rng, chains)
        sessions = [engine.session() for _ in range(chains)]
        states = [self.initial(g) for g in generators]
        stats = engine.evaluate_round(sessions, states)
        for session in sessions:
            session.commit()
        logds = [self._log_density(s, v) for s, v in zip(states, stats)]
        chain_objs = [Chain(i) for i in range(chains)]
        with obs.span("chain.mcmc", chains=chains, steps=steps, lockstep=True):
            for step in range(steps):
                proposals = [self.proposal.propose(states[i], generators[i]) for i in range(chains)]
                candidates = [candidate for candidate, _ in proposals]
                cand_stats = engine.evaluate_round(sessions, candidates)
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
        return ChainSet(chain_objs)
