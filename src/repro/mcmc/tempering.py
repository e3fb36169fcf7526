"""Parallel tempering over fault-configuration space.

The failure-biased tempered target of :mod:`repro.mcmc.targets` explores
error-causing configurations but pays an importance-weighting variance
cost. Parallel tempering gets the best of both: a ladder of chains at
inverse temperatures β₀ = 0 < β₁ < … < β_K runs side by side, adjacent
rungs periodically *swap* states, and the cold rung (β = 0) — whose
stationary distribution is exactly the fault prior — inherits the hot
rungs' ability to cross between fault-space modes. Its trace is therefore
an unbiased prior-expectation estimator with improved mixing; no
reweighting needed.

Swap rule: for rungs i, j with states x_i, x_j and shared prior,
``log α = (β_i − β_j) · (stat(x_j) − stat(x_i))`` — the standard replica
exchange acceptance, costing zero forward passes because statistics are
cached per state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.faults.configuration import FaultConfiguration
from repro.faults.model import FaultModel
from repro.mcmc.chain import Chain, ChainSet
from repro.mcmc.metropolis import round_groups
from repro.utils.rng import spawn_generators

__all__ = ["TemperingResult", "ParallelTemperingSampler"]


@dataclass(frozen=True)
class TemperingResult:
    """Outcome of a parallel-tempering run."""

    #: cold-rung (β=0) chains — samples from the fault prior
    cold_chains: ChainSet
    #: per-rung mean statistic (after burn-in), index-aligned with betas
    rung_means: tuple[float, ...]
    betas: tuple[float, ...]
    swap_acceptance: float

    def to_dict(self) -> dict:
        """JSON-clean summary: the ``nan`` swap-acceptance sentinel (no swap
        attempts) serialises as ``null`` rather than invalid-JSON ``NaN``."""
        from repro.utils.persist import sanitize_nonfinite

        return sanitize_nonfinite(
            {
                "rung_means": list(self.rung_means),
                "betas": list(self.betas),
                "swap_acceptance": self.swap_acceptance,
                "chains": len(self.cold_chains),
                "steps": self.cold_chains.steps,
            }
        )


class ParallelTemperingSampler:
    """Replica-exchange MH over fault configurations.

    Parameters
    ----------
    targets / fault_model:
        The mask space and its prior.
    statistic:
        ``FaultConfiguration → float`` (classification error for BDLFI).
    proposal:
        Local proposal shared by every rung (e.g.
        :class:`~repro.mcmc.proposals.SingleBitToggle`).
    betas:
        Inverse-temperature ladder; must start at 0 (the prior rung) and be
        strictly increasing.
    engine:
        Optional :class:`~repro.core.delta.DeltaChainEvaluator`. When set,
        :meth:`run` advances all replicas in lockstep and scores each
        rung's proposals across replicas through one delta round (one
        grouped forward per distinct cut); without one,
        :class:`~repro.mcmc.metropolis.StatisticRounds` calls ``statistic``
        per candidate. Both scorers give bit-identical values, so the
        chains are the same. (Rungs *within* a replica stay sequential:
        each rung's acceptance draw conditions the stream the next rung
        proposes from.)
    """

    def __init__(
        self,
        targets: list,
        fault_model: FaultModel,
        statistic: Callable[[FaultConfiguration], float],
        proposal,
        betas: tuple[float, ...] = (0.0, 5.0, 20.0, 80.0),
        engine=None,
    ) -> None:
        if not targets:
            raise ValueError("ParallelTemperingSampler requires targets")
        betas = tuple(float(b) for b in betas)
        if len(betas) < 2:
            raise ValueError("need at least two rungs (a cold and a hot chain)")
        if betas[0] != 0.0:
            raise ValueError(f"the ladder must start at beta=0 (the prior rung), got {betas[0]}")
        if any(a >= b for a, b in zip(betas, betas[1:])):
            raise ValueError(f"betas must be strictly increasing, got {betas}")
        self.targets = list(targets)
        self.fault_model = fault_model
        self.statistic = statistic
        self.proposal = proposal
        self.betas = betas
        self.engine = engine

    def run(self, chains: int, sweeps: int, rng) -> TemperingResult:
        """``chains`` independent replica systems with split streams.

        Every replica draws from its own spawned generator; see
        :func:`~repro.mcmc.metropolis.round_groups` for which replicas
        share a round.
        """
        if chains <= 0:
            raise ValueError(f"chains must be positive, got {chains}")
        if sweeps <= 0:
            raise ValueError(f"sweeps must be positive, got {sweeps}")
        scorer, groups = round_groups(self.engine, self.statistic, spawn_generators(rng, chains))
        colds: list[Chain] = []
        rung_totals = np.zeros(len(self.betas))
        accepts = 0
        for group in groups:
            group_colds, group_sums, group_accepts = self._run_rounds(scorer, group, sweeps, len(colds))
            colds += group_colds
            for sums in group_sums:
                rung_totals += sums / sweeps
            accepts += group_accepts
        return TemperingResult(
            cold_chains=ChainSet(colds),
            rung_means=tuple(float(v) for v in rung_totals / chains),
            betas=self.betas,
            # every sweep of every replica tries one swap
            swap_acceptance=accepts / (chains * sweeps),
        )

    def _run_rounds(
        self, scorer, generators: list, sweeps: int, first_id: int
    ) -> tuple[list[Chain], list[np.ndarray], int]:
        """The sampling loop: one replica system per generator, in lockstep.

        Per sweep, each rung takes one MH step in every replica, the rung's
        proposals scored as one round by ``scorer`` (see
        :meth:`MetropolisHastingsSampler._run_rounds`), then every replica
        tries one adjacent-pair swap. Each replica consumes its generator
        in the same order whichever scorer runs and however many replicas
        share a round (initial rung draws; then per sweep, per rung:
        propose + conditional accept draw; then the swap draws). Rungs
        within a replica cannot share a round — the rung's conditional
        accept draw shifts the stream the next rung proposes from — but the
        same rung across replicas can, and the initial states all score in
        one round.

        Returns (cold chains, per-replica rung statistic sums, swap accepts).
        """
        chains = len(generators)
        n_rungs = len(self.betas)
        states = [
            [FaultConfiguration.sample(self.targets, self.fault_model, g) for _ in range(n_rungs)]
            for g in generators
        ]
        sessions = [[scorer.session() for _ in range(n_rungs)] for _ in range(chains)]
        flat_sessions = [session for replica in sessions for session in replica]
        flat_states = [state for replica in states for state in replica]
        flat_stats = scorer.evaluate_round(flat_sessions, flat_states)
        for session in flat_sessions:
            session.commit()
        stats = [flat_stats[i * n_rungs : (i + 1) * n_rungs] for i in range(chains)]
        log_priors = [[s.log_prob(self.fault_model) for s in replica] for replica in states]

        colds = [Chain(first_id + i) for i in range(chains)]
        rung_sums = [np.zeros(n_rungs) for _ in range(chains)]
        accepts = 0
        for _ in range(sweeps):
            for rung, beta in enumerate(self.betas):
                proposals = [
                    self.proposal.propose(states[i][rung], generators[i]) for i in range(chains)
                ]
                cand_stats = scorer.evaluate_round(
                    [sessions[i][rung] for i in range(chains)],
                    [candidate for candidate, _ in proposals],
                )
                for i in range(chains):
                    candidate, log_hastings = proposals[i]
                    candidate_stat = cand_stats[i]
                    candidate_log_prior = candidate.log_prob(self.fault_model)
                    log_alpha = (
                        (candidate_log_prior + beta * candidate_stat)
                        - (log_priors[i][rung] + beta * stats[i][rung])
                        + log_hastings
                    )
                    if log_alpha >= 0 or np.log(generators[i].random()) < log_alpha:
                        states[i][rung] = candidate
                        stats[i][rung] = candidate_stat
                        log_priors[i][rung] = candidate_log_prior
                        sessions[i][rung].commit()
            for i in range(chains):
                low = int(generators[i].integers(0, n_rungs - 1))
                high = low + 1
                log_alpha = (self.betas[low] - self.betas[high]) * (stats[i][high] - stats[i][low])
                if log_alpha >= 0 or np.log(generators[i].random()) < log_alpha:
                    states[i][low], states[i][high] = states[i][high], states[i][low]
                    stats[i][low], stats[i][high] = stats[i][high], stats[i][low]
                    log_priors[i][low], log_priors[i][high] = (
                        log_priors[i][high],
                        log_priors[i][low],
                    )
                    # Sessions carry the cached activations of their state —
                    # they swap with it.
                    sessions[i][low], sessions[i][high] = sessions[i][high], sessions[i][low]
                    accepts += 1
                colds[i].record(stats[i][0], states[i][0].total_flips())
                rung_sums[i] += stats[i]
        return colds, rung_sums, accepts
