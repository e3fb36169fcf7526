"""Parallel tempering over fault-configuration space.

The failure-biased tempered target ∝ prior·exp(β·error) of
:class:`~repro.mcmc.metropolis.MetropolisHastingsSampler` explores
error-causing configurations but pays an importance-weighting variance
cost. Parallel tempering gets the best of both: a ladder of chains at
inverse temperatures β₀ = 0 < β₁ < … < β_K runs side by side, adjacent
rungs periodically *swap* states, and the cold rung (β = 0) — whose
stationary distribution is exactly the fault prior — inherits the hot
rungs' ability to cross between fault-space modes. Its trace is therefore
an unbiased prior-expectation estimator with improved mixing; no
reweighting needed.

Each rung steps through :func:`~repro.mcmc.metropolis.metropolis_step`,
the MH step plain and tempered chains take. Swap rule: for rungs i, j
with states x_i, x_j and shared prior,
``log α = (β_i − β_j) · (stat(x_j) − stat(x_i))`` — the standard replica
exchange acceptance, tested by the same
:func:`~repro.mcmc.metropolis.metropolis_accept` and costing zero forward
passes because statistics are cached per state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.faults.configuration import FaultConfiguration
from repro.faults.model import FaultModel
from repro.mcmc.chain import Chain, ChainSet
from repro.mcmc.metropolis import metropolis_accept, metropolis_step, round_groups
from repro.utils.rng import spawn_generators

__all__ = ["TemperingResult", "ParallelTemperingSampler"]


@dataclass(frozen=True)
class TemperingResult:
    """Outcome of a parallel-tempering run."""

    #: cold-rung (β=0) chains — samples from the fault prior
    cold_chains: ChainSet
    #: per-rung mean statistic over every sweep, index-aligned with betas
    rung_means: tuple[float, ...]
    betas: tuple[float, ...]
    swap_acceptance: float


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
    ) -> tuple[list[Chain], np.ndarray, int]:
        """The sampling loop: one replica system per generator, in lockstep.

        Per sweep, each rung takes one :func:`~repro.mcmc.metropolis.metropolis_step`
        across every replica, the rung's proposals scored as one round by
        ``scorer``, then every replica tries one adjacent-pair swap. Each
        replica consumes its generator in the same order whichever scorer
        runs and however many replicas share a round (initial rung draws;
        then per sweep, per rung: propose + conditional accept draw; then
        the swap draws). Rungs within a replica cannot share a round — the
        rung's conditional accept draw shifts the stream the next rung
        proposes from — but the same rung across replicas can, and the
        initial states all score in one round. State is held per rung,
        each a list over replicas. The cold chains record the cold rung's
        own MH accept flag; swaps count only towards the returned total.

        Returns (cold chains, per-replica rung statistic sums, swap accepts).
        """
        chains = len(generators)
        n_rungs = len(self.betas)
        initial = [
            FaultConfiguration.sample(self.targets, self.fault_model, g)
            for g in generators
            for _ in range(n_rungs)
        ]
        flat_sessions = [scorer.session() for _ in initial]
        flat_scores = scorer.evaluate_round(flat_sessions, initial)
        for session in flat_sessions:
            session.commit()
        # replica-major flat lists → one list over replicas per rung
        states = [initial[rung::n_rungs] for rung in range(n_rungs)]
        sessions = [flat_sessions[rung::n_rungs] for rung in range(n_rungs)]
        scores = [flat_scores[rung::n_rungs] for rung in range(n_rungs)]
        log_priors = [[state.log_prob(self.fault_model) for state in rung] for rung in states]

        colds = [Chain(first_id + i) for i in range(chains)]
        rung_sums = np.zeros((chains, n_rungs))
        accepts = 0
        for _ in range(sweeps):
            accepted = []
            for rung, beta in enumerate(self.betas):
                accepted.append(metropolis_step(
                    scorer, self.proposal, self.fault_model, beta,
                    sessions[rung], states[rung], scores[rung], log_priors[rung], generators,
                ))
            for i in range(chains):
                low = int(generators[i].integers(0, n_rungs - 1))
                high = low + 1
                log_alpha = (self.betas[low] - self.betas[high]) * (scores[high][i] - scores[low][i])
                if metropolis_accept(log_alpha, generators[i]):
                    # Sessions carry the cached activations of their state —
                    # they swap with it.
                    for column in (states, scores, log_priors, sessions):
                        column[low][i], column[high][i] = column[high][i], column[low][i]
                    accepts += 1
                colds[i].record(scores[0][i], states[0][i].total_flips(), accepted=accepted[0][i])
            rung_sums += np.transpose(scores)
        return colds, rung_sums, accepts
