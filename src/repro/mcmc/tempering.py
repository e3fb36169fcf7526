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
        grouped forward per distinct cut) — bit-identical to the
        sequential path. (Rungs *within* a replica stay sequential: each
        rung's acceptance draw conditions the stream the next rung
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

    # ------------------------------------------------------------------ #
    # core steps
    # ------------------------------------------------------------------ #

    def _mh_step(
        self,
        state: FaultConfiguration,
        stat: float,
        log_prior: float,
        beta: float,
        rng: np.random.Generator,
    ) -> tuple[FaultConfiguration, float, float, bool]:
        candidate, log_hastings = self.proposal.propose(state, rng)
        candidate_stat = self.statistic(candidate)
        candidate_log_prior = candidate.log_prob(self.fault_model)
        log_alpha = (
            (candidate_log_prior + beta * candidate_stat)
            - (log_prior + beta * stat)
            + log_hastings
        )
        if log_alpha >= 0 or np.log(rng.random()) < log_alpha:
            return candidate, candidate_stat, candidate_log_prior, True
        return state, stat, log_prior, False

    def run_chain(self, sweeps: int, rng: np.random.Generator, chain_id: int = 0) -> tuple[Chain, np.ndarray, int, int]:
        """One replica system: ``sweeps`` × (MH step per rung + one swap try).

        Returns (cold chain, per-rung statistic sums, swap attempts, swap accepts).
        """
        if sweeps <= 0:
            raise ValueError(f"sweeps must be positive, got {sweeps}")
        n_rungs = len(self.betas)
        states = [FaultConfiguration.sample(self.targets, self.fault_model, rng) for _ in range(n_rungs)]
        stats = [self.statistic(s) for s in states]
        log_priors = [s.log_prob(self.fault_model) for s in states]

        cold = Chain(chain_id)
        rung_sums = np.zeros(n_rungs)
        swap_attempts = 0
        swap_accepts = 0
        for _ in range(sweeps):
            for rung, beta in enumerate(self.betas):
                states[rung], stats[rung], log_priors[rung], _ = self._mh_step(
                    states[rung], stats[rung], log_priors[rung], beta, rng
                )
            # One adjacent-pair swap attempt per sweep.
            low = int(rng.integers(0, n_rungs - 1))
            high = low + 1
            log_alpha = (self.betas[low] - self.betas[high]) * (stats[high] - stats[low])
            swap_attempts += 1
            if log_alpha >= 0 or np.log(rng.random()) < log_alpha:
                states[low], states[high] = states[high], states[low]
                stats[low], stats[high] = stats[high], stats[low]
                log_priors[low], log_priors[high] = log_priors[high], log_priors[low]
                swap_accepts += 1
            cold.record(stats[0], states[0].total_flips())
            rung_sums += stats
        return cold, rung_sums / sweeps, swap_attempts, swap_accepts

    def run(self, chains: int, sweeps: int, rng) -> TemperingResult:
        """``chains`` independent replica systems with split streams.

        With a delta engine attached the replicas advance in lockstep (one
        delta round per rung per sweep, batched across replicas and
        grouped by cut); results are bit-identical to the sequential path
        either way.
        """
        if chains <= 0:
            raise ValueError(f"chains must be positive, got {chains}")
        if self.engine is not None:
            return self._run_lockstep(chains, sweeps, rng)
        generators = spawn_generators(rng, chains)
        cold_chains = []
        rung_totals = np.zeros(len(self.betas))
        attempts = 0
        accepts = 0
        for index, gen in enumerate(generators):
            cold, rung_means, att, acc = self.run_chain(sweeps, gen, chain_id=index)
            cold_chains.append(cold)
            rung_totals += rung_means
            attempts += att
            accepts += acc
        return TemperingResult(
            cold_chains=ChainSet(cold_chains),
            rung_means=tuple(float(v) for v in rung_totals / chains),
            betas=self.betas,
            swap_acceptance=accepts / attempts if attempts else float("nan"),
        )

    def _run_lockstep(self, chains: int, sweeps: int, rng) -> TemperingResult:
        """All replica systems in lockstep; rung proposals batched across them.

        Bit-identity with :meth:`run_chain` per replica holds because each
        replica keeps its own spawned generator and consumes it in exactly
        the sequential order (initial rung draws; then per sweep, per rung:
        propose + conditional accept draw; then the swap draws), the
        engine's scored statistics are bit-identical to ``statistic``, and
        every acceptance/aggregation expression is unchanged. Rungs within
        a replica cannot be batched — the rung's conditional accept draw
        shifts the stream the next rung proposes from — but the same rung
        across replicas can, and the initial states all score in one round.
        """
        if sweeps <= 0:
            raise ValueError(f"sweeps must be positive, got {sweeps}")
        engine = self.engine
        generators = spawn_generators(rng, chains)
        n_rungs = len(self.betas)
        states = [
            [FaultConfiguration.sample(self.targets, self.fault_model, g) for _ in range(n_rungs)]
            for g in generators
        ]
        sessions = [[engine.session() for _ in range(n_rungs)] for _ in range(chains)]
        flat_sessions = [session for replica in sessions for session in replica]
        flat_states = [state for replica in states for state in replica]
        flat_stats = engine.evaluate_round(flat_sessions, flat_states)
        for session in flat_sessions:
            session.commit()
        stats = [flat_stats[i * n_rungs : (i + 1) * n_rungs] for i in range(chains)]
        log_priors = [[s.log_prob(self.fault_model) for s in replica] for replica in states]

        colds = [Chain(i) for i in range(chains)]
        rung_sums = [np.zeros(n_rungs) for _ in range(chains)]
        attempts = 0
        accepts = 0
        for _ in range(sweeps):
            for rung, beta in enumerate(self.betas):
                proposals = [
                    self.proposal.propose(states[i][rung], generators[i]) for i in range(chains)
                ]
                cand_stats = engine.evaluate_round(
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
                attempts += 1
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
        rung_totals = np.zeros(n_rungs)
        for i in range(chains):
            rung_totals += rung_sums[i] / sweeps
        return TemperingResult(
            cold_chains=ChainSet(colds),
            rung_means=tuple(float(v) for v in rung_totals / chains),
            betas=self.betas,
            swap_acceptance=accepts / attempts if attempts else float("nan"),
        )
