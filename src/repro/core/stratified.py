"""Hamming-weight-stratified error estimation (advantage #2).

Under the Bernoulli(p) model the total flip count across the target bit
space is ``K ~ Binomial(N, p)`` and, *given K = k*, the flipped positions
are uniform without replacement. The fault-induced expected error therefore
decomposes exactly:

    E[error] = Σₖ P(K = k) · E[error | K = k]

Plain Monte Carlo wastes almost its whole budget on k=0 (no faults) when p
is small, yet k=0 contributes the known golden error. The stratified
estimator spends its forward passes only on the informative strata
k = 1, 2, …, k_max (covering ≥ 1−ε of the non-zero mass) and reuses the
same conditional estimates across *every* p in a sweep — the per-k
conditional law does not depend on p. A 13-point sweep thus costs the same
forward passes as a single point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bits.float32 import BITS_PER_FLOAT, positions_to_mask
from repro.core.campaign import CampaignResult
from repro.core.posterior import ErrorPosterior
from repro.faults.configuration import FaultConfiguration
from repro.mcmc.chain import Chain, ChainSet
from repro.utils.rng import RngFactory

__all__ = ["StratifiedErrorEstimator", "StratifiedEstimate"]


@dataclass(frozen=True)
class StratifiedEstimate:
    """Stratified estimate at one flip probability."""

    p: float
    mean_error: float
    std_error: float
    golden_error: float
    stratum_weights: dict[int, float]
    stratum_means: dict[int, float]
    evaluations: int
    #: raw per-stratum samples, for posterior reconstruction
    stratum_samples: dict[int, np.ndarray]
    seed: int

    def as_campaign_result(self) -> CampaignResult:
        """Repackage as a CampaignResult (weighted-resample posterior).

        The posterior samples are drawn from the stratified mixture so that
        downstream consumers (sweeps, tables) can treat stratified and
        plain campaigns identically.
        """
        rng = np.random.default_rng(self.seed)
        strata = sorted(self.stratum_weights)
        weights = np.asarray([self.stratum_weights[k] for k in strata])
        weights = weights / weights.sum()
        draws = []
        n_draws = max(200, self.evaluations)
        counts = rng.multinomial(n_draws, weights)
        for k, count in zip(strata, counts):
            if count == 0:
                continue
            pool = self.stratum_samples[k]
            if pool.size == 0:
                continue
            draws.append(rng.choice(pool, size=count, replace=True))
        samples = np.concatenate(draws) if draws else np.asarray([self.golden_error])
        chain = Chain(0)
        for value in samples:
            chain.record(float(value), flips=0)
        posterior = ErrorPosterior(np.clip(samples, 0.0, 1.0), self.golden_error)
        return CampaignResult(
            flip_probability=self.p,
            golden_error=self.golden_error,
            chains=ChainSet([chain]),
            posterior=posterior,
            method="stratified",
            seed=self.seed,
        )


class StratifiedErrorEstimator:
    """Estimate E[error] by conditioning on the flip count K.

    Parameters
    ----------
    injector:
        The configured :class:`~repro.core.injector.BayesianFaultInjector`;
        only its parameter targets and statistic are used (transient
        surfaces are not stratifiable and must not be selected).
    samples_per_stratum:
        Forward passes per conditional estimate E[error | K = k].
    mass_tolerance:
        Strata are included until the *residual* Binomial mass above k_max
        is below this; the residual is bounded by the worst case error = 1.
    """

    def __init__(
        self,
        injector,
        samples_per_stratum: int = 25,
        mass_tolerance: float = 1e-4,
        max_strata: int = 64,
    ) -> None:
        if samples_per_stratum <= 0:
            raise ValueError(f"samples_per_stratum must be positive, got {samples_per_stratum}")
        if not 0 < mass_tolerance < 1:
            raise ValueError(f"mass_tolerance must be in (0, 1), got {mass_tolerance}")
        if injector.activation_modules or injector._wants_inputs:
            raise ValueError("stratified estimation supports parameter surfaces only")
        self.injector = injector
        self.samples_per_stratum = samples_per_stratum
        self.mass_tolerance = mass_tolerance
        self.max_strata = max_strata
        self._rng_factory = RngFactory(injector.seed).child("stratified")
        self._targets = injector.parameter_targets
        self._sizes = np.asarray([param.size for _, param in self._targets], dtype=np.int64)
        self._offsets = np.concatenate([[0], np.cumsum(self._sizes * BITS_PER_FLOAT)])
        self.total_bits = int(self._offsets[-1])
        #: cached conditional samples: k → array of error values
        self._conditional_cache: dict[int, np.ndarray] = {}
        self.evaluations_spent = 0

    # ------------------------------------------------------------------ #
    # conditional sampling
    # ------------------------------------------------------------------ #

    def configuration_with_flips(self, k: int, rng: np.random.Generator) -> FaultConfiguration:
        """Uniformly choose k distinct global bit positions and build masks.

        This is the conditional law P(configuration | K = k); ``k = 1``
        recovers the single-bit-flip model traditional injectors use, which
        experiment E7 exploits for matched-model comparisons.
        """
        positions = rng.choice(self.total_bits, size=k, replace=False)
        masks = {}
        for index, (name, param) in enumerate(self._targets):
            lo, hi = self._offsets[index], self._offsets[index + 1]
            local = positions[(positions >= lo) & (positions < hi)] - lo
            masks[name] = positions_to_mask(local, param.shape)
        return FaultConfiguration(masks)

    def conditional_error_samples(self, k: int) -> np.ndarray:
        """Sampled error values given exactly k flipped bits (cached)."""
        if k < 0:
            raise ValueError(f"flip count must be non-negative, got {k}")
        if k == 0:
            return np.asarray([self.injector.golden_error])
        if k not in self._conditional_cache:
            rng = self._rng_factory.stream(f"stratum:{k}")
            statistic = self.injector.make_statistic(
                fault_model=None, rng=rng  # no transient surfaces by construction
            )
            values = np.empty(self.samples_per_stratum)
            for i in range(self.samples_per_stratum):
                configuration = self.configuration_with_flips(k, rng)
                values[i] = statistic(configuration)
            self._conditional_cache[k] = values
            self.evaluations_spent += self.samples_per_stratum
        return self._conditional_cache[k]

    # ------------------------------------------------------------------ #
    # estimation
    # ------------------------------------------------------------------ #

    def strata_for(self, p: float) -> tuple[np.ndarray, np.ndarray]:
        """(k values, P(K=k)) covering all but ``mass_tolerance`` of the mass."""
        if not 0 < p < 1:
            raise ValueError(f"flip probability must be in (0, 1), got {p}")
        from scipy import stats as sps

        k_max = int(sps.binom.ppf(1.0 - self.mass_tolerance, self.total_bits, p))
        k_max = min(max(k_max, 1), self.max_strata)
        ks = np.arange(0, k_max + 1)
        weights = sps.binom.pmf(ks, self.total_bits, p)
        return ks, weights

    def estimate(self, p: float) -> StratifiedEstimate:
        """Stratified estimate of the expected fault-induced error at ``p``."""
        ks, weights = self.strata_for(p)
        evaluations_before = self.evaluations_spent
        means = {}
        variances = {}
        samples = {}
        for k, weight in zip(ks, weights):
            values = self.conditional_error_samples(int(k))
            samples[int(k)] = values
            means[int(k)] = float(values.mean())
            variances[int(k)] = float(values.var(ddof=1)) if values.size > 1 else 0.0

        residual_mass = max(0.0, 1.0 - float(weights.sum()))
        mean = float(sum(weights[i] * means[int(k)] for i, k in enumerate(ks)))
        # Residual strata bounded by worst-case error 1.0 (tiny by construction).
        mean += residual_mass * 1.0
        variance = float(
            sum((weights[i] ** 2) * variances[int(k)] / max(samples[int(k)].size, 1) for i, k in enumerate(ks))
        )
        return StratifiedEstimate(
            p=p,
            mean_error=min(mean, 1.0),
            std_error=float(np.sqrt(variance)),
            golden_error=self.injector.golden_error,
            stratum_weights={int(k): float(weights[i]) for i, k in enumerate(ks)},
            stratum_means=means,
            evaluations=self.evaluations_spent - evaluations_before,
            stratum_samples=samples,
            seed=self.injector.seed,
        )

    def sweep(self, p_values: np.ndarray) -> list[StratifiedEstimate]:
        """Estimate every p, sharing conditional samples across points."""
        return [self.estimate(float(p)) for p in np.asarray(p_values)]
