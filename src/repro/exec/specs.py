"""Declarative campaign specifications.

A :class:`CampaignSpec` captures *everything* about one fault-injection
campaign — inference method, flip probability, sample budget, RNG stream
name — as a frozen, validated, picklable value. Specs decouple the
description of a campaign from the engine that runs it, which is what makes
campaigns schedulable: a list of specs can be executed sequentially by
:meth:`BayesianFaultInjector.run`, or fanned out over a worker pool by
:class:`~repro.exec.executor.ParallelCampaignExecutor` with bit-identical
results (all randomness flows through named
:class:`~repro.utils.rng.RngFactory` substreams derived from the injector
seed, so results never depend on *where* or *when* a spec runs).

The six spec types mirror the injector's inference procedures:

==================  ====================================================
spec                procedure
==================  ====================================================
:class:`ForwardSpec`     i.i.d. ancestral sampling from the fault prior
:class:`McmcSpec`        multi-chain Metropolis–Hastings + diagnostics
:class:`TemperedSpec`    failure-biased MCMC with importance reweighting
:class:`TemperingSpec`   replica-exchange (parallel tempering) ladder
:class:`AdaptiveSpec`    grow-until-complete i.i.d. campaign
:class:`StratifiedSpec`  Hamming-weight-stratified exact decomposition
==================  ====================================================

Validation happens once, at construction; the execution layers can then
trust every field. ``spec.with_p(p)`` rebinds the flip probability, which
is how sweeps turn one *template* spec into a grid of per-point specs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar

from repro.faults.model import FaultModel
from repro.mcmc.mixing import CompletenessCriterion

__all__ = [
    "CampaignSpec",
    "ForwardSpec",
    "McmcSpec",
    "TemperedSpec",
    "TemperingSpec",
    "AdaptiveSpec",
    "StratifiedSpec",
]


@dataclass(frozen=True)
class CampaignSpec:
    """Base class: one campaign at one flip probability.

    Attributes
    ----------
    p:
        Bit-flip probability of the Bernoulli fault prior, in (0, 1].
    fault_model:
        Optional explicit fault model; ``None`` means Bernoulli(p).
    stream:
        Root name of the RNG substreams the campaign draws; campaigns with
        distinct stream names (or distinct ``p``) are statistically
        independent and individually reproducible.
    """

    #: dispatch key — ``BayesianFaultInjector.run`` routes to ``_execute_<kind>``
    kind: ClassVar[str] = ""

    p: float
    fault_model: FaultModel | None = None
    stream: str = ""

    def __post_init__(self) -> None:
        if type(self) is CampaignSpec:
            raise TypeError("CampaignSpec is abstract; instantiate a concrete spec")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"flip probability must be in (0, 1], got {self.p}")
        # Normalise numpy scalars: RNG stream names embed repr(p), so a
        # np.float64 p would silently select different substreams than the
        # numerically equal python float.
        object.__setattr__(self, "p", float(self.p))
        if not self.stream:
            object.__setattr__(self, "stream", self.kind)

    def with_p(self, p: float) -> "CampaignSpec":
        """A copy of this spec at a different flip probability."""
        return dataclasses.replace(self, p=float(p))

    @staticmethod
    def _require_positive(**fields: int) -> None:
        for name, value in fields.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    @staticmethod
    def _require_fraction(**fields: float) -> None:
        for name, value in fields.items():
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")


@dataclass(frozen=True)
class ForwardSpec(CampaignSpec):
    """i.i.d. Monte Carlo over the fault prior (``forward_campaign``)."""

    kind: ClassVar[str] = "forward"

    samples: int = 200
    chains: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require_positive(samples=self.samples, chains=self.chains)


@dataclass(frozen=True)
class McmcSpec(CampaignSpec):
    """Multi-chain Metropolis–Hastings on the fault prior (``mcmc_campaign``).

    ``fast`` selects the segment engine (delta-forward chains) for this
    campaign: ``None`` inherits the injector's ``fast`` (use the engine
    when the model supports it), ``True`` requires it (raising when
    unavailable), ``False`` forces the standard per-proposal forward.
    Results are bit-identical either way.
    """

    kind: ClassVar[str] = "mcmc"

    chains: int = 4
    steps: int = 250
    toggle_weight: float = 0.5
    resample_weight: float = 0.5
    discard_fraction: float = 0.25
    criterion: CompletenessCriterion | None = None
    fast: bool | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require_positive(chains=self.chains, steps=self.steps)
        self._require_fraction(discard_fraction=self.discard_fraction)
        if self.toggle_weight < 0 or self.resample_weight < 0:
            raise ValueError("proposal weights must be non-negative")
        if self.toggle_weight + self.resample_weight <= 0:
            raise ValueError("at least one of toggle_weight/resample_weight must be positive")


@dataclass(frozen=True)
class TemperedSpec(CampaignSpec):
    """Failure-biased MCMC with importance reweighting (``tempered_campaign``).

    Running this spec yields ``(CampaignResult, weighted_error)`` — the
    self-normalised importance-weighted estimate of the prior-expected
    classification error.
    """

    kind: ClassVar[str] = "tempered"

    beta: float = 0.0
    chains: int = 4
    steps: int = 250
    discard_fraction: float = 0.25
    #: segment-engine selection (None = inherit injector, see :class:`McmcSpec`)
    fast: bool | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.beta < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        self._require_positive(chains=self.chains, steps=self.steps)
        self._require_fraction(discard_fraction=self.discard_fraction)


@dataclass(frozen=True)
class TemperingSpec(CampaignSpec):
    """Replica-exchange ladder (``parallel_tempering_campaign``)."""

    kind: ClassVar[str] = "tempering"

    chains: int = 2
    sweeps: int = 250
    betas: tuple[float, ...] = (0.0, 5.0, 20.0, 80.0)
    discard_fraction: float = 0.25
    #: segment-engine selection (None = inherit injector, see :class:`McmcSpec`)
    fast: bool | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require_positive(chains=self.chains, sweeps=self.sweeps)
        self._require_fraction(discard_fraction=self.discard_fraction)
        if len(self.betas) < 2:
            raise ValueError(f"tempering needs at least two rungs, got {self.betas!r}")
        if any(b < 0 for b in self.betas):
            raise ValueError(f"betas must be non-negative, got {self.betas!r}")


@dataclass(frozen=True)
class AdaptiveSpec(CampaignSpec):
    """Completeness-driven adaptive campaign (``run_until_complete``)."""

    kind: ClassVar[str] = "adaptive"

    chains: int = 4
    batch_steps: int = 50
    max_steps: int = 2000
    criterion: CompletenessCriterion | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require_positive(
            chains=self.chains, batch_steps=self.batch_steps, max_steps=self.max_steps
        )
        if self.max_steps < self.batch_steps:
            raise ValueError(
                f"max_steps ({self.max_steps}) must be >= batch_steps ({self.batch_steps})"
            )


@dataclass(frozen=True)
class StratifiedSpec(CampaignSpec):
    """Hamming-weight-stratified estimation (advantage #2)."""

    kind: ClassVar[str] = "stratified"

    samples_per_stratum: int = 25
    mass_tolerance: float = 1e-4
    max_strata: int = 64

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require_positive(
            samples_per_stratum=self.samples_per_stratum, max_strata=self.max_strata
        )
        if not 0.0 < self.mass_tolerance < 1.0:
            raise ValueError(f"mass_tolerance must be in (0, 1), got {self.mass_tolerance}")
