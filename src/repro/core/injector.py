"""BayesianFaultInjector — the BDLFI engine.

Binds together a trained (golden) network, an evaluation set, a target
specification, and a fault-model family, and exposes the paper's inference
procedures:

* :meth:`forward_campaign` — i.i.d. ancestral sampling from the fault prior
  (exact Monte Carlo over the DBN);
* :meth:`mcmc_campaign` — multi-chain Metropolis–Hastings with mixing
  diagnostics (the configuration the paper describes);
* :meth:`run_until_complete` — adaptive campaign that stops when the
  :class:`~repro.mcmc.mixing.CompletenessCriterion` is met (advantage #1);
* :meth:`tempered_campaign` — failure-biased MCMC with importance
  reweighting for rare-event regimes (advantage #2).

Every procedure is also available declaratively: build a
:class:`~repro.exec.specs.CampaignSpec` and hand it to :meth:`run`, the
single dispatcher all the keyword-argument methods above are thin wrappers
over. Specs are what the :class:`~repro.exec.executor.ParallelCampaignExecutor`
fans out over worker pools.

The *statistic* pushed through every sampler is the classification error of
the faulted network on the evaluation batch, evaluated in eval mode under
``no_grad``. Weight/bias faults are applied via XOR masks (the MCMC state);
activation and input faults, being transient, are redrawn per forward pass
through hooks when the target spec selects those surfaces.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np

import repro.obs as obs
from repro.bits.fields import field_mask
from repro.bits.float32 import count_set_bits
from repro.core.batched import BatchedNetworkEvaluator
from repro.core.campaign import CampaignResult
from repro.core.delta import DeltaChainEvaluator
from repro.core.hazard import NumericalHazardGuard
from repro.exec.specs import (
    AdaptiveSpec,
    CampaignSpec,
    ForwardSpec,
    McmcSpec,
    StratifiedSpec,
    TemperedSpec,
    TemperingSpec,
)
from repro.core.posterior import ErrorPosterior
from repro.faults.bernoulli import BernoulliBitFlipModel
from repro.faults.configuration import FaultConfiguration
from repro.faults.injection import ActivationInjector, InputInjector, apply_configuration
from repro.faults.model import FaultModel
from repro.faults.targets import (
    FaultSurface,
    TargetSpec,
    resolve_activation_modules,
    resolve_parameter_targets,
)
from repro.mcmc.chain import Chain, ChainSet
from repro.mcmc.forward import PROGRESS_EVERY, ForwardSampler
from repro.mcmc.metropolis import MetropolisHastingsSampler
from repro.mcmc.mixing import CompletenessCriterion
from repro.mcmc.proposals import BlockResample, MixtureProposal, SingleBitToggle
from repro.obs.metrics import MetricsRegistry
from repro.mcmc.targets import PriorTarget, TemperedErrorTarget
from repro.nn.module import Module
from repro.tensor.tensor import Tensor, no_grad
from repro.train.metrics import classification_error
from repro.utils.logging import get_logger
from repro.utils.rng import RngFactory, spawn_generators
from repro.utils.timing import Timer

__all__ = ["BayesianFaultInjector"]

_LOGGER = get_logger("core")

#: sign/exponent/mantissa masks, precomputed for the per-flip field taxonomy
_FIELD_MASKS = tuple((field, field_mask(field)) for field in ("sign", "exponent", "mantissa"))

#: configurations evaluated per batched sweep on the fast forward path —
#: bounds the (chunk, batch, channels, H, W) float64 intermediates
_FAST_CHUNK = 8


def _record_configuration(metrics, configuration: FaultConfiguration) -> None:
    """Detailed per-evaluation counters: flips by IEEE-754 field and by layer.

    Runs on the statistic hot path, but only when a driver registry is
    attached (``--metrics`` / ``obs.Session(metrics=True)``). Counts are
    pure functions of the configuration, so sequential and parallel runs
    reduce to identical totals.
    """
    metrics.inc("forward_passes")
    for name, sparse in configuration.sparse_items():
        flips = sparse.count_set_bits()
        if not flips:
            continue
        metrics.inc(f"flips.layer.{name}", flips)
        for field, bits in _FIELD_MASKS:
            # Field masks are per-lane constants, so counting over the
            # touched elements' lane masks equals counting over the dense mask.
            in_field = count_set_bits(sparse.lane_masks & bits)
            if in_field:
                metrics.inc(f"flips.field.{field}", in_field)


class BayesianFaultInjector:
    """Fault-injection engine over one golden network and evaluation batch.

    Parameters
    ----------
    model:
        Trained network (will be switched to eval mode).
    inputs / labels:
        Evaluation batch the classification-error statistic is computed on.
    spec:
        Fault surfaces and layer filters; defaults to all weights.
    seed:
        Root seed; every campaign derives named substreams, so results are
        exactly reproducible and independent across campaigns.
    fast:
        Whether parameter-surface campaigns run on the segment engine
        (:class:`~repro.core.batched.BatchedNetworkEvaluator`: batched
        forward campaigns, the single-configuration statistic from the
        cached golden prefix, and delta-forward chains), which is
        bit-identical to the standard ``model(x)`` path. ``None`` (default)
        uses the engine whenever the model supports it; ``False`` forces
        the standard path (a debugging escape hatch); ``True`` demands the
        engine and raises if it is unavailable.
    """

    def __init__(
        self,
        model: Module,
        inputs: np.ndarray,
        labels: np.ndarray,
        spec: TargetSpec | None = None,
        seed: int = 0,
        fast: bool | None = None,
    ) -> None:
        inputs = np.asarray(inputs, dtype=np.float32)
        labels = np.asarray(labels, dtype=np.int64)
        if len(inputs) != len(labels):
            raise ValueError(f"inputs ({len(inputs)}) and labels ({len(labels)}) misaligned")
        if len(labels) == 0:
            raise ValueError("evaluation batch is empty")
        self.model = model.eval()
        self.inputs = inputs
        self.labels = labels
        self.spec = spec or TargetSpec()
        self.seed = seed
        self._rng_factory = RngFactory(seed)
        #: hazard guard of the campaign currently executing under :meth:`run`
        self._active_guard: NumericalHazardGuard | None = None
        #: campaign-local registry for *detailed* (per-flip) metrics; only set
        #: while :meth:`run` executes with a driver registry attached, so the
        #: hot path costs one attribute check when detailed metrics are off
        self._active_metrics: MetricsRegistry | None = None

        self.parameter_targets = resolve_parameter_targets(model, self.spec)
        self.activation_modules = resolve_activation_modules(model, self.spec)
        self._wants_parameters = bool(self.parameter_targets)
        self._wants_inputs = FaultSurface.INPUTS in self.spec.surfaces
        if not (self._wants_parameters or self.activation_modules or self._wants_inputs):
            raise ValueError("target spec selects nothing in this model")

        self.fast = fast
        #: the segment engine once built, or the exception that prevented it
        self._segments: BatchedNetworkEvaluator | Exception | None = None
        if fast and not self._parameter_only():
            raise ValueError(
                "fast=True requires parameter-only fault surfaces; transient "
                "(activation/input) injection redraws faults per forward pass "
                "and cannot reuse cached activations"
            )

        self._x = Tensor(self.inputs)
        with no_grad():
            #: fault-free logits; the segment engine verifies its chain against them
            self._golden_logits = self.model(self._x).data
        self._golden_error = classification_error(self._golden_logits, self.labels)

    # ------------------------------------------------------------------ #
    # evaluation primitives
    # ------------------------------------------------------------------ #

    @property
    def golden_error(self) -> float:
        """Classification error of the fault-free network on the eval batch."""
        return self._golden_error

    def _predict(self) -> np.ndarray:
        with no_grad():
            logits = self.model(self._x)
        return logits.data.argmax(axis=1)

    def _transient_context(self, fault_model: FaultModel, rng: np.random.Generator):
        """Stack of hook injectors for the transient (activation/input) surfaces."""
        stack = contextlib.ExitStack()
        if self.activation_modules:
            stack.enter_context(ActivationInjector(self.activation_modules, fault_model, rng))
        if self._wants_inputs:
            stack.enter_context(InputInjector(self.model, fault_model, rng))
        return stack

    # ------------------------------------------------------------------ #
    # fast-path machinery (bit-identical to the standard path)
    # ------------------------------------------------------------------ #

    def _parameter_only(self) -> bool:
        """Whether every selected fault surface is a parameter surface."""
        return self._wants_parameters and not self.activation_modules and not self._wants_inputs

    def _engine(self, override: bool | None = None) -> BatchedNetworkEvaluator | None:
        """The segment engine for one campaign, or ``None`` for the standard path.

        ``override`` (a spec's or statistic's ``fast``) wins over the
        injector's ``fast`` when set. ``False`` selects the standard path,
        ``None`` the engine when it is available, and ``True`` raises when
        it is not. The engine is built once, on first use, and shared by
        every later campaign; an injector built with ``fast=False`` never
        builds it.
        """
        fast = self.fast if override is None else override
        if fast is False:
            return None
        if self._segments is None:
            if self.fast is False:
                self._segments = ValueError("the injector was built with fast=False")
            else:
                try:
                    self._segments = BatchedNetworkEvaluator(self)
                except (TypeError, ValueError) as exc:
                    self._segments = exc
        if isinstance(self._segments, Exception):
            if fast:
                raise ValueError(
                    f"fast=True but the segment engine is unavailable: {self._segments}"
                ) from self._segments
            return None
        return self._segments

    def make_statistic(
        self,
        fault_model: FaultModel,
        rng: np.random.Generator,
        guard: NumericalHazardGuard | None = None,
        fast: bool | None = None,
    ):
        """Build ``FaultConfiguration → classification error`` for one campaign.

        Parameter masks come from the configuration (the MCMC state);
        transient surfaces draw fresh faults from ``fault_model`` inside the
        evaluation, using the supplied stream. ``fast`` overrides the
        injector's ``fast`` for this statistic: on the segment engine a
        configuration is scored as a one-row sweep from the cached golden
        prefix, leaving the live parameters untouched; on the standard path
        it is applied to the model and the full forward runs.

        Every evaluation runs under a :class:`NumericalHazardGuard`
        (``guard``, the active campaign's guard, or a private one): flipped
        exponent bits legitimately produce inf/nan activations, so FP error
        events are counted rather than warned, and rows with non-finite
        logits are quarantined into the ``hazard`` outcome class instead of
        polluting the misclassification statistic.
        """
        hazard_guard = guard or self._active_guard or NumericalHazardGuard()
        # resolved here, never inside the statistic: building the engine
        # verifies the golden chain, which must not see an applied fault
        engine = self._engine(fast)

        def statistic(configuration: FaultConfiguration) -> float:
            if self._active_metrics is not None:
                _record_configuration(self._active_metrics, configuration)
            if engine is not None:
                with obs.phase("forward.eval"):
                    logits = engine.evaluate_logits([configuration], guard=hazard_guard)[0]
                return hazard_guard.score(logits, self.labels)
            if self._wants_parameters:
                parameter_context = apply_configuration(self.model, configuration)
            else:  # transient-only campaign; the configuration is a placeholder
                parameter_context = contextlib.nullcontext()
            # Campaign-phase accounting (obs.phase is a nullcontext when no
            # profiler is attached): the XOR mask application is billed to
            # ``flip.apply``, the faulted forward pass to ``forward.eval``.
            # Both are purely observational — clock reads only.
            with contextlib.ExitStack() as stack:
                with obs.phase("flip.apply"):
                    stack.enter_context(parameter_context)
                stack.enter_context(hazard_guard.capture())
                stack.enter_context(self._transient_context(fault_model, rng))
                with obs.phase("forward.eval"), no_grad():
                    logits = self.model(self._x)
            return hazard_guard.score(logits, self.labels)

        return statistic

    def predictions_under(self, configuration: FaultConfiguration) -> np.ndarray:
        """Predicted labels with a parameter-fault configuration applied."""
        with apply_configuration(self.model, configuration):
            return self._predict()

    # ------------------------------------------------------------------ #
    # the spec dispatcher
    # ------------------------------------------------------------------ #

    def run(self, spec: CampaignSpec):
        """Execute a declarative :class:`~repro.exec.specs.CampaignSpec`.

        The single entry point every campaign goes through: keyword-argument
        methods (:meth:`forward_campaign` et al.) build a spec and call this,
        and the :class:`~repro.exec.executor.ParallelCampaignExecutor` ships
        specs to workers that call it there. Wall-clock duration is recorded
        on the returned :class:`CampaignResult` (``duration_s``).

        Returns whatever the underlying procedure returns — a
        :class:`CampaignResult` for every spec except :class:`TemperedSpec`,
        which yields ``(CampaignResult, importance-weighted error)``.
        """
        if not isinstance(spec, CampaignSpec):
            raise TypeError(
                f"run() takes a CampaignSpec, got {type(spec).__name__}; "
                "see repro.exec.specs for the available campaign types"
            )
        handler = getattr(self, f"_execute_{spec.kind}", None)
        if handler is None:
            raise ValueError(f"no executor for campaign kind {spec.kind!r}")
        guard = NumericalHazardGuard()
        campaign_metrics = MetricsRegistry()
        self._active_guard = guard
        # per-flip detail is only recorded when a driver registry is attached;
        # the authoritative digest below is stamped unconditionally
        if obs.metrics() is not None:
            self._active_metrics = campaign_metrics
        # Per-layer attribution + campaign phase grouping. The hooks are
        # passive (clock reads only) and removed on exit, so results are
        # bit-identical with or without a profiler attached.
        profiler = obs.profiler()
        layer_context = contextlib.nullcontext()
        if profiler is not None:
            layer_context = obs.profile_module(self.model, profiler)
        try:
            with obs.span(f"campaign.{spec.kind}", p=spec.p, stream=getattr(spec, "stream", None)):
                with obs.phase(f"campaign.{spec.kind}"), layer_context:
                    with Timer() as timer:
                        outcome = handler(spec)
        finally:
            self._active_guard = None
            self._active_metrics = None
        hazard = guard.report()
        if hazard.any_hazard:
            _LOGGER.info("campaign %s: %s", spec.kind, hazard)
        is_pair = isinstance(outcome, tuple)
        result = outcome[0] if is_pair else outcome
        result = dataclasses.replace(result, duration_s=timer.elapsed, hazard=hazard)
        digest = self._campaign_digest(campaign_metrics, result)
        result = dataclasses.replace(result, metrics=digest)
        obs.merge_metrics(digest)
        if is_pair:
            return result, outcome[1]
        return result

    @staticmethod
    def _campaign_digest(registry: MetricsRegistry, result: CampaignResult) -> dict:
        """Stamp the authoritative per-campaign counters and freeze a snapshot.

        These counters are derived from the campaign's own accounting
        (chains, hazard report) rather than hot-path hooks, so they cost
        nothing during sampling, are exactly reproducible, and reduce to
        identical totals whether the campaign ran in-process or on a
        worker (the digest rides on the result through pipes and the
        journal). The registry may additionally hold detailed per-flip
        counters recorded inline when a driver registry was attached.
        """
        chains = result.chains
        proposal_steps = len(chains) * chains.steps
        registry.inc("campaigns")
        registry.inc("evaluations", result.total_evaluations)
        registry.inc("flips.applied", chains.total_flips())
        registry.inc("proposal.steps", proposal_steps)
        registry.inc("proposal.accepted", chains.accepted_total())
        if result.hazard is not None:
            for name, value in result.hazard.metrics_counters().items():
                registry.inc(name, value)
        registry.set_gauge("accept_rate", chains.accepted_total() / max(1, proposal_steps))
        if result.completeness is not None:
            registry.set_gauge("r_hat", result.completeness.r_hat)
            registry.set_gauge("ess", result.completeness.ess)
        registry.observe("campaign.duration_s", result.duration_s)
        return registry.snapshot()

    # ------------------------------------------------------------------ #
    # campaigns (thin wrappers building specs)
    # ------------------------------------------------------------------ #

    def _fault_model(self, p: float, fault_model: FaultModel | None) -> FaultModel:
        return fault_model if fault_model is not None else BernoulliBitFlipModel(p)

    def forward_campaign(
        self,
        p: float,
        samples: int = 200,
        chains: int = 2,
        fault_model: FaultModel | None = None,
        stream: str = "forward",
    ) -> CampaignResult:
        """i.i.d. Monte Carlo over the fault prior at flip probability ``p``."""
        return self.run(
            ForwardSpec(p=p, samples=samples, chains=chains, fault_model=fault_model, stream=stream)
        )

    def mcmc_campaign(
        self,
        p: float,
        chains: int = 4,
        steps: int = 250,
        fault_model: FaultModel | None = None,
        toggle_weight: float = 0.5,
        resample_weight: float = 0.5,
        discard_fraction: float = 0.25,
        criterion: CompletenessCriterion | None = None,
        stream: str = "mcmc",
        fast: bool | None = None,
    ) -> CampaignResult:
        """Multi-chain Metropolis–Hastings targeting the fault prior.

        The proposal mixes single-bit toggles (local) with block prior
        resampling (global); weights tune the mixing-speed experiments.
        ``fast`` overrides the injector's ``fast`` for this campaign
        (results are bit-identical either way).
        """
        return self.run(
            McmcSpec(
                p=p,
                chains=chains,
                steps=steps,
                fault_model=fault_model,
                toggle_weight=toggle_weight,
                resample_weight=resample_weight,
                discard_fraction=discard_fraction,
                criterion=criterion,
                stream=stream,
                fast=fast,
            )
        )

    def tempered_campaign(
        self,
        p: float,
        beta: float,
        chains: int = 4,
        steps: int = 250,
        fault_model: FaultModel | None = None,
        discard_fraction: float = 0.25,
        stream: str = "tempered",
        fast: bool | None = None,
    ) -> tuple[CampaignResult, float]:
        """Failure-biased MCMC; returns (campaign, importance-weighted error).

        The chain explores π_β ∝ prior·exp(β·error); the returned weighted
        estimate self-normalises importance weights exp(−β·error) to
        recover the prior-expected classification error.
        """
        return self.run(
            TemperedSpec(
                p=p,
                beta=beta,
                chains=chains,
                steps=steps,
                fault_model=fault_model,
                discard_fraction=discard_fraction,
                stream=stream,
                fast=fast,
            )
        )

    def parallel_tempering_campaign(
        self,
        p: float,
        chains: int = 2,
        sweeps: int = 250,
        betas: tuple[float, ...] = (0.0, 5.0, 20.0, 80.0),
        fault_model: FaultModel | None = None,
        discard_fraction: float = 0.25,
        stream: str = "tempering",
        fast: bool | None = None,
    ) -> CampaignResult:
        """Replica-exchange campaign; the cold rung samples the fault prior.

        Hot rungs concentrate on error-causing configurations and pass them
        down the ladder, improving mixing in rare-event regimes without any
        importance reweighting. The returned campaign is built from the
        cold-rung chains; swap acceptance is logged.
        """
        return self.run(
            TemperingSpec(
                p=p,
                chains=chains,
                sweeps=sweeps,
                betas=tuple(betas),
                fault_model=fault_model,
                discard_fraction=discard_fraction,
                stream=stream,
                fast=fast,
            )
        )

    def run_until_complete(
        self,
        p: float,
        criterion: CompletenessCriterion | None = None,
        chains: int = 4,
        batch_steps: int = 50,
        max_steps: int = 2000,
        fault_model: FaultModel | None = None,
        stream: str = "adaptive",
    ) -> CampaignResult:
        """Grow an i.i.d. campaign until the completeness criterion fires.

        This is the BDLFI stopping rule in action: extend every chain by
        ``batch_steps``, re-assess R̂/ESS/MCSE, stop when complete (or at
        ``max_steps`` per chain, returning the final incomplete report).
        """
        return self.run(
            AdaptiveSpec(
                p=p,
                criterion=criterion,
                chains=chains,
                batch_steps=batch_steps,
                max_steps=max_steps,
                fault_model=fault_model,
                stream=stream,
            )
        )

    # ------------------------------------------------------------------ #
    # spec executors (the actual procedures)
    # ------------------------------------------------------------------ #

    def _execute_forward(self, spec: ForwardSpec) -> CampaignResult:
        p, stream = spec.p, spec.stream
        model = self._fault_model(p, spec.fault_model)
        engine = self._engine()
        if engine is not None:
            return self._execute_forward_fast(spec, model, engine)
        rng = self._rng_factory.stream(f"{stream}:p={p!r}")
        sampler = ForwardSampler(
            self.parameter_targets or self._pseudo_targets(),
            model,
            self.make_statistic(model, self._rng_factory.stream(f"{stream}:transient:p={p!r}")),
        )
        steps = max(1, spec.samples // spec.chains)
        chain_set = sampler.run(chains=spec.chains, steps=steps, rng=rng)
        return self._package(p, chain_set, "forward", discard_fraction=0.0)

    def _execute_forward_fast(
        self, spec: ForwardSpec, fault_model: FaultModel, engine: BatchedNetworkEvaluator
    ) -> CampaignResult:
        """i.i.d. forward campaign on the segment engine.

        Bit-identical to the standard :class:`ForwardSampler` executor: the
        same stream splits into the same per-chain generators, each chain
        draws the same configurations in the same order (the parameter-only
        statistic consumes no randomness during evaluation), and the batched
        logits are bit-identical to the sequential faulted forwards — so the
        recorded chains, posterior, and digest all match exactly. Only the
        evaluation order changes: configurations are scored ``_FAST_CHUNK``
        at a time through one stacked-einsum sweep.
        """
        p, stream = spec.p, spec.stream
        if spec.chains <= 0:
            raise ValueError(f"chains must be positive, got {spec.chains}")
        rng = self._rng_factory.stream(f"{stream}:p={p!r}")
        generators = spawn_generators(rng, spec.chains)
        steps = max(1, spec.samples // spec.chains)
        guard = self._active_guard or NumericalHazardGuard()
        chains = []
        for chain_id, generator in enumerate(generators):
            chain = Chain(chain_id)
            with obs.span("chain.forward", chain_id=chain_id, steps=steps):
                configurations = [
                    FaultConfiguration.sample(self.parameter_targets, fault_model, generator)
                    for _ in range(steps)
                ]
                done = 0
                for start in range(0, steps, _FAST_CHUNK):
                    chunk = configurations[start : start + _FAST_CHUNK]
                    if self._active_metrics is not None:
                        for configuration in chunk:
                            _record_configuration(self._active_metrics, configuration)
                    with obs.phase("forward.eval"):
                        logits = engine.evaluate_logits(chunk, guard=guard)
                    for configuration, row in zip(chunk, logits):
                        value = guard.score(row, self.labels)
                        chain.record(value, configuration.total_flips(), accepted=True)
                        done += 1
                        if obs.listening() and done % PROGRESS_EVERY == 0:
                            window = chain.recent(PROGRESS_EVERY)
                            obs.publish(
                                "chain.progress",
                                sampler="forward",
                                chain_id=chain_id,
                                step=done,
                                steps=steps,
                                window_mean=float(window.mean()),
                            )
            chains.append(chain)
        return self._package(p, ChainSet(chains), "forward", discard_fraction=0.0)

    def _execute_mcmc(self, spec: McmcSpec) -> CampaignResult:
        if not self._wants_parameters:
            raise ValueError("MCMC campaigns require parameter fault surfaces (the mask state)")
        p, stream = spec.p, spec.stream
        model = self._fault_model(p, spec.fault_model)
        statistic = self.make_statistic(
            model, self._rng_factory.stream(f"{stream}:transient:p={p!r}"), fast=spec.fast
        )
        segments = self._engine(spec.fast)
        proposal = self._make_proposal(model, spec.toggle_weight, spec.resample_weight)
        sampler = MetropolisHastingsSampler(
            PriorTarget(model),
            proposal,
            statistic,
            initial=lambda r: FaultConfiguration.sample(self.parameter_targets, model, r),
            engine=None if segments is None else DeltaChainEvaluator(segments),
        )
        chain_set = sampler.run(
            chains=spec.chains, steps=spec.steps, rng=self._rng_factory.stream(f"{stream}:p={p!r}")
        )
        criterion = spec.criterion or CompletenessCriterion()
        report = criterion.assess(chain_set)
        return self._package(
            p, chain_set, "mcmc", discard_fraction=spec.discard_fraction, completeness=report
        )

    def _execute_tempered(self, spec: TemperedSpec) -> tuple[CampaignResult, float]:
        if not self._wants_parameters:
            raise ValueError("tempered campaigns require parameter fault surfaces")
        p, beta, stream = spec.p, spec.beta, spec.stream
        model = self._fault_model(p, spec.fault_model)
        statistic = self.make_statistic(
            model, self._rng_factory.stream(f"{stream}:transient:p={p!r}"), fast=spec.fast
        )
        segments = self._engine(spec.fast)
        # Memoisation requires a deterministic statistic; transient surfaces
        # redraw faults per evaluation (the sampler's identity shortcut makes
        # the memo moot here anyway, but keep the contract explicit).
        target = TemperedErrorTarget(model, statistic, beta, memoize=self._parameter_only())
        proposal = self._make_proposal(model, toggle_weight=0.7, resample_weight=0.3)
        sampler = MetropolisHastingsSampler(
            target,
            proposal,
            statistic,
            initial=lambda r: FaultConfiguration.sample(self.parameter_targets, model, r),
            engine=None if segments is None else DeltaChainEvaluator(segments),
        )
        chain_set = sampler.run(
            chains=spec.chains, steps=spec.steps, rng=self._rng_factory.stream(f"{stream}:p={p!r}")
        )
        result = self._package(
            p, chain_set, f"tempered(beta={beta:g})", discard_fraction=spec.discard_fraction
        )
        values = np.concatenate([c.tail(spec.discard_fraction) for c in chain_set.chains])
        log_w = -beta * values
        log_w -= log_w.max()
        weights = np.exp(log_w)
        weighted = float((weights * values).sum() / weights.sum())
        return result, weighted

    def _execute_tempering(self, spec: TemperingSpec) -> CampaignResult:
        if not self._wants_parameters:
            raise ValueError("tempering campaigns require parameter fault surfaces")
        from repro.mcmc.tempering import ParallelTemperingSampler

        p, stream = spec.p, spec.stream
        model = self._fault_model(p, spec.fault_model)
        statistic = self.make_statistic(
            model, self._rng_factory.stream(f"{stream}:transient:p={p!r}"), fast=spec.fast
        )
        segments = self._engine(spec.fast)
        sampler = ParallelTemperingSampler(
            self.parameter_targets,
            model,
            statistic,
            proposal=self._make_proposal(model, toggle_weight=0.8, resample_weight=0.2),
            betas=spec.betas,
            engine=None if segments is None else DeltaChainEvaluator(segments),
        )
        result = sampler.run(
            chains=spec.chains, sweeps=spec.sweeps, rng=self._rng_factory.stream(f"{stream}:p={p!r}")
        )
        _LOGGER.info(
            "tempering campaign p=%g: swap acceptance %.2f, rung means %s",
            p, result.swap_acceptance, [f"{m:.3f}" for m in result.rung_means],
        )
        return self._package(
            p,
            result.cold_chains,
            f"tempering(rungs={len(spec.betas)})",
            discard_fraction=spec.discard_fraction,
        )

    def _execute_adaptive(self, spec: AdaptiveSpec) -> CampaignResult:
        criterion = spec.criterion or CompletenessCriterion()
        p, stream = spec.p, spec.stream
        model = self._fault_model(p, spec.fault_model)
        statistic = self.make_statistic(model, self._rng_factory.stream(f"{stream}:transient:p={p!r}"))
        sampler = ForwardSampler(self.parameter_targets or self._pseudo_targets(), model, statistic)
        generators = [
            self._rng_factory.stream(f"{stream}:p={p!r}:chain={i}") for i in range(spec.chains)
        ]
        from repro.mcmc.chain import Chain

        chain_objs = [Chain(i) for i in range(spec.chains)]
        report = None
        while chain_objs[0].values.size < spec.max_steps:
            for chain, gen in zip(chain_objs, generators):
                extension = sampler.run_chain(spec.batch_steps, gen, chain_id=chain.chain_id)
                for value, flips in zip(extension.values, extension.flips):
                    chain.record(value, int(flips))
            chain_set = ChainSet(chain_objs)
            report = criterion.assess(chain_set)
            _LOGGER.info("adaptive campaign p=%g: %s", p, report)
            if obs.listening():
                # live view: diagnostics over the trailing window alongside the
                # full-history report, so late drift is visible as it happens
                live = criterion.assess_window(chain_set, max(4, 2 * spec.batch_steps))
                obs.publish(
                    "adaptive.progress",
                    p=p,
                    steps=chain_set.steps,
                    complete=report.complete,
                    r_hat=report.r_hat,
                    ess=report.ess,
                    mcse=report.mcse,
                    estimate=report.estimate,
                    window_r_hat=live.r_hat,
                    window_ess=live.ess,
                    window_estimate=live.estimate,
                )
            if report.complete:
                break
        chain_set = ChainSet(chain_objs)
        report = report or criterion.assess(chain_set)
        return self._package(
            p, chain_set, "adaptive", discard_fraction=criterion.discard_fraction, completeness=report
        )

    def _execute_stratified(self, spec: StratifiedSpec) -> CampaignResult:
        from repro.core.stratified import StratifiedErrorEstimator

        estimator = StratifiedErrorEstimator(
            self,
            samples_per_stratum=spec.samples_per_stratum,
            mass_tolerance=spec.mass_tolerance,
            max_strata=spec.max_strata,
        )
        return estimator.estimate(spec.p).as_campaign_result()

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _make_proposal(self, fault_model: FaultModel, toggle_weight: float, resample_weight: float):
        components = []
        if toggle_weight > 0:
            components.append((SingleBitToggle(self.parameter_targets), toggle_weight))
        if resample_weight > 0:
            components.append((BlockResample(self.parameter_targets, fault_model), resample_weight))
        if not components:
            raise ValueError("at least one of toggle_weight/resample_weight must be positive")
        return MixtureProposal(components)

    def _pseudo_targets(self):
        """Zero-size mask space for transient-only campaigns.

        Forward sampling still needs *a* configuration object; an empty
        weight mask makes the parameter XOR a no-op while hooks do the
        actual injection.
        """
        from repro.nn.module import Parameter

        return [("__transient__", Parameter(np.zeros(0, dtype=np.float32)))]

    def _package(
        self,
        p: float,
        chain_set: ChainSet,
        method: str,
        discard_fraction: float,
        completeness=None,
    ) -> CampaignResult:
        values = np.concatenate([c.tail(discard_fraction) for c in chain_set.chains])
        posterior = ErrorPosterior(values, self.golden_error)
        return CampaignResult(
            flip_probability=p,
            golden_error=self.golden_error,
            chains=chain_set,
            posterior=posterior,
            method=method,
            seed=self.seed,
            completeness=completeness,
            discard_fraction=discard_fraction,
        )
