"""Layer-by-layer injection — the harness behind Fig. 3.

The paper injects faults into one ResNet-18 layer at a time and finds
(finding F3) that "there is no direct relationship between the layer in
which the fault manifests and the network classification error", contrary
to Li et al. (SC'17).

:class:`LayerwiseCampaign` runs an independent campaign per parameterised
layer (same flip probability, same budget) and reports the per-layer error
series plus the Spearman/Kendall rank correlations between layer depth and
induced error — the quantitative version of F3 (|ρ| near 0, p-value large).

Layer campaigns run through a
:class:`~repro.exec.executor.ParallelCampaignExecutor` at every pool width,
one recipe per layer over one shared golden-state snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy import stats as sps

import repro.obs as obs
from repro.core.campaign import CampaignResult
from repro.exec.executor import CampaignTask, InjectorRecipe, ParallelCampaignExecutor
from repro.exec.specs import ForwardSpec
from repro.faults.targets import TargetSpec, resolve_parameter_targets
from repro.nn.module import Module
from repro.utils.logging import get_logger

__all__ = ["LayerResult", "LayerwiseCampaign", "parameterised_layers"]

_LOGGER = get_logger("core.layerwise")


def parameterised_layers(model: Module) -> list[str]:
    """Dotted names of leaf modules owning parameters, in forward order."""
    return [name for name, module in model.named_modules() if name and module._parameters]


@dataclass(frozen=True)
class LayerResult:
    """Per-layer campaign outcome."""

    layer: str
    depth_index: int
    mean_error: float
    ci_lo: float
    ci_hi: float
    parameter_count: int
    campaign: CampaignResult


@dataclass
class LayerwiseCampaign:
    """One campaign per layer at a fixed flip probability.

    Parameters
    ----------
    model / inputs / labels:
        Golden network and evaluation batch.
    p:
        Flip probability used for every layer.
    samples / chains:
        Budget per layer.
    layers:
        Layer names to test; defaults to every parameterised layer.
    seed:
        Root seed; layer campaigns get independent derived streams.
    executor:
        The :class:`~repro.exec.executor.ParallelCampaignExecutor` the
        layers run through (one recipe per layer, each with the layer's
        target spec and derived seed); defaults to an in-process
        ``workers=1`` executor. Per-layer seeds make results bit-identical
        at every pool width. Attach a
        :class:`~repro.exec.journal.CampaignJournal` to the executor to
        record layer campaigns durably; re-running skips journaled layers
        bit-identically.
    model_builder:
        Picklable zero-argument architecture builder used to ship the
        golden model to workers as builder + checkpoint; without it the
        model object is embedded in each recipe (fork-friendly).
    fast:
        Segment-engine selection forwarded to every per-layer injector
        (``None`` uses the bit-identical engine when supported — layerwise
        campaigns are its best case, since deep layers reuse long clean
        prefixes; ``False`` forces the standard path).
    """

    model: Module
    inputs: np.ndarray
    labels: np.ndarray
    p: float = 1e-3
    samples: int = 100
    chains: int = 2
    layers: tuple[str, ...] = ()
    seed: int = 0
    executor: ParallelCampaignExecutor = field(
        default_factory=lambda: ParallelCampaignExecutor(workers=1)
    )
    model_builder: Callable[[], Module] | None = None
    fast: bool | None = None
    results: list[LayerResult] = field(default_factory=list)
    #: layers whose campaign failed under ``on_failure="degrade"``
    #: (each ``{"layer", "depth", "reason", "cause", "attempts"}``)
    failed_layers: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 < self.p <= 1:
            raise ValueError(f"flip probability must be in (0, 1], got {self.p}")
        if not self.layers:
            self.layers = tuple(parameterised_layers(self.model))
        if not self.layers:
            raise ValueError("model has no parameterised layers")

    def _layer_spec(self, layer: str) -> TargetSpec:
        return TargetSpec.single_layer(layer)

    def _campaigns(self) -> list[CampaignResult]:
        spec = ForwardSpec(p=self.p, samples=self.samples, chains=self.chains)
        # one golden-state snapshot shared by every layer's recipe
        golden = InjectorRecipe.from_model(
            self.model, self.inputs, self.labels, model_builder=self.model_builder, fast=self.fast
        )
        return self.executor.execute([
            CampaignTask(
                spec,
                replace(golden, target_spec=self._layer_spec(layer), seed=self.seed + depth),
            )
            for depth, layer in enumerate(self.layers)
        ])

    def run(self) -> "LayerwiseCampaign":
        self.results = []
        self.failed_layers = []
        obs.publish("layerwise.start", layers=len(self.layers), p=self.p)
        with obs.span("layerwise", layers=len(self.layers), p=self.p):
            campaigns = self._campaigns()
        failures = {failure.index: failure for failure in self.executor.stats.failed_tasks}
        for depth, (layer, campaign) in enumerate(zip(self.layers, campaigns)):
            if campaign is None:  # quarantined under on_failure="degrade"
                failure = failures[depth]
                entry = {
                    "layer": layer,
                    "depth": depth,
                    "reason": failure.reason,
                    "cause": failure.cause,
                    "attempts": failure.attempts,
                }
                self.failed_layers.append(entry)
                obs.publish("layerwise.layer_failed", **entry)
                _LOGGER.warning("layer %s campaign failed (%s); continuing degraded",
                                layer, entry["reason"])
                continue
            lo, hi = campaign.posterior.credible_interval()
            params = sum(
                param.size
                for _, param in resolve_parameter_targets(self.model, self._layer_spec(layer))
            )
            self.results.append(
                LayerResult(
                    layer=layer,
                    depth_index=depth,
                    mean_error=campaign.mean_error,
                    ci_lo=lo,
                    ci_hi=hi,
                    parameter_count=params,
                    campaign=campaign,
                )
            )
            _LOGGER.info("layer %s (depth %d): %s", layer, depth, campaign)
            obs.publish(
                "layerwise.layer",
                layer=layer,
                depth=depth,
                mean_error=campaign.mean_error,
                parameters=params,
            )
        return self

    @property
    def degraded(self) -> bool:
        """Whether any layer campaign failed (results cover a layer subset)."""
        return bool(self.failed_layers)

    def accounting(self) -> dict:
        """Explicit completed/failed breakdown over the layer set."""
        return {
            "layers": len(self.layers),
            "completed": len(self.results),
            "failed": len(self.failed_layers),
            "failed_layers": [dict(entry) for entry in self.failed_layers],
        }

    # ------------------------------------------------------------------ #
    # finding F3: depth ↔ error relationship
    # ------------------------------------------------------------------ #

    def _require_results(self) -> None:
        if not self.results:
            raise RuntimeError("campaign has not been run; call .run() first")

    def errors(self) -> np.ndarray:
        self._require_results()
        return np.asarray([r.mean_error for r in self.results])

    def depth_correlation(self) -> dict[str, float]:
        """Spearman and Kendall correlations between depth index and error.

        F3 predicts both correlations are weak (paper: "no direct
        relationship"); the returned p-values quantify that.
        """
        self._require_results()
        depths = np.asarray([r.depth_index for r in self.results], dtype=np.float64)
        errors = self.errors()
        if np.ptp(errors) == 0.0:
            # Constant errors: no relationship by definition (and scipy's
            # correlation is undefined on constant input).
            return {"spearman_rho": 0.0, "spearman_p": 1.0, "kendall_tau": 0.0, "kendall_p": 1.0}
        spearman = sps.spearmanr(depths, errors)
        kendall = sps.kendalltau(depths, errors)
        return {
            "spearman_rho": float(spearman.statistic),
            "spearman_p": float(spearman.pvalue),
            "kendall_tau": float(kendall.statistic),
            "kendall_p": float(kendall.pvalue),
        }

    def table(self) -> list[dict[str, float | str]]:
        """Rows of the Fig. 3 series: layer, depth, error %, CI, #params."""
        self._require_results()
        return [
            {
                "layer": r.layer,
                "depth": r.depth_index,
                "error_pct": 100 * r.mean_error,
                "ci_lo_pct": 100 * r.ci_lo,
                "ci_hi_pct": 100 * r.ci_hi,
                "parameters": r.parameter_count,
            }
            for r in self.results
        ]
