"""One-call resilience assessment.

:func:`assess_model` runs the standard BDLFI battery over a trained model
— golden run, probability sweep with knee detection, outcome taxonomy at
the knee, gradient lane profile, per-layer vulnerability — and returns a
:class:`ResilienceAssessment` that renders as a markdown report. This is
the "what a downstream user actually wants" entry point: one function from
trained model to reliability engineering numbers. Its sweep and layerwise
campaigns run through one
:class:`~repro.exec.executor.ParallelCampaignExecutor`, in-process at the
default ``workers=1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bits.fields import bit_field
from repro.core.injector import BayesianFaultInjector
from repro.core.knee import TwoRegimeFit
from repro.core.layerwise import LayerwiseCampaign, parameterised_layers
from repro.core.outcomes import OutcomeCampaign
from repro.core.sweep import ProbabilitySweep
from repro.exec.executor import InjectorRecipe, ParallelCampaignExecutor
from repro.faults.targets import TargetSpec
from repro.nn.module import Module
from repro.sensitivity.taylor import TaylorSensitivity
from repro.utils.logging import get_logger

__all__ = ["ResilienceAssessment", "assess_model"]

_LOGGER = get_logger("core.assessment")


@dataclass
class ResilienceAssessment:
    """Everything the battery measured, plus a markdown renderer."""

    golden_error: float
    sweep_table: list[dict[str, float]]
    regimes: TwoRegimeFit
    knee_p: float
    outcome_summary: dict[str, float]
    #: mean predicted Taylor impact by IEEE-754 field
    field_sensitivity: dict[str, float]
    catastrophic_sites: int
    layer_table: list[dict[str, float | str]] = field(default_factory=list)
    layer_depth_correlation: dict[str, float] = field(default_factory=dict)
    #: analytic moment-propagation bounds at the knee (Dense/ReLU models only)
    analytic_bounds: tuple[float, float] | None = None

    def to_markdown(self) -> str:
        lines = [
            "# Fault-tolerance assessment (BDLFI)",
            "",
            f"- golden classification error: **{self.golden_error:.2%}**",
            f"- two fault regimes detected: **{self.regimes.has_two_regimes}**"
            f" (knee at p ≈ {self.knee_p:.2e})",
            f"- catastrophic (non-finite-flip) fault sites: **{self.catastrophic_sites}**",
            "",
            "## Error vs flip probability",
            "",
            "| p | error % | 95% CI |",
            "|---|---|---|",
        ]
        for row in self.sweep_table:
            lines.append(
                f"| {row['p']:.2e} | {row['error_pct']:.2f} | "
                f"[{row['ci_lo_pct']:.2f}, {row['ci_hi_pct']:.2f}] |"
            )
        lines += [
            "",
            f"## Outcome taxonomy at the knee (p = {self.knee_p:.2e})",
            "",
            f"- masked: {self.outcome_summary['masked_rate']:.1%}",
            f"- SDC (silent): {self.outcome_summary['sdc_rate']:.1%}",
            f"- DUE (trappable): {self.outcome_summary['due_rate']:.1%}",
        ]
        detectable = self.outcome_summary["detectable_damage_fraction"]
        if np.isfinite(detectable):
            lines.append(f"- fraction of damage an isfinite-guard would catch: {detectable:.1%}")
        lines += [
            "",
            "## Bit-field sensitivity (Taylor, one backward pass)",
            "",
        ]
        for name in ("sign", "exponent", "mantissa"):
            lines.append(f"- {name}: mean predicted impact {self.field_sensitivity[name]:.3e}")
        if self.analytic_bounds is not None:
            lo, hi = self.analytic_bounds
            lines += [
                "",
                f"analytic (moment-propagation) error bounds at the knee: "
                f"[{100 * lo:.2f} %, {100 * hi:.2f} %]",
            ]
        if self.layer_table:
            lines += ["", "## Per-layer vulnerability", "", "| layer | error % | parameters |", "|---|---|---|"]
            for row in self.layer_table:
                lines.append(f"| {row['layer']} | {row['error_pct']:.2f} | {row['parameters']} |")
            correlation = self.layer_depth_correlation
            lines.append("")
            lines.append(
                f"depth↔error Spearman ρ = {correlation['spearman_rho']:+.3f} "
                f"(p = {correlation['spearman_p']:.3f})"
            )
        return "\n".join(lines)


def assess_model(
    model: Module,
    inputs: np.ndarray,
    labels: np.ndarray,
    spec: TargetSpec | None = None,
    seed: int = 0,
    p_values: tuple[float, ...] | None = None,
    samples_per_point: int = 100,
    outcome_samples: int = 150,
    layerwise_samples: int = 30,
    include_layerwise: bool = True,
    workers: int = 1,
    model_builder=None,
) -> ResilienceAssessment:
    """Run the full assessment battery; see module docstring.

    The flip-probability grid defaults to the paper's 1e-5 … 1e-1 range;
    pass a custom grid for networks whose knee lies elsewhere (knee
    position scales roughly as 1/#parameters — see EXPERIMENTS.md E4).

    The sweep and layerwise campaigns run through one
    :class:`~repro.exec.executor.ParallelCampaignExecutor` of ``workers``
    processes (in-process at ``workers=1``); results are bit-identical at
    every pool width. ``model_builder`` (a picklable zero-argument
    architecture constructor) switches worker transport from
    embedded-model to builder + golden checkpoint.
    """
    spec = spec or TargetSpec.weights_and_biases()
    injector = BayesianFaultInjector(model, inputs, labels, spec=spec, seed=seed)
    recipe = InjectorRecipe.from_model(
        model, inputs, labels, spec=spec, seed=seed, model_builder=model_builder
    )
    executor = ParallelCampaignExecutor(recipe, workers=workers)

    sweep = ProbabilitySweep(
        injector,
        p_values=p_values or tuple(np.logspace(-5, -1, 9)),
        samples=samples_per_point,
        chains=2,
        executor=executor,
    ).run()
    regimes = sweep.fit_regimes(truncate_saturation=True)
    knee_p = float(np.clip(regimes.knee_p, sweep.p_values[0], sweep.p_values[-1]))
    _LOGGER.info("assessment sweep complete; knee at p=%g", knee_p)

    outcomes = OutcomeCampaign(injector).run(knee_p, samples=outcome_samples)

    sensitivity = TaylorSensitivity(model, inputs, labels, injector.parameter_targets)
    lanes = sensitivity.lane_profile()
    field_sensitivity: dict[str, list[float]] = {"sign": [], "exponent": [], "mantissa": []}
    for lane, value in lanes.items():
        if np.isfinite(value):
            field_sensitivity[bit_field(lane)].append(value)
    field_means = {
        name: float(np.mean(values)) if values else float("inf")
        for name, values in field_sensitivity.items()
    }
    catastrophic = sum(sensitivity.catastrophic_site_counts().values())

    analytic_bounds: tuple[float, float] | None = None
    try:
        from repro.moments import MomentPropagator

        prediction = MomentPropagator(model, knee_p).predict_error(inputs, labels)
        analytic_bounds = (prediction.error_lower, prediction.error_upper)
    except TypeError:
        pass  # non-Dense/ReLU architecture: analytic propagation unavailable

    layer_table: list[dict[str, float | str]] = []
    depth_correlation: dict[str, float] = {}
    if include_layerwise and len(parameterised_layers(model)) >= 2:
        layerwise = LayerwiseCampaign(
            model, inputs, labels, p=knee_p, samples=layerwise_samples, chains=1, seed=seed,
            executor=executor, model_builder=model_builder,
        ).run()
        layer_table = layerwise.table()
        depth_correlation = layerwise.depth_correlation()

    return ResilienceAssessment(
        golden_error=injector.golden_error,
        sweep_table=sweep.table(),
        regimes=regimes,
        knee_p=knee_p,
        outcome_summary=outcomes.summary(),
        field_sensitivity=field_means,
        catastrophic_sites=catastrophic,
        layer_table=layer_table,
        layer_depth_correlation=depth_correlation,
        analytic_bounds=analytic_bounds,
    )
