"""Flip-probability sweeps — the harness behind Figs. 2 and 4.

A sweep runs one campaign per probability on a log grid (the paper sweeps
p ∈ [1e-5, 1e-1]) and assembles the error-vs-p series, the golden-run
reference line, and the two-regime fit.

Campaigns are described by a :class:`~repro.exec.specs.CampaignSpec`
*template* whose ``p`` is rebound per grid point (or a ``p → spec``
factory for per-point budgets). Points always run through a
:class:`~repro.exec.executor.ParallelCampaignExecutor` — in-process at
``workers=1`` (the default), over a worker pool otherwise — which owns
journaling, outcome publishing and failure accounting. Results are
bit-identical at every pool width, since campaigns only draw named RNG
substreams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

import repro.obs as obs
from repro.core.campaign import CampaignResult
from repro.core.injector import BayesianFaultInjector
from repro.core.knee import TwoRegimeFit, fit_two_regimes, truncate_saturated_tail
from repro.exec.executor import InjectorRecipe, ParallelCampaignExecutor
from repro.exec.specs import CampaignSpec, ForwardSpec
from repro.utils.logging import get_logger

__all__ = ["SweepPoint", "ProbabilitySweep"]

_LOGGER = get_logger("core.sweep")

#: a spec template (``p`` rebound per point) or a ``p -> spec`` factory
SpecLike = Union[CampaignSpec, Callable[[float], CampaignSpec]]


@dataclass(frozen=True)
class SweepPoint:
    """One probability point of a sweep."""

    p: float
    mean_error: float
    ci_lo: float
    ci_hi: float
    mean_flips: float
    campaign: CampaignResult


@dataclass
class ProbabilitySweep:
    """Error-vs-flip-probability experiment over one injector.

    Parameters
    ----------
    injector:
        Configured :class:`BayesianFaultInjector` (model + eval batch + spec).
    p_values:
        Flip probabilities, defaults to the paper's log grid 1e-5 … 1e-1.
    samples / chains:
        Per-point campaign budget for the default spec.
    spec:
        A :class:`~repro.exec.specs.CampaignSpec` template — its ``p`` is
        rebound per grid point — or a callable ``p → spec``. Defaults to
        :class:`~repro.exec.specs.ForwardSpec` with the budget above.
    executor:
        The :class:`~repro.exec.executor.ParallelCampaignExecutor` the points
        run through; defaults to an in-process ``workers=1`` executor. Its
        ``recipe`` rebuilds the injector; without one, the sweep runs a
        recipe built from ``injector`` (same model object, inputs, seed,
        target spec and ``fast``). Attach a
        :class:`~repro.exec.journal.CampaignJournal` to the executor to
        record points durably: re-running the sweep (e.g. after a crash)
        skips journaled points, bit-identically. Results are bit-identical
        at every pool width.
    """

    injector: BayesianFaultInjector
    p_values: tuple[float, ...] = ()
    samples: int = 200
    chains: int = 2
    spec: SpecLike | None = None
    executor: ParallelCampaignExecutor = field(
        default_factory=lambda: ParallelCampaignExecutor(workers=1)
    )
    points: list[SweepPoint] = field(default_factory=list)
    #: grid points whose campaign failed under ``on_failure="degrade"``
    #: (each ``{"p", "reason", "cause", "attempts"}``); always empty when
    #: the executor aborts on failure, so old callers never see a hole
    failed_points: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.p_values:
            self.p_values = tuple(np.logspace(-5, -1, 13))
        p_arr = np.asarray(self.p_values, dtype=np.float64)
        if np.any(p_arr <= 0) or np.any(p_arr > 1):
            raise ValueError("flip probabilities must lie in (0, 1]")
        if np.any(np.diff(p_arr) <= 0):
            raise ValueError("p_values must be strictly increasing")
        if self.spec is None:
            self.spec = ForwardSpec(
                p=float(self.p_values[0]), samples=self.samples, chains=self.chains
            )

    def spec_for(self, p: float) -> CampaignSpec:
        """The concrete spec run at grid point ``p``."""
        spec = self.spec(p) if callable(self.spec) else self.spec.with_p(p)
        if not isinstance(spec, CampaignSpec):
            raise TypeError(f"spec factory returned {type(spec).__name__}, not a CampaignSpec")
        return spec

    def run(self) -> "ProbabilitySweep":
        """Execute a campaign per probability point (idempotent: clears old points)."""
        self.points = []
        self.failed_points = []
        specs = [self.spec_for(float(p)) for p in self.p_values]
        obs.publish("sweep.start", points=len(specs), p_min=float(self.p_values[0]),
                    p_max=float(self.p_values[-1]))
        recipe = self.executor.recipe or InjectorRecipe.from_model(
            self.injector.model, self.injector.inputs, self.injector.labels,
            spec=self.injector.spec, seed=self.injector.seed, fast=self.injector.fast,
        )
        with obs.span("sweep", points=len(specs)):
            campaigns = self.executor.run(specs, recipe)
        failures = {failure.index: failure for failure in self.executor.stats.failed_tasks}
        for index, (p, campaign) in enumerate(zip(self.p_values, campaigns)):
            if campaign is None:  # quarantined under on_failure="degrade"
                failure = failures[index]
                entry = {
                    "p": float(p),
                    "reason": failure.reason,
                    "cause": failure.cause,
                    "attempts": failure.attempts,
                }
                self.failed_points.append(entry)
                obs.publish("sweep.point_failed", **entry)
                _LOGGER.warning("sweep point p=%g failed (%s); continuing degraded",
                                float(p), entry["reason"])
                continue
            if isinstance(campaign, tuple):  # TemperedSpec: (result, weighted error)
                campaign = campaign[0]
            lo, hi = campaign.posterior.credible_interval()
            self.points.append(
                SweepPoint(
                    p=float(p),
                    mean_error=campaign.mean_error,
                    ci_lo=lo,
                    ci_hi=hi,
                    mean_flips=campaign.mean_flips,
                    campaign=campaign,
                )
            )
            obs.publish(
                "sweep.point",
                p=float(p),
                mean_error=campaign.mean_error,
                ci_lo=lo,
                ci_hi=hi,
                hazard_fraction=campaign.hazard_fraction,
            )
            _LOGGER.info("sweep point %s", campaign)
        return self

    # ------------------------------------------------------------------ #
    # completeness accounting
    # ------------------------------------------------------------------ #

    @property
    def degraded(self) -> bool:
        """Whether any grid point failed (results cover a subset of the grid)."""
        return bool(self.failed_points)

    def accounting(self) -> dict:
        """Explicit completed/failed breakdown over the probability grid.

        ``completed + failed == points`` by construction: every grid point
        is either backed by a campaign in ``self.points`` or named in
        ``failed_points`` — no silent loss. Downstream summaries should
        surface this whenever ``degraded`` is true, so credible intervals
        are honestly scoped to the completed subset.
        """
        return {
            "points": len(self.p_values),
            "completed": len(self.points),
            "failed": len(self.failed_points),
            "failed_points": [dict(entry) for entry in self.failed_points],
        }

    # ------------------------------------------------------------------ #
    # series accessors (the figure data)
    # ------------------------------------------------------------------ #

    def _require_points(self) -> None:
        if not self.points:
            raise RuntimeError("sweep has not been run; call .run() first")

    @property
    def golden_error(self) -> float:
        return self.injector.golden_error

    def errors(self) -> np.ndarray:
        self._require_points()
        return np.asarray([pt.mean_error for pt in self.points])

    def probabilities(self) -> np.ndarray:
        self._require_points()
        return np.asarray([pt.p for pt in self.points])

    def durations(self) -> np.ndarray:
        """Wall-clock seconds per point (throughput diagnostics)."""
        self._require_points()
        return np.asarray([pt.campaign.duration_s for pt in self.points])

    def fit_regimes(self, truncate_saturation: bool = False) -> TwoRegimeFit:
        """Two-regime fit over the sweep (finding F2).

        ``truncate_saturation`` drops the trailing plateau where the error
        has hit the task's random-guess ceiling before fitting; see
        :func:`~repro.core.knee.truncate_saturated_tail`.
        """
        self._require_points()
        p_values, errors = self.probabilities(), self.errors()
        if truncate_saturation:
            p_values, errors = truncate_saturated_tail(p_values, errors)
        return fit_two_regimes(p_values, errors)

    def table(self) -> list[dict[str, float]]:
        """Rows for the figure table: p, error %, CI, flips, golden %, seconds, hazard %."""
        self._require_points()
        return [
            {
                "p": pt.p,
                "error_pct": 100 * pt.mean_error,
                "ci_lo_pct": 100 * pt.ci_lo,
                "ci_hi_pct": 100 * pt.ci_hi,
                "golden_pct": 100 * self.golden_error,
                "mean_flips": pt.mean_flips,
                "duration_s": pt.campaign.duration_s,
                "hazard_pct": 100 * pt.campaign.hazard_fraction,
            }
            for pt in self.points
        ]
