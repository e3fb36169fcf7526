"""Head-to-head statistics: BDLFI vs traditional injectors (experiment E7).

Two questions, per the paper's claim that BDLFI "can subsume current
source-level and debugger-level FIs":

1. **Agreement** — do the estimators converge to the same quantity under a
   matched fault model? (two-proportion z-test / overlap of intervals)
2. **Efficiency** — how wide is each estimator's interval for a given
   number of forward passes? (the resource that dominates campaign cost)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["wilson_interval", "EstimatorComparison", "compare_estimators"]


def wilson_interval(hits: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The standard choice for FI campaign reporting: behaves sensibly at 0
    and 1 (unlike the Wald interval).
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= hits <= trials:
        raise ValueError(f"hits must be in [0, {trials}], got {hits}")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    from scipy import stats as sps

    z = float(sps.norm.ppf(0.5 + confidence / 2))
    phat = hits / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if hits == 0 else max(0.0, center - half)  # exact endpoints at the
    hi = 1.0 if hits == trials else min(1.0, center + half)  # boundary counts
    return lo, hi


@dataclass(frozen=True)
class EstimatorComparison:
    """Result of comparing two error/SDC-rate estimators."""

    name_a: str
    name_b: str
    estimate_a: float
    estimate_b: float
    interval_a: tuple[float, float]
    interval_b: tuple[float, float]
    evaluations_a: int
    evaluations_b: int
    z_statistic: float
    p_value: float

    @property
    def agree(self) -> bool:
        """No significant difference at the 5 % level."""
        return bool(self.p_value > 0.05)

    @property
    def interval_width_a(self) -> float:
        return self.interval_a[1] - self.interval_a[0]

    @property
    def interval_width_b(self) -> float:
        return self.interval_b[1] - self.interval_b[0]

    def efficiency_ratio(self) -> float:
        """Forward passes per unit of squared precision, B relative to A.

        Interval width scales ∝ 1/√n, so (width²·n) is a scale-free cost;
        values > 1 mean estimator A is more efficient.
        """
        cost_a = self.interval_width_a**2 * self.evaluations_a
        cost_b = self.interval_width_b**2 * self.evaluations_b
        if cost_a == 0:
            return float("inf")
        return cost_b / cost_a

    def summary(self) -> dict[str, float | str | bool]:
        return {
            "estimator_a": self.name_a,
            "estimator_b": self.name_b,
            "estimate_a": self.estimate_a,
            "estimate_b": self.estimate_b,
            "ci_width_a": self.interval_width_a,
            "ci_width_b": self.interval_width_b,
            "evals_a": self.evaluations_a,
            "evals_b": self.evaluations_b,
            "p_value": self.p_value,
            "agree": self.agree,
            "efficiency_a_over_b": self.efficiency_ratio(),
        }


def compare_estimators(
    name_a: str,
    hits_a: int,
    trials_a: int,
    name_b: str,
    hits_b: int,
    trials_b: int,
    confidence: float = 0.95,
) -> EstimatorComparison:
    """Two-proportion z-test plus Wilson intervals for two campaigns."""
    if trials_a <= 0 or trials_b <= 0:
        raise ValueError("both campaigns need at least one trial")
    p_a = hits_a / trials_a
    p_b = hits_b / trials_b
    pooled = (hits_a + hits_b) / (trials_a + trials_b)
    variance = pooled * (1 - pooled) * (1 / trials_a + 1 / trials_b)
    if variance == 0:
        z = 0.0
        p_value = 1.0
    else:
        from scipy import stats as sps

        z = (p_a - p_b) / math.sqrt(variance)
        p_value = float(2 * sps.norm.sf(abs(z)))
    return EstimatorComparison(
        name_a=name_a,
        name_b=name_b,
        estimate_a=p_a,
        estimate_b=p_b,
        interval_a=wilson_interval(hits_a, trials_a, confidence),
        interval_b=wilson_interval(hits_b, trials_b, confidence),
        evaluations_a=trials_a,
        evaluations_b=trials_b,
        z_statistic=float(z),
        p_value=p_value,
    )
