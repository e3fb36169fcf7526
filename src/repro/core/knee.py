"""Two-regime (knee) detection for error-vs-flip-probability curves.

The paper's finding F2: "there are two clear regimes ... In the first
regime consisting of smaller flip probability values ... no significant
increase in average classification error ... In the second regime ...
classification error increases significantly with flip probability. Hence
operating at the knee of these curves provides the optimal
performance-reliability trade-offs."

We fit a continuous two-segment piecewise-linear model in log₁₀(p) by
exhaustive search over candidate breakpoints (the sweep grids are small, so
exact search beats iterative fitting), and report the knee, per-regime
slopes, and the improvement over a single-line fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import fdtrc

__all__ = ["TwoRegimeFit", "fit_two_regimes", "truncate_saturated_tail"]


def truncate_saturated_tail(
    p_values: np.ndarray, errors: np.ndarray, rise_fraction: float = 0.9, min_points: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """Drop trailing sweep points past ``rise_fraction`` of the total rise.

    A full sweep traces an S-curve: flat at the golden error, a steep rise
    past the knee, then *saturation* near the random-guess ceiling (e.g.
    90 % for 10 balanced classes). The paper's two-regime statement is
    about the flat and rising parts; the saturation plateau is a property
    of the error metric's ceiling, and including it makes a two-segment
    fit latch onto the wrong breakpoint. This helper keeps points up to
    the first one that reaches ``min + rise_fraction·(max − min)``.
    """
    p_values = np.asarray(p_values, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if p_values.shape != errors.shape or p_values.ndim != 1:
        raise ValueError("p_values and errors must be aligned 1-D arrays")
    if not 0 < rise_fraction <= 1:
        raise ValueError(f"rise_fraction must be in (0, 1], got {rise_fraction}")
    span = errors.max() - errors.min()
    if span == 0:
        return p_values, errors
    threshold = errors.min() + rise_fraction * span
    cut = int(np.argmax(errors >= threshold)) + 1
    cut = max(cut, min(min_points, len(errors)))
    return p_values[:cut], errors[:cut]


@dataclass(frozen=True)
class TwoRegimeFit:
    """Result of the piecewise fit.

    ``knee_log10_p`` is the breakpoint in log10 space; ``knee_p`` its linear
    value. ``slope_flat``/``slope_steep`` are the error-per-decade slopes
    left/right of the knee. ``r_squared_two``/``r_squared_one`` compare the
    two-segment fit against a single line; a material gap is the
    quantitative signature of "two clear regimes".
    """

    knee_log10_p: float
    slope_flat: float
    slope_steep: float
    intercept: float
    r_squared_two: float
    r_squared_one: float
    #: p-value of the F-test comparing the two-segment fit to a single line
    f_test_p: float

    @property
    def knee_p(self) -> float:
        return float(10.0**self.knee_log10_p)

    @property
    def has_two_regimes(self) -> bool:
        """Steep slope dominates the flat one AND the breakpoint is
        statistically justified (F-test of segment vs line, α = 0.01)."""
        steep_dominates = abs(self.slope_steep) > 3.0 * max(abs(self.slope_flat), 1e-12)
        return bool(steep_dominates and self.f_test_p < 0.01)

    def predict(self, p: np.ndarray) -> np.ndarray:
        """Evaluate the fitted piecewise model at flip probabilities ``p``."""
        x = np.log10(np.asarray(p, dtype=np.float64))
        left = self.intercept + self.slope_flat * (x - self.knee_log10_p)
        right = self.intercept + self.slope_steep * (x - self.knee_log10_p)
        return np.where(x <= self.knee_log10_p, left, right)


def _r_squared(y: np.ndarray, residual_ss: float) -> float:
    total_ss = float(((y - y.mean()) ** 2).sum())
    if total_ss == 0.0:
        return 1.0
    return 1.0 - residual_ss / total_ss


def fit_two_regimes(p_values: np.ndarray, errors: np.ndarray) -> TwoRegimeFit:
    """Fit the continuous two-segment model over a probability sweep.

    ``p_values`` must be positive and strictly increasing; ``errors`` are
    the mean classification errors (fractions or percent — scale-free).
    """
    p_values = np.asarray(p_values, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if p_values.ndim != 1 or p_values.shape != errors.shape:
        raise ValueError("p_values and errors must be aligned 1-D arrays")
    if len(p_values) < 5:
        raise ValueError(f"need at least 5 sweep points to fit two regimes, got {len(p_values)}")
    if np.any(p_values <= 0):
        raise ValueError("flip probabilities must be positive")
    if np.any(np.diff(p_values) <= 0):
        raise ValueError("p_values must be strictly increasing")

    x = np.log10(p_values)
    y = errors

    # Single-line baseline.
    one_coeffs = np.polyfit(x, y, 1)
    one_pred = np.polyval(one_coeffs, x)
    one_ss = float(((y - one_pred) ** 2).sum())
    r2_one = _r_squared(y, one_ss)

    # Exhaustive breakpoint search: candidates at and between interior
    # points (keeping >= 2 points per side), so a knee landing exactly on a
    # sweep point is representable.
    best = None
    midpoints = (x[1:-2] + x[2:-1]) / 2.0
    candidates = np.unique(np.concatenate([midpoints, x[2:-2]]))
    for knee in candidates:
        left = np.minimum(x - knee, 0.0)
        right = np.maximum(x - knee, 0.0)
        design = np.stack([np.ones_like(x), left, right], axis=1)
        coeffs, residuals, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        pred = design @ coeffs
        ss = float(((y - pred) ** 2).sum())
        if best is None or ss < best[0]:
            best = (ss, knee, coeffs)

    ss, knee, coeffs = best
    intercept, slope_flat, slope_steep = (float(c) for c in coeffs)

    # F-test: does the two-segment model (4 effective params: 3 coefficients
    # + the searched breakpoint) beat the single line (2 params)? ``fdtrc``
    # is the ufunc behind ``scipy.stats.f.sf``, bitwise the same p-value.
    n = len(x)
    df_extra = 2
    df_resid = n - 4
    if df_resid > 0 and ss > 0:
        f_stat = ((one_ss - ss) / df_extra) / (ss / df_resid)
        f_p = float(fdtrc(df_extra, df_resid, max(f_stat, 0.0)))
    elif ss == 0.0 and one_ss > 0:
        f_p = 0.0  # perfect piecewise fit, imperfect line
    else:
        f_p = 1.0
    return TwoRegimeFit(
        knee_log10_p=float(knee),
        slope_flat=slope_flat,
        slope_steep=slope_steep,
        intercept=intercept,
        r_squared_two=_r_squared(y, ss),
        r_squared_one=r2_one,
        f_test_p=f_p,
    )
