"""Resampling statistics and correlation helpers."""

from __future__ import annotations

import numpy as np
from scipy import stats as sps

from repro.bayes.intervals import central_tails
from repro.utils.rng import as_generator

__all__ = [
    "NO_CORRELATION",
    "bootstrap_ci",
    "bootstrap_mean_difference",
    "permutation_test",
    "rank_correlation",
]


def bootstrap_ci(
    samples: np.ndarray,
    statistic=np.mean,
    confidence: float = 0.95,
    n_boot: int = 2000,
    rng: int | np.random.Generator | None = None,
) -> tuple[float, float]:
    """Percentile bootstrap interval for ``statistic(samples)``."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1 or samples.size < 2:
        raise ValueError("samples must be a 1-D array with at least 2 points")
    tails = central_tails(confidence)
    gen = as_generator(rng)
    indices = gen.integers(0, samples.size, size=(n_boot, samples.size))
    replicates = np.apply_along_axis(statistic, 1, samples[indices])
    lo, hi = np.quantile(replicates, tails)
    return float(lo), float(hi)


def bootstrap_mean_difference(
    a: np.ndarray,
    b: np.ndarray,
    confidence: float = 0.95,
    n_boot: int = 2000,
    rng: int | np.random.Generator | None = None,
) -> tuple[float, float, float]:
    """(mean(a) − mean(b), ci_lo, ci_hi) via independent resampling."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("both samples need at least 2 points")
    tails = central_tails(confidence)
    gen = as_generator(rng)
    idx_a = gen.integers(0, a.size, size=(n_boot, a.size))
    idx_b = gen.integers(0, b.size, size=(n_boot, b.size))
    diffs = a[idx_a].mean(axis=1) - b[idx_b].mean(axis=1)
    lo, hi = np.quantile(diffs, tails)
    return float(a.mean() - b.mean()), float(lo), float(hi)


def permutation_test(
    a: np.ndarray,
    b: np.ndarray,
    n_perm: int = 2000,
    rng: int | np.random.Generator | None = None,
) -> float:
    """Two-sided permutation p-value for a difference in means."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    gen = as_generator(rng)
    observed = abs(a.mean() - b.mean())
    pooled = np.concatenate([a, b])
    n_a = a.size
    count = 0
    for _ in range(n_perm):
        gen.shuffle(pooled)
        if abs(pooled[:n_a].mean() - pooled[n_a:].mean()) >= observed:
            count += 1
    # Add-one smoothing keeps the p-value away from an impossible exact 0.
    return (count + 1) / (n_perm + 1)


#: what :func:`rank_correlation` reports when either input is constant
NO_CORRELATION = {"spearman_rho": 0.0, "spearman_p": 1.0, "kendall_tau": 0.0, "kendall_p": 1.0}


def rank_correlation(x: np.ndarray, y: np.ndarray) -> dict[str, float]:
    """Spearman ρ and Kendall τ with p-values, as a flat dict.

    Constant input has no ranking to correlate (scipy returns NaN and warns),
    so it reports no relationship: ρ = τ = 0 with p = 1.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be aligned 1-D arrays")
    if x.size < 3:
        raise ValueError("need at least 3 points for rank correlation")
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return dict(NO_CORRELATION)
    spearman = sps.spearmanr(x, y)
    kendall = sps.kendalltau(x, y)
    return {
        "spearman_rho": float(spearman.statistic),
        "spearman_p": float(spearman.pvalue),
        "kendall_tau": float(kendall.statistic),
        "kendall_p": float(kendall.pvalue),
    }
