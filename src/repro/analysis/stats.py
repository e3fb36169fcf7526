"""Resampling statistics and correlation helpers."""

from __future__ import annotations

import math

import numpy as np

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
    """Spearman ρ and Kendall τ-b with two-sided p-values, as a flat dict.

    The values of ``scipy.stats.spearmanr`` and ``kendalltau`` (their
    defaults), computed without importing ``scipy.stats``, which costs
    more than a layerwise campaign on a small model:

    * Spearman ρ is the Pearson correlation of the average ranks; its
      p-value is Student's t with ``n - 2`` degrees of freedom.
    * Kendall τ-b comes from the counts of concordant, discordant and
      tied pairs. Its p-value is exact when neither input has ties and
      ``n <= 33`` (or at most one pair is out of order, or in order), and
      otherwise normal with the tie-corrected variance.

    Constant input has no ranking to correlate (scipy returns NaN and warns),
    so it reports no relationship: ρ = τ = 0 with p = 1.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be aligned 1-D arrays")
    if x.size < 3:
        raise ValueError("need at least 3 points for rank correlation")
    if np.isnan(x).any() or np.isnan(y).any():
        return dict.fromkeys(NO_CORRELATION, math.nan)
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return dict(NO_CORRELATION)
    from scipy.special import ndtr, stdtr

    n = x.size
    rho = np.corrcoef(np.column_stack((_average_ranks(x), _average_ranks(y))), rowvar=False)[1, 0]
    with np.errstate(divide="ignore"):
        # ρ = ±1 gives t = ±inf and p = 0
        t = rho * np.sqrt(max((n - 2) / ((rho + 1.0) * (1.0 - rho)), 0.0))
    spearman_p = 2 * stdtr(n - 2, -abs(t))

    upper = np.triu_indices(n, 1)
    dx = np.sign(x[:, None] - x[None, :])[upper]
    dy = np.sign(y[:, None] - y[None, :])[upper]
    pairs = n * (n - 1) // 2
    x_ties, y_ties = int((dx == 0).sum()), int((dy == 0).sum())
    con_minus_dis = int((dx * dy).sum())
    discordant = int((dx * dy < 0).sum())
    tau = con_minus_dis / np.sqrt(pairs - x_ties) / np.sqrt(pairs - y_ties)
    tau = min(1.0, max(-1.0, tau))
    if x_ties == 0 and y_ties == 0 and (n <= 33 or min(discordant, pairs - discordant) <= 1):
        kendall_p = _kendall_p_exact(n, pairs - discordant)
    else:
        (x0, x1), (y0, y1) = _tie_sums(x), _tie_sums(y)
        m = n * (n - 1.0)
        var = (m * (2 * n + 5) - x1 - y1) / 18 + (2 * x_ties * y_ties) / m + x0 * y0 / (9 * m * (n - 2))
        kendall_p = 2 * ndtr(-abs(con_minus_dis / np.sqrt(var)))
    return {
        "spearman_rho": float(rho),
        "spearman_p": float(spearman_p),
        "kendall_tau": float(tau),
        "kendall_p": float(kendall_p),
    }


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks from 1, ties sharing the mean of the ranks they span (exact halves)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    stops = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + stops + 1) / 2, stops - starts)
    return ranks


def _tie_sums(values: np.ndarray) -> tuple[int, int]:
    """Σ t(t-1)(t-2) and Σ t(t-1)(2t+5) over the sizes t of tied groups."""
    _, counts = np.unique(values, return_counts=True)
    counts = counts[counts > 1].astype(np.int64)
    return int((counts * (counts - 1) * (counts - 2)).sum()), int((counts * (counts - 1) * (2 * counts + 5)).sum())


def _kendall_p_exact(n: int, concordant: int) -> float:
    """Two-sided exact p-value of ``concordant`` in-order pairs among ``n`` untied points.

    The permutation distribution of the number of inversions (M. G.
    Kendall, *Rank Correlation Methods*, 1970), folded onto its left tail
    because it is symmetric; scipy's algorithm, step for step.
    """
    c = min(concordant, n * (n - 1) // 2 - concordant)
    if c == 0:
        prob = 2.0 / math.factorial(n) if n < 171 else 0.0
    elif c == 1:
        prob = 2.0 / math.factorial(n - 1) if n < 172 else 0.0
    elif 4 * c == n * (n - 1):
        prob = 1.0
    else:  # n <= 33: above it rank_correlation asks only for c <= 1
        counts = np.zeros(c + 1)
        counts[0:2] = 1.0
        for j in range(3, n + 1):
            counts = np.cumsum(counts)
            if j <= c:
                counts[j:] -= counts[: c + 1 - j]
        prob = 2.0 * np.sum(counts) / math.factorial(n)
    return float(np.clip(prob, 0, 1))
