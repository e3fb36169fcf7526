"""One shared convention for central intervals — Bayesian and frequentist.

Several parts of the library summarise an estimate with a *central*
interval: :meth:`repro.bayes.distributions.Beta.interval` (credible
interval on a rate), :func:`repro.analysis.stats.bootstrap_ci`
(percentile bootstrap), and
:meth:`repro.core.posterior.ErrorPosterior.credible_interval` (sample
quantiles). They all mean the same thing — put ``(1 - mass) / 2``
probability in each tail — but each used to spell the tail arithmetic
out locally, which is exactly how conventions drift apart. This module
is the single definition they now share.

:func:`beta_central_interval` additionally hardens the Beta case for the
degenerate posteriors a campaign legitimately produces: a stratum with
``k = 0`` degraded outcomes of ``n`` (or ``k = n``) has a posterior
piled against an endpoint, where ``scipy``'s ``beta.ppf`` can underflow
to denormals or — for pathological shape parameters — return ``NaN``.
Estimates must stay plottable and comparable, so the interval is always
clamped into ``[0, 1]`` with non-finite endpoints collapsed to the
matching support bound (``lo → 0``, ``hi → 1``), never ``NaN``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import betaincinv

__all__ = ["central_tails", "clamp_unit_interval", "beta_central_interval"]


def central_tails(mass: float) -> tuple[float, float]:
    """The (lower, upper) quantile levels of a central interval.

    A central interval containing ``mass`` probability leaves
    ``(1 - mass) / 2`` in each tail; this returns the two quantile levels
    to evaluate — ``(tail, 1 - tail)``. Every central-interval summary in
    the library derives its quantiles from here.
    """
    if not 0 < mass < 1:
        raise ValueError(f"mass must be in (0, 1), got {mass}")
    tail = (1.0 - mass) / 2.0
    return tail, 1.0 - tail


def clamp_unit_interval(lo: float, hi: float) -> tuple[float, float]:
    """Force an interval over a rate into a valid ``[0, 1]`` sub-interval.

    Non-finite endpoints collapse to the matching support bound (a ``NaN``
    or ``-inf`` lower endpoint becomes ``0``, a ``NaN`` or ``+inf`` upper
    endpoint becomes ``1``), endpoints are clipped into ``[0, 1]``, and
    ordering is restored — the result is always a valid, possibly
    degenerate, interval.
    """
    lo = 0.0 if not np.isfinite(lo) else min(max(float(lo), 0.0), 1.0)
    hi = 1.0 if not np.isfinite(hi) else min(max(float(hi), 0.0), 1.0)
    if lo > hi:
        lo, hi = hi, lo
    return lo, hi


def beta_central_interval(a, b, mass: float = 0.95):
    """Clamped central credible interval(s) of Beta(``a``, ``b``).

    Vectorised: scalar shapes give a ``(lo, hi)`` float pair, array
    shapes give a pair of arrays. Endpoints are guaranteed finite and in
    ``[0, 1]`` even for near-degenerate posteriors (``k = 0`` / ``k = n``
    conjugate updates), where the raw ``ppf`` may underflow or go
    non-finite; see :func:`clamp_unit_interval` for the repair rule.

    The quantiles come from ``scipy.special.betaincinv``, which wraps the
    same Boost ``ibeta_inv`` routine as ``scipy.stats.beta.ppf``: the
    endpoints are bitwise the ``ppf`` ones, without importing
    ``scipy.stats``.
    """
    lo_q, hi_q = central_tails(mass)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(all="ignore"):
        lo = betaincinv(a, b, lo_q)
        hi = betaincinv(a, b, hi_q)
    if np.ndim(lo) == 0:
        return clamp_unit_interval(float(lo), float(hi))
    lo = np.where(np.isfinite(lo), np.clip(lo, 0.0, 1.0), 0.0)
    hi = np.where(np.isfinite(hi), np.clip(hi, 0.0, 1.0), 1.0)
    swapped = lo > hi
    if np.any(swapped):
        lo[swapped], hi[swapped] = hi[swapped], lo[swapped]
    return lo, hi
