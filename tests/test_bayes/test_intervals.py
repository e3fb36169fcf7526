"""The shared central-interval convention and its degenerate-case armor.

``central_tails`` is the one definition of "central interval" every
summary in the library derives from; ``beta_central_interval`` is the
hardened Beta evaluation the estimator telemetry leans on for ``k = 0``
and ``k = n`` strata, which must produce valid clamped intervals — never
``NaN`` — for the document to stay plottable.
"""

import math

import numpy as np
import pytest

from repro.bayes.distributions import Beta
from repro.bayes.intervals import beta_central_interval, central_tails, clamp_unit_interval


class TestCentralTails:
    def test_tails_split_the_complement_evenly(self):
        lo, hi = central_tails(0.95)
        assert lo == pytest.approx(0.025) and hi == pytest.approx(0.975)
        assert lo + hi == 1.0
        assert central_tails(0.5) == (0.25, 0.75)

    @pytest.mark.parametrize("mass", [0.0, 1.0, -0.1, 1.5])
    def test_mass_outside_open_interval_rejected(self, mass):
        with pytest.raises(ValueError, match="mass"):
            central_tails(mass)


class TestClampUnitInterval:
    def test_finite_interval_passes_through(self):
        assert clamp_unit_interval(0.2, 0.8) == (0.2, 0.8)

    def test_non_finite_endpoints_collapse_to_support_bounds(self):
        assert clamp_unit_interval(float("nan"), 0.7) == (0.0, 0.7)
        assert clamp_unit_interval(0.3, float("nan")) == (0.3, 1.0)
        assert clamp_unit_interval(float("-inf"), float("inf")) == (0.0, 1.0)

    def test_out_of_range_endpoints_clipped(self):
        assert clamp_unit_interval(-0.5, 1.5) == (0.0, 1.0)

    def test_ordering_restored(self):
        assert clamp_unit_interval(0.9, 0.1) == (0.1, 0.9)


class TestBetaCentralInterval:
    def test_matches_scipy_for_well_behaved_shapes(self):
        from scipy import stats as sps

        lo, hi = beta_central_interval(5.0, 15.0, 0.9)
        assert lo == pytest.approx(sps.beta.ppf(0.05, 5.0, 15.0))
        assert hi == pytest.approx(sps.beta.ppf(0.95, 5.0, 15.0))

    @pytest.mark.parametrize("n", [1, 10, 1000, 100000])
    def test_k_zero_posterior_yields_valid_interval(self, n):
        # Jeffreys update with zero degraded outcomes: mass piled at 0
        lo, hi = beta_central_interval(0.5, 0.5 + n)
        assert math.isfinite(lo) and math.isfinite(hi)
        assert 0.0 <= lo <= hi <= 1.0
        if n >= 10:
            assert hi < 0.5  # the interval hugs the empty-rate endpoint

    @pytest.mark.parametrize("n", [1, 10, 1000, 100000])
    def test_k_equals_n_posterior_yields_valid_interval(self, n):
        lo, hi = beta_central_interval(0.5 + n, 0.5)
        assert math.isfinite(lo) and math.isfinite(hi)
        assert 0.0 <= lo <= hi <= 1.0
        if n >= 10:
            assert lo > 0.5

    def test_vectorised_shapes_stay_valid(self):
        n = np.array([1.0, 10.0, 1e4, 1e6])
        lo, hi = beta_central_interval(0.5, 0.5 + n)
        assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
        assert np.all((0.0 <= lo) & (lo <= hi) & (hi <= 1.0))
        # tighter with more data
        widths = hi - lo
        assert np.all(np.diff(widths) < 0)

    def test_beta_interval_delegates_here(self):
        d = Beta(3.0, 9.0)
        assert d.interval(0.9) == beta_central_interval(3.0, 9.0, 0.9)

    def test_beta_interval_edge_cases_no_longer_nan(self):
        # the satellite fix: k=0 / k=n conjugate updates used to be able
        # to surface NaN endpoints through Beta.interval
        for a, b in [(0.5, 100000.5), (100000.5, 0.5), (0.5, 0.5)]:
            lo, hi = Beta(a, b).interval()
            assert math.isfinite(lo) and math.isfinite(hi)
            assert 0.0 <= lo <= hi <= 1.0


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _ppf_interval(a, b, mass):
    """The interval as ``scipy.stats.beta.ppf`` gives it, with the same repair."""
    from scipy import stats as sps

    lo_q, hi_q = central_tails(mass)
    with np.errstate(all="ignore"):
        lo, hi = sps.beta.ppf(lo_q, a, b), sps.beta.ppf(hi_q, a, b)
    if np.ndim(lo) == 0:
        return clamp_unit_interval(float(lo), float(hi))
    lo = np.where(np.isfinite(lo), np.clip(lo, 0.0, 1.0), 0.0)
    hi = np.where(np.isfinite(hi), np.clip(hi, 0.0, 1.0), 1.0)
    swapped = lo > hi
    lo[swapped], hi[swapped] = hi[swapped], lo[swapped]
    return lo, hi


MASSES = [0.5, 0.68, 0.8, 0.9, 0.95, 0.975, 0.99]


def _assert_bitwise_ppf(a, b, mass):
    lo, hi = beta_central_interval(a, b, mass)
    want_lo, want_hi = _ppf_interval(a, b, mass)
    assert np.array_equal(_bits(lo), _bits(want_lo))
    assert np.array_equal(_bits(hi), _bits(want_hi))


class TestBitIdenticalToScipyStats:
    """``beta_central_interval`` is bitwise the ``scipy.stats.beta.ppf`` interval."""

    @pytest.mark.parametrize("mass", MASSES)
    def test_jeffreys_shapes_including_k_zero_and_k_n(self, mass):
        n = np.array([1, 2, 3, 5, 10, 40, 100, 1000, 12345, 10**5, 10**6, 10**7], dtype=np.float64)
        k = np.concatenate([np.zeros_like(n), n, np.floor(n / 2), np.minimum(n, 1), np.maximum(n - 1, 0)])
        n = np.tile(n, 5)
        _assert_bitwise_ppf(k + 0.5, n - k + 0.5, mass)

    @pytest.mark.parametrize("mass", MASSES)
    def test_random_shapes(self, mass):
        rng = np.random.default_rng(int(mass * 1000))
        n = rng.integers(1, 10**6, size=5000).astype(np.float64)
        k = np.floor(rng.random(5000) * (n + 1))
        _assert_bitwise_ppf(k + 0.5, n - k + 0.5, mass)

    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.5, 1e6 + 0.5), (1e6 + 0.5, 0.5), (3.0, 9.0)])
    @pytest.mark.parametrize("mass", [0.5, 0.95, 0.99])
    def test_scalar_shapes(self, a, b, mass):
        got = beta_central_interval(a, b, mass)
        assert all(type(end) is float for end in got)
        assert _bits(got).tolist() == _bits(_ppf_interval(a, b, mass)).tolist()

    @pytest.mark.parametrize("mass", MASSES)
    def test_non_finite_repair_path(self, mass):
        # invalid or infinite shapes make ppf non-finite; both sides repair
        # the same raw endpoints to the same support bounds
        from scipy import stats as sps

        a = np.array([0.0, -1.0, np.nan, 0.5, np.inf, 1e-300, 1e300, 0.5])
        b = np.array([1.0, 1.0, 1.0, np.inf, 1.0, 1.0, 0.5, 1e-320])
        with np.errstate(all="ignore"):
            assert not np.all(np.isfinite(sps.beta.ppf(central_tails(mass)[0], a, b)))
        _assert_bitwise_ppf(a, b, mass)
        assert beta_central_interval(0.0, 1.0, mass) == _ppf_interval(0.0, 1.0, mass) == (0.0, 1.0)


class TestSharedConvention:
    def test_bootstrap_ci_uses_the_same_tails(self, ):
        from repro.analysis.stats import bootstrap_ci

        rng = np.random.default_rng(0)
        data = rng.normal(size=200)
        lo, hi = bootstrap_ci(data, confidence=0.9, n_boot=200, rng=rng)
        assert lo < np.mean(data) < hi

    def test_bootstrap_ci_rejects_bad_confidence_via_central_tails(self):
        from repro.analysis.stats import bootstrap_ci

        with pytest.raises(ValueError, match="mass"):
            bootstrap_ci(np.arange(10.0), confidence=1.0)

    def test_error_posterior_credible_interval_uses_central_tails(self):
        from repro.core.posterior import ErrorPosterior

        samples = np.linspace(0.0, 1.0, 101)
        posterior = ErrorPosterior(samples=samples, golden_error=0.1)
        lo, hi = posterior.credible_interval(0.9)
        assert lo == pytest.approx(np.quantile(samples, 0.05))
        assert hi == pytest.approx(np.quantile(samples, 0.95))
