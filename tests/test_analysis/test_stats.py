"""Resampling statistics."""

import numpy as np
import pytest

from repro.analysis import bootstrap_ci, bootstrap_mean_difference, permutation_test, rank_correlation


class TestBootstrap:
    def test_ci_brackets_mean(self):
        samples = np.random.default_rng(0).normal(5.0, 1.0, size=200)
        lo, hi = bootstrap_ci(samples, rng=1)
        assert lo < samples.mean() < hi

    def test_ci_narrows_with_n(self):
        rng = np.random.default_rng(2)
        wide = bootstrap_ci(rng.normal(size=20), rng=3)
        narrow = bootstrap_ci(rng.normal(size=2000), rng=3)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_custom_statistic(self):
        samples = np.concatenate([np.zeros(50), np.ones(50)])
        lo, hi = bootstrap_ci(samples, statistic=np.median, rng=4)
        assert 0.0 <= lo <= hi <= 1.0

    def test_reproducible(self):
        samples = np.random.default_rng(5).normal(size=100)
        assert bootstrap_ci(samples, rng=7) == bootstrap_ci(samples, rng=7)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([1.0]))
        with pytest.raises(ValueError):
            bootstrap_ci(np.ones(10), confidence=1.5)


class TestMeanDifference:
    def test_detects_shift(self):
        rng = np.random.default_rng(6)
        a = rng.normal(1.0, 0.1, 100)
        b = rng.normal(0.0, 0.1, 100)
        diff, lo, hi = bootstrap_mean_difference(a, b, rng=7)
        assert diff == pytest.approx(1.0, abs=0.1)
        assert lo > 0.5  # CI excludes zero

    def test_no_shift_ci_contains_zero(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=200)
        b = rng.normal(size=200)
        _, lo, hi = bootstrap_mean_difference(a, b, rng=9)
        assert lo < 0 < hi


class TestPermutation:
    def test_same_distribution_large_p(self):
        rng = np.random.default_rng(10)
        p = permutation_test(rng.normal(size=80), rng.normal(size=80), rng=11)
        assert p > 0.05

    def test_shifted_distribution_small_p(self):
        rng = np.random.default_rng(12)
        p = permutation_test(rng.normal(2, 1, 80), rng.normal(0, 1, 80), rng=13)
        assert p < 0.01

    def test_p_never_exactly_zero(self):
        p = permutation_test(np.full(20, 10.0), np.zeros(20), n_perm=100, rng=14)
        assert 0 < p <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            permutation_test(np.array([]), np.ones(3))


class TestRankCorrelation:
    def test_perfect_monotone(self):
        x = np.arange(10, dtype=float)
        stats = rank_correlation(x, x**3)
        assert stats["spearman_rho"] == pytest.approx(1.0)
        assert stats["kendall_tau"] == pytest.approx(1.0)

    def test_anticorrelated(self):
        x = np.arange(10, dtype=float)
        stats = rank_correlation(x, -x)
        assert stats["spearman_rho"] == pytest.approx(-1.0)

    def test_independent_not_significant(self):
        rng = np.random.default_rng(15)
        stats = rank_correlation(rng.normal(size=60), rng.normal(size=60))
        assert abs(stats["spearman_rho"]) < 0.35
        assert stats["spearman_p"] > 0.01

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("swap", [False, True])
    def test_constant_input_reports_no_relationship(self, swap):
        x, y = np.arange(5.0), np.ones(5)
        stats = rank_correlation(*((y, x) if swap else (x, y)))
        assert stats == {"spearman_rho": 0.0, "spearman_p": 1.0, "kendall_tau": 0.0, "kendall_p": 1.0}

    @pytest.mark.parametrize("n", range(3, 42))
    def test_bit_identical_to_scipy_stats(self, n):
        """Every value equals scipy.stats' spearmanr and kendalltau: untied
        samples (the exact Kendall p-value up to 33 points, the normal one
        above), tied ones, near-perfect orders and reversed ones."""
        from scipy import stats as sps

        rng = np.random.default_rng(n)
        order = np.arange(n, dtype=float)
        swapped = order.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        cases = [
            (rng.normal(size=n), rng.normal(size=n)),
            (rng.integers(0, 4, size=n).astype(float), rng.normal(size=n)),
            (rng.integers(0, 3, size=n).astype(float), rng.integers(0, 3, size=n).astype(float)),
            (order, swapped),
            (order, -swapped),
            (order, order**3),
        ]
        for x, y in cases:
            if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
                continue
            spearman, kendall = sps.spearmanr(x, y), sps.kendalltau(x, y)
            want = [spearman.statistic, spearman.pvalue, kendall.statistic, kendall.pvalue]
            got = rank_correlation(x, y)
            got = [got["spearman_rho"], got["spearman_p"], got["kendall_tau"], got["kendall_p"]]
            assert np.array_equal(np.float64(got).view(np.uint64), np.float64(want).view(np.uint64)), (x, y)

    def test_nan_input_gives_nan(self):
        """As scipy.stats propagates a NaN observation."""
        stats = rank_correlation(np.array([1.0, np.nan, 3.0, 4.0]), np.arange(4.0))
        assert list(stats) == ["spearman_rho", "spearman_p", "kendall_tau", "kendall_p"]
        assert all(np.isnan(value) for value in stats.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            rank_correlation(np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            rank_correlation(np.ones(5), np.ones(4))
