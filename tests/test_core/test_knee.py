"""Two-regime (knee) fitting."""

import numpy as np
import pytest

from repro.core import fit_two_regimes


def _piecewise(p, knee_log, flat_slope, steep_slope, intercept, noise=0.0, seed=0):
    x = np.log10(p)
    left = intercept + flat_slope * (x - knee_log)
    right = intercept + steep_slope * (x - knee_log)
    y = np.where(x <= knee_log, left, right)
    if noise:
        y = y + np.random.default_rng(seed).normal(0, noise, size=y.shape)
    return y


class TestFit:
    def test_recovers_synthetic_knee(self):
        p = np.logspace(-5, -1, 17)
        y = _piecewise(p, knee_log=-3.0, flat_slope=0.001, steep_slope=0.2, intercept=0.05)
        fit = fit_two_regimes(p, y)
        assert fit.knee_log10_p == pytest.approx(-3.0, abs=0.3)
        assert fit.slope_steep == pytest.approx(0.2, rel=0.15)
        assert abs(fit.slope_flat) < 0.02
        assert fit.has_two_regimes

    def test_robust_to_noise(self):
        p = np.logspace(-5, -1, 17)
        y = _piecewise(p, -2.5, 0.0, 0.15, 0.05, noise=0.005, seed=1)
        fit = fit_two_regimes(p, y)
        assert fit.knee_log10_p == pytest.approx(-2.5, abs=0.6)
        assert fit.has_two_regimes

    def test_single_line_not_two_regimes(self):
        p = np.logspace(-5, -1, 15)
        y = 0.1 + 0.05 * np.log10(p)  # one slope everywhere
        fit = fit_two_regimes(p, y)
        assert not fit.has_two_regimes

    def test_flat_curve_not_two_regimes(self):
        p = np.logspace(-5, -1, 10)
        y = np.full(10, 0.08) + np.random.default_rng(2).normal(0, 1e-4, 10)
        fit = fit_two_regimes(p, y)
        assert not fit.has_two_regimes

    def test_predict_matches_fit_at_sweep_points(self):
        p = np.logspace(-5, -1, 17)
        y = _piecewise(p, -3.0, 0.0, 0.25, 0.1)
        fit = fit_two_regimes(p, y)
        assert np.allclose(fit.predict(p), y, atol=0.01)

    def test_knee_p_is_linear_value(self):
        p = np.logspace(-5, -1, 17)
        y = _piecewise(p, -3.0, 0.0, 0.25, 0.1)
        fit = fit_two_regimes(p, y)
        assert fit.knee_p == pytest.approx(10.0**fit.knee_log10_p)


class TestFTestMatchesScipyStats:
    """The F-test p-value is bitwise ``scipy.stats.f.sf``, without importing it."""

    def test_fdtrc_is_f_sf_for_the_fit_dfs(self):
        from scipy import stats as sps
        from scipy.special import fdtrc

        rng = np.random.default_rng(0)
        df_resid = np.repeat(np.arange(1.0, 61.0), 2000)
        x = np.concatenate([np.zeros(100), rng.exponential(5.0, df_resid.size - 100)])
        expected = sps.f.sf(x, 2, df_resid)
        assert np.array_equal(fdtrc(2, df_resid, x).view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("points", [5, 6, 9, 17, 40])
    @pytest.mark.parametrize("noise", [0.0, 0.002, 0.05])
    def test_f_test_p_is_f_sf(self, monkeypatch, points, noise):
        from scipy import stats as sps

        import repro.core.knee as knee

        calls = []
        knee_fdtrc = knee.fdtrc

        def recording_fdtrc(d1, d2, x):
            calls.append((d1, d2, x))
            return knee_fdtrc(d1, d2, x)

        monkeypatch.setattr(knee, "fdtrc", recording_fdtrc)
        p = np.logspace(-5, -1, points)
        fit = fit_two_regimes(p, _piecewise(p, -3.0, 0.001, 0.2, 0.05, noise=noise, seed=points))
        (d1, d2, x), = calls
        assert (d1, d2) == (2, points - 4)
        expected = float(sps.f.sf(x, d1, d2))
        assert np.float64(fit.f_test_p).view(np.uint64) == np.float64(expected).view(np.uint64)


class TestValidation:
    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_two_regimes(np.logspace(-3, -1, 4), np.zeros(4))

    def test_nonpositive_p(self):
        with pytest.raises(ValueError):
            fit_two_regimes(np.array([0.0, 0.1, 0.2, 0.3, 0.4]), np.zeros(5))

    def test_non_increasing_p(self):
        with pytest.raises(ValueError):
            fit_two_regimes(np.array([0.1, 0.1, 0.2, 0.3, 0.4]), np.zeros(5))

    def test_misaligned_arrays(self):
        with pytest.raises(ValueError):
            fit_two_regimes(np.logspace(-3, -1, 6), np.zeros(5))
