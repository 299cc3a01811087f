"""Least-squares fitting against naive loop oracles.

The oracles below rebuild every moment sum with explicit Python loops
and 1-based time indices, so an indexing slip in the vectorized code
cannot cancel out in the comparison.
"""
import numpy as np
import pytest

from arselect import (
    ArModel,
    Series,
    companion_matrix,
    fit_direct,
    fit_one_step,
    fit_plugin,
    forecast,
    masked_fit_direct,
    masked_fit_plugin,
    predict_with,
    sample_moment,
    sequential_fitter,
    simulate,
)
from arselect.errors import SingularMomentError, TooFewObservationsError
from arselect.methods import Method


def naive_moment(values, h, k):
    n = values.size
    total = np.zeros((k, k))
    count = 0
    for j in range(k, n - h + 1):  # 1-based start time of each regressor
        v = np.array([values[j - 1 - c] for c in range(k)])
        total += np.outer(v, v)
        count += 1
    return total / count


def naive_direct(values, h, k):
    n = values.size
    total = np.zeros((k, k))
    rhs = np.zeros(k)
    count = 0
    for j in range(k, n - h + 1):
        v = np.array([values[j - 1 - c] for c in range(k)])
        total += np.outer(v, v)
        rhs += v * values[j + h - 1]
        count += 1
    return np.linalg.solve(total / count, rhs / count)


def naive_plugin(values, h, k):
    out = naive_direct(values, 1, k)
    comp = companion_matrix(out).T
    for _ in range(h - 1):
        out = comp @ out
    return out


@pytest.fixture(scope="module")
def path():
    return simulate(ArModel((0.9, -0.81), 1.0), 200, seed=42)


class TestBatchFits:
    def test_moments_match_loops(self, path):
        values = path.series.values
        for h in (1, 3):
            for k in (1, 2, 4):
                got = sample_moment(path.series, h, k)
                assert np.max(np.abs(got - naive_moment(values, h, k))) < 1e-12

    def test_direct_fits_match_loops(self, path):
        values = path.series.values
        for h in (1, 2, 3):
            for k in (1, 2, 3, 4):
                got = fit_direct(path.series, h, k)
                assert np.max(np.abs(got - naive_direct(values, h, k))) < 1e-10

    def test_plugin_fits_match_loops(self, path):
        values = path.series.values
        for h in (2, 3):
            for k in (1, 2, 4):
                got = fit_plugin(path.series, h, k)
                assert np.max(np.abs(got - naive_plugin(values, h, k))) < 1e-10

    def test_scalar_fit_is_the_hand_ratio(self):
        x = np.arange(1.0, 11.0)
        expected = np.dot(x[:9], x[1:]) / np.dot(x[:9], x[:9])
        assert fit_one_step(Series(x), 1)[0] == pytest.approx(expected,
                                                              abs=1e-15)

    def test_one_step_is_direct_at_horizon_one(self, path):
        for k in (1, 2, 3):
            assert np.array_equal(fit_direct(path.series, 1, k),
                                  fit_one_step(path.series, k))

    def test_too_short_series_rejected(self):
        with pytest.raises(TooFewObservationsError):
            fit_direct(Series(np.arange(5.0) + 1.0), 3, 4)


class TestPrediction:
    def test_newest_first_lag_order(self):
        series = Series(np.array([1.0, 2.0, 5.0]))
        # forecast = c0*x_n + c1*x_{n-1}
        assert predict_with(series, np.array([0.5, 0.25])) == \
            pytest.approx(0.5 * 5.0 + 0.25 * 2.0, abs=1e-15)

    def test_forecast_applies_the_candidate_fit(self, path):
        series, values = path.series, path.series.values
        for k in (1, 3):
            assert forecast(series, 3, k, Method.DIRECT) == \
                predict_with(series, fit_direct(series, 3, k))
            assert forecast(series, 3, k, Method.PLUGIN) == \
                predict_with(series, fit_plugin(series, 3, k))
        # a direct mask fit weighs only the flagged lags x_n and x_{n-2}
        coeffs = masked_fit_direct(series, 3, (1, 3))
        assert forecast(series, 3, (1, 0, 1), Method.DIRECT) == pytest.approx(
            coeffs[0] * values[-1] + coeffs[1] * values[-3], abs=1e-12)
        plugin = masked_fit_plugin(series, 3, (1, 3), 3)
        assert forecast(series, 3, (1, 0, 1), Method.PLUGIN) == \
            predict_with(series, plugin)


class TestMaskedFits:
    def test_masked_direct_matches_normal_equations(self, path):
        values = path.series.values
        n = values.size
        h, lags = 3, (1, 3)
        got = masked_fit_direct(path.series, h, lags)
        rows, ys = [], []
        for j in range(max(lags), n - h + 1):
            rows.append([values[j - lag] for lag in lags])
            ys.append(values[j + h - 1])
        rows, ys = np.array(rows), np.array(ys)
        ref = np.linalg.solve(rows.T @ rows, rows.T @ ys)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_contiguous_mask_equals_dense_fit(self, path):
        for k in (1, 2, 3):
            masked = masked_fit_direct(path.series, 3, tuple(range(1, k + 1)))
            dense = fit_direct(path.series, 3, k)
            assert np.max(np.abs(masked - dense)) < 1e-10

    def test_masked_plugin_zero_fill_embedding(self, path):
        # a gap mask fits only the named lags but iterates on the window
        coeffs = masked_fit_plugin(path.series, 2, (1, 3), 3)
        assert coeffs.size == 3
        dense = masked_fit_plugin(path.series, 2, (1, 2, 3), 3)
        full = fit_plugin(path.series, 2, 3)
        assert np.max(np.abs(dense - full)) < 1e-10


class TestSequentialFitter:
    def test_matches_batch_refits(self, path):
        values = path.series.values
        checked = 0
        for i, fits in sequential_fitter(path.series, 3, 4,
                                         well_defined_from=10):
            if fits is None or (i % 37 and i != 10):
                continue
            prefix = Series(values[:i])
            for k, fit in fits.items():
                ref_d = fit_direct(prefix, 3, k)
                ref_p = fit_plugin(prefix, 3, k)
                scale = max(1.0, float(np.max(np.abs(ref_d))))
                assert np.max(np.abs(fit.a_direct - ref_d)) / scale < 1e-8
                assert np.max(np.abs(fit.a_plugin - ref_p)) / scale < 1e-8
                assert np.max(np.abs(fit.gamma_hat
                                     - sample_moment(prefix, 3, k))) < 1e-8
                checked += 1
        assert checked >= 20

    def test_singular_prefixes_yield_none_until_certified(self):
        # Twenty zeros lead the series, so the first prefixes have singular
        # moment matrices: they are yielded as None, and a stream certified
        # well defined from inside that run raises at the certified time.
        values = np.concatenate((np.zeros(20), np.random.default_rng(1).normal(size=200)))
        stream = list(sequential_fitter(Series(values), 3, 4))
        assert [i for i, _ in stream] == list(range(10, 218))
        assert [i for i, fits in stream if fits is None] == list(range(10, 27))
        assert all(sorted(fits) == [1, 2, 3, 4] for _, fits in stream[17:])
        with pytest.raises(SingularMomentError, match="singular moment matrix at time 15$"):
            list(sequential_fitter(Series(values), 3, 4, well_defined_from=15))


class TestConditioningFloor:
    def test_badly_scaled_moments_are_accepted(self):
        # A change of behaviour.  Seventeen zeros, 43 normals and a spike of
        # 1e9 in the fifth-newest window: the order-5 moment matrix has
        # condition number 4.4e16, which the condition-number ceiling of
        # earlier versions rejected, but with each lag scaled to unit
        # maximum it is 6.8.  The floor on the relative pivot d^2/m_vv does
        # not depend on the scale of a lag, so the fit is accepted, and it
        # is a column-scaled least-squares solve's to rounding.
        rng = np.random.default_rng(3638399971)
        values = np.concatenate([np.zeros(17), rng.normal(size=43)])
        values[55] = 1e9
        coeffs = fit_direct(Series(values), 1, 5)
        lags = np.column_stack([values[5 - lag: values.size - lag] for lag in range(1, 6)])
        scale = np.abs(lags).max(axis=0)
        want = np.linalg.lstsq(lags / scale, values[5:], rcond=None)[0] / scale
        assert np.linalg.cond(lags.T @ lags) > 1e16
        assert np.max(np.abs(coeffs - want)) <= 1e-12 * np.max(np.abs(want))


class TestResidualScreen:
    # Well-conditioned fits whose residual test still fires, so the screen
    # must not clear them: products of the residual that overflow, from
    # coefficients near 2.6e307 or moments near 7e300, and products that
    # fall among the subnormal numbers, whose rounding is absolute, not
    # relative (a right-hand sum of 3e-321, or moments near 1.3e-306).
    @pytest.mark.parametrize("values, order, residual", [
        ([1.0, 2.0, 1.0, 1.5, 1e308], 2, "nan"),
        ([1e150, 2e150, 1e150, 1.5e150, 1e158], 2, "nan"),
        ([1.7 ** 0.5, 3e-321, 0.0, 0.0], 1, "6.317e-04"),
        ([-8.128137367243375e-156, -1.1223012038174603e-153, -3.3876851155931836e-164,
          -1.8786459783795647e-163, 9.659270570929079e-157], 2, "1.171e-08")])
    def test_fits_beyond_its_range_keep_the_residual_test(self, values, order, residual):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SingularMomentError,
                               match=rf"unreliable solve \(relative residual {residual}\)"):
                fit_direct(Series(np.array(values)), 1, order)
