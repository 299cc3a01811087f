"""Exact-arithmetic checks of the population quantities.

Every expected value here is either hand-computable, a frozen closed
form, or an independent construction (companion powers, moving-average
sums) that never goes through the code path under test.
"""
import math

import numpy as np
import pytest

from arselect import (
    ArModel,
    autocovariances,
    companion_matrix,
    direct_excess_constant,
    h_step_order,
    horizon_variance,
    iterate_plugin_coeffs,
    loss_table,
    ma_coefficients,
    optimal_candidates,
    optimal_direct_coeffs,
    plugin_excess_constant,
    spectral_radius,
    three_step_excess_ratio,
    underfit_ape_drift,
)
from arselect.errors import (
    NonPositiveVarianceError,
    NonStationaryError,
    OutOfDomainError,
    UnderspecifiedOrderError,
    ZeroLeadCoefficientError,
)
from arselect.methods import Method
from arselect.theory import _toeplitz

from conftest import TEST_MODELS, curve_model, random_stationary_model

BALANCE_ROOT = -0.5497712740472172  # where the two three-step losses tie


class TestModelValidation:
    def test_rejects_nonstationary(self):
        with pytest.raises(NonStationaryError):
            ArModel((1.5, 0.9), 1.0)
        with pytest.raises(NonStationaryError):
            ArModel((1.0,), 1.0)  # unit root

    def test_rejects_zero_lead(self):
        with pytest.raises(ZeroLeadCoefficientError):
            ArModel((0.5, 0.0), 1.0)

    def test_rejects_bad_variance(self):
        with pytest.raises(NonPositiveVarianceError):
            ArModel((0.5,), 0.0)

    def test_spectral_radius_of_companion(self):
        # AR(1) companion radius is |a1| itself
        assert spectral_radius(companion_matrix(np.array([-0.7]))) == \
            pytest.approx(0.7, abs=1e-12)


class TestMovingAverageWeights:
    def test_first_test_model_weights_frozen(self):
        # b = (1, .9, .9^2-.81, ...): the second weight cancels exactly
        b = ma_coefficients(ArModel((0.9, -0.81), 1.0), 4).b
        assert b[0] == 1.0
        assert b[1] == 0.9
        assert b[2] == 0.0
        assert b[3] == pytest.approx(-0.729, abs=1e-15)
        assert b[4] == pytest.approx(-0.6561, abs=1e-15)

    def test_horizon_variance_accumulates_weights(self):
        model = ArModel((0.9, -0.81), 1.0)
        assert horizon_variance(model, 1) == 1.0
        assert horizon_variance(model, 3) == pytest.approx(1.81, abs=1e-14)


class TestAutocovariances:
    def test_ar1_exact_values(self):
        table = autocovariances(ArModel((0.5,), 1.0), 4)
        assert table.value(0) == pytest.approx(4.0 / 3.0, abs=1e-13)
        assert table.value(1) == pytest.approx(2.0 / 3.0, abs=1e-13)
        assert table.value(2) == pytest.approx(1.0 / 3.0, abs=1e-13)

    def test_matches_moving_average_sums(self, rng):
        worst = 0.0
        for _ in range(30):
            model = random_stationary_model(rng)
            table = autocovariances(model, 8)
            b = ma_coefficients(model, n_terms=1000).b
            for j in range(9):
                direct = model.sigma2 * float(np.dot(b[: b.size - j], b[j:]))
                worst = max(worst, abs(direct - table.value(j)))
        assert worst < 1e-9

    def test_gamma_matrix_is_toeplitz_spd(self):
        table = autocovariances(ArModel((0.6, -0.36), 1.0), 6)
        gam = table.gamma_matrix(4)
        assert np.array_equal(gam, gam.T)
        assert np.all(np.linalg.eigvalsh(gam) > 0)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 12])
    def test_toeplitz_is_scipy_toeplitz_byte_for_byte(self, rng, k):
        from scipy.linalg import toeplitz

        column = rng.normal(size=k)
        if k > 1:
            column[-1] = -0.0  # a signed zero must be copied as it is
        ours = _toeplitz(column)
        assert ours.shape == (k, k) and ours.dtype == np.float64
        assert ours.flags.c_contiguous
        assert ours.tobytes() == toeplitz(column).tobytes()


class TestProjectionCoefficients:
    def test_equals_companion_power_rows(self, rng):
        worst = 0.0
        for _ in range(30):
            model = random_stationary_model(rng)
            p = model.order
            for h in (1, 2, 3, 4):
                for k in range(p, p + 3):
                    table = autocovariances(model, h + k - 1)
                    got = optimal_direct_coeffs(table, h, k)
                    padded = np.zeros(k)
                    padded[:p] = model.coeffs
                    row = np.linalg.matrix_power(
                        companion_matrix(padded), h)[0]
                    worst = max(worst, float(np.max(np.abs(got - row))))
        assert worst < 1e-10

    def test_plugin_iteration_matches_power(self):
        one_step = np.array([0.9, -0.81])
        row = np.linalg.matrix_power(companion_matrix(one_step), 3)[0]
        assert np.allclose(iterate_plugin_coeffs(one_step, 3), row,
                           atol=1e-14)

    def test_curve_models_collapse_to_order_one_at_three_steps(self):
        for coeffs in TEST_MODELS:
            model = ArModel(coeffs, 1.0)
            assert h_step_order(model, 3) == 1
            assert h_step_order(model, 1) == 2


class TestExcessConstants:
    def test_one_step_equals_order_times_variance(self, rng):
        for _ in range(15):
            model = random_stationary_model(rng)
            for k in range(model.order, model.order + 3):
                expect = k * model.sigma2
                assert plugin_excess_constant(model, 1, k) == \
                    pytest.approx(expect, abs=1e-9)
                assert direct_excess_constant(model, 1, k) == \
                    pytest.approx(expect, abs=1e-9)

    def test_two_step_closed_forms(self, rng):
        for _ in range(40):
            model = random_stationary_model(rng)
            a1 = model.coeffs[0]
            for k in range(model.order, model.order + 4):
                ak = model.coeffs[k - 1] if k - 1 < model.order else 0.0
                f2 = direct_excess_constant(model, 2, k)
                f1 = plugin_excess_constant(model, 2, k)
                assert abs(f2 - (k + (k + 2) * a1 ** 2) * model.sigma2) < 1e-9
                assert abs(f1 - ((k + 2) * a1 ** 2 + k - 1 + ak ** 2)
                           * model.sigma2) < 1e-9

    def test_three_step_gap_closed_form_order_two(self, rng):
        checked = 0
        while checked < 25:
            model = random_stationary_model(rng, order=2)
            a1, a2 = model.coeffs
            gap = direct_excess_constant(model, 3, 2) \
                - plugin_excess_constant(model, 3, 2)
            expect = 2 * (1 + a2) * (1 - a2 - 2 * a1 ** 2 * a2) * model.sigma2
            assert abs(gap - expect) < 1e-9
            checked += 1

    def test_curve_three_step_closed_forms(self):
        for a2 in (-0.81, -0.64, -0.36, -0.25, -0.5):
            model = curve_model(a2)
            f23_1 = direct_excess_constant(model, 3, 1)
            f23_2 = direct_excess_constant(model, 3, 2)
            f13_2 = plugin_excess_constant(model, 3, 2)
            assert f23_1 == pytest.approx(
                (1 - 4 * a2 + a2 ** 2) / (1 - a2), abs=1e-12)
            assert f23_2 - f23_1 == pytest.approx(
                1 - a2 + 2 * a2 ** 2 / (1 - a2), abs=1e-12)
            assert f13_2 == pytest.approx(
                (-4 * a2 + 2 * a2 ** 2 - 2 * a2 ** 3 + 4 * a2 ** 4) / (1 - a2),
                abs=1e-12)

    def test_underspecified_order_rejected(self):
        model = ArModel((0.9, -0.81), 1.0)
        with pytest.raises(UnderspecifiedOrderError):
            plugin_excess_constant(model, 3, 1)  # below the model order


class TestThreeStepRatio:
    def test_benchmark_values_to_three_places(self):
        got = [round(three_step_excess_ratio(a2), 3)
               for a2 in (-0.81, -0.64, -0.36, -0.25)]
        assert got == [0.667, 0.868, 1.382, 1.76]

    def test_equals_constant_ratio(self):
        for a2 in (-0.81, -0.64, -0.36, -0.25, -0.45):
            model = curve_model(a2)
            ratio = direct_excess_constant(model, 3, 1) \
                / plugin_excess_constant(model, 3, 2)
            assert abs(three_step_excess_ratio(a2) - ratio) < 1e-12

    def test_balance_root_frozen(self):
        assert abs(three_step_excess_ratio(BALANCE_ROOT) - 1.0) < 1e-12
        # bisect a fresh bracket to confirm the frozen digits
        lo, hi = -0.9, -0.1
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if three_step_excess_ratio(mid) > 1.0:
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - BALANCE_ROOT) < 1e-10

    def test_domain_enforced(self):
        for bad in (-1.5, 0.0, 0.3):
            with pytest.raises(OutOfDomainError):
                three_step_excess_ratio(bad)


class TestLossTable:
    def test_benchmark_optimal_pairs(self):
        for coeffs, expect in zip(
                TEST_MODELS,
                [{(1, Method.DIRECT)}, {(1, Method.DIRECT)},
                 {(2, Method.PLUGIN)}, {(2, Method.PLUGIN)}]):
            table = loss_table(ArModel(coeffs, 1.0), 3, 4)
            assert optimal_candidates(table) == expect

    def test_tie_at_balance_root_gives_two_pairs(self):
        table = loss_table(curve_model(BALANCE_ROOT), 3, 4)
        assert optimal_candidates(table) == \
            {(1, Method.DIRECT), (2, Method.PLUGIN)}

    def test_underfit_entries_are_infinite(self):
        table = loss_table(ArModel((0.9, -0.81), 1.0), 3, 4)
        assert table.plugin[1] == math.inf      # below the model order
        assert math.isfinite(table.direct[1])   # at the three-step order
        with pytest.raises(UnderspecifiedOrderError):
            loss_table(ArModel((0.9, -0.81), 1.0), 3, 1)

    def test_losses_match_constants_in_wellspecified_range(self):
        model = ArModel((0.6, -0.36), 1.0)
        table = loss_table(model, 3, 4)
        for k in (2, 3, 4):
            assert table.plugin[k] == plugin_excess_constant(model, 3, k)
            assert table.direct[k] == direct_excess_constant(model, 3, k)


class TestUnderfitDrift:
    def test_frozen_one_step_drift(self):
        # projecting the first test model on one lag leaves this much
        # squared bias per step
        res = underfit_ape_drift(ArModel((0.9, -0.81), 1.0), 1, 1,
                                 Method.PLUGIN)
        assert res.underfit
        assert res.value == pytest.approx(1.9078220412910745, abs=1e-12)

    def test_direct_drift_vanishes_at_projection_order(self):
        model = ArModel((0.9, -0.81), 1.0)
        res = underfit_ape_drift(model, 3, 1, Method.DIRECT)
        assert not res.underfit
        assert res.value == 0.0

    def test_drift_matches_quadratic_form(self):
        # independent evaluation of the direct drift at one underfit order
        model = ArModel((0.3, 0.1, 0.25), 1.0)
        h, k = 2, 1
        table = autocovariances(model, h + 6)
        wide = optimal_direct_coeffs(table, h, h_step_order(model, h))
        narrow = optimal_direct_coeffs(table, h, k)
        diff = wide.copy()
        diff[:k] -= narrow
        gam = table.gamma_matrix(wide.size)
        expect = float(diff @ gam @ diff)
        res = underfit_ape_drift(model, h, k, Method.DIRECT)
        assert res.underfit
        assert res.value == pytest.approx(expect, rel=1e-9)
