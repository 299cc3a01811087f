"""Exact-arithmetic checks of the population quantities.

Every expected value here is either hand-computable, a frozen closed
form, or an independent construction (companion powers, moving-average
sums) that never goes through the code path under test.
"""
import json
import math
import re
import warnings

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
    required_masks,
    subset_loss_table,
    three_step_excess_ratio,
    underfit_ape_drift,
)
from arselect.cli import main
from arselect.errors import (
    NonPositiveVarianceError,
    NonStationaryError,
    OutOfDomainError,
    SingularGammaError,
    SubsetTooLargeError,
    UnderspecifiedOrderError,
    ZeroLeadCoefficientError,
)
from arselect.methods import Method
from arselect.montecarlo import _excess_deviations
from arselect import theory
from arselect.theory import _all_masks, _check_condition, _sensitivity, _toeplitz
from arselect.tolerances import HORIZON_ROWS_CAP, THEORY_WINDOW_CAP

from conftest import (
    ILL_CONDITIONED,
    SINGULAR_GAMMA,
    TEST_MODELS,
    curve_model,
    exact_autocovariances,
    random_stationary_model,
)

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

    def test_exact_unit_root_next_to_a_double_root_is_rejected(self):
        # 1 - a1 - a2 is exactly 0 in these floats: the roots are 1 and
        # 0.999999996, and kappa_1 rounds to 1.000000002.
        with pytest.raises(NonStationaryError, match="kappa_1 = "):
            ArModel((1.999999996, -0.9999999959999999))

    @pytest.mark.parametrize("coeffs, k", [((1.5, 0.9), 1), ((0.1, 0.2, 1.0), 3),
                                           ((0.2, -1.5, 0.5), 2)])
    def test_error_names_the_first_failing_kappa(self, coeffs, k):
        # The step-down runs from kappa_p down and stops at the first failure.
        with pytest.raises(NonStationaryError) as info:
            ArModel(coeffs)
        message = str(info.value)
        assert f"kappa_{k} = " in message and "0.999999999" in message

    @pytest.mark.parametrize("coeffs, stationary", [
        ((1e308, 0.99), False),  # kappa_1 overflows to inf
        ((1e308, -1e308, 0.5), False),
        ((1.7e308,), False),
        ((-1.7e308, 1.7e308), False),
        ((0.5, 1e-320), True),  # a subnormal kappa_2
    ])
    def test_extreme_coefficients_decide_without_a_warning(self, coeffs, stationary):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if stationary:
                ArModel(coeffs)
            else:
                with pytest.raises(NonStationaryError):
                    ArModel(coeffs)


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

    def test_matches_exact_yule_walker_on_an_ill_conditioned_model(self):
        # cond(Gamma_6) = 7.6e6 (random_stationary_model, max order 6,
        # default_rng(5), draw 602).  A floating-point Yule-Walker solve
        # erred by 2.4e-11 of gamma_0 here, the step-up by 6.6e-13.
        exact = exact_autocovariances(ILL_CONDITIONED.coeffs, ILL_CONDITIONED.sigma2, 12)
        got = autocovariances(ILL_CONDITIONED, 12).gamma
        assert max(abs(float(g - e)) for g, e in zip(got.tolist(), exact)) \
            < 5e-12 * float(exact[0])

    def test_matches_exact_yule_walker_on_generated_models(self, rng):
        worst = 0.0
        for _ in range(100):
            model = random_stationary_model(rng, max_order=6)
            exact = exact_autocovariances(model.coeffs, model.sigma2, 10)
            got = autocovariances(model, 10).gamma
            worst = max(worst, max(abs(float(g - e)) for g, e in zip(got.tolist(), exact))
                        / float(exact[0]))
        assert worst < 1e-12

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
        rng = np.random.default_rng(33)
        worst = 0.0
        for k in range(1, 9):
            for h in range(1, 9):
                for one_step in rng.uniform(-1.0, 1.0, (25, k)) / k:
                    want = np.linalg.matrix_power(companion_matrix(one_step), h)[0]
                    got = iterate_plugin_coeffs(one_step, h)
                    worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
        assert worst <= 1e-12

    def test_stacked_iteration_is_the_row_by_row_iteration(self):
        rng = np.random.default_rng(31)
        for k in range(1, 7):
            stack = rng.uniform(-1.0, 1.0, (3, 5, k))
            for h in (1, 2, 3, 6):
                got = iterate_plugin_coeffs(stack, h)
                assert got.shape == stack.shape
                for index in np.ndindex(3, 5):
                    assert iterate_plugin_coeffs(stack[index], h).tobytes() == \
                        got[index].tobytes()

    def test_iteration_is_invariant_under_zero_padding(self):
        # A plug-in mask embeds its fit in a wider window with zeros.
        rng = np.random.default_rng(32)
        for k in range(1, 6):
            for pad in (1, 3):
                for h in (2, 3, 5):
                    one_step = rng.uniform(-1.0, 1.0, (20, k))
                    padded = np.concatenate((one_step, np.zeros((20, pad))), axis=1)
                    got = iterate_plugin_coeffs(padded, h)
                    assert np.array_equal(got[:, :k], iterate_plugin_coeffs(one_step, h))
                    assert not got[:, k:].any()

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

    def test_constants_match_a_cholesky_reference(self, rng):
        # The constants come from the model's Levinson factor; the reference
        # builds J from companion powers and V from a double sum over the
        # moving-average weights, and solves Gamma(k) with SciPy's Cholesky
        # factor.  Random models run to K = 10, four more to K = 40, and the
        # double root at 0.95, (1.9, -0.9025), to K = 40 at three horizons.
        from scipy.linalg import cho_factor, cho_solve

        cases = []
        for _ in range(80):
            model = random_stationary_model(rng, max_order=5)
            h = int(rng.integers(1, 7))
            cases.append((model, h, int(rng.integers(model.order, 11))))
        cases += [(random_stationary_model(rng, max_order=5), int(rng.integers(1, 7)), 40)
                  for _ in range(4)]
        cases += [(ArModel((1.9, -0.9025), 1.0), h, 40) for h in (1, 3, 6)]
        for model, h, max_order in cases:
            p = model.order
            table = loss_table(model, h, max_order)
            gamma = autocovariances(model, h + max_order).gamma
            b = ma_coefficients(model, h - 1).b
            for k in range(p, max_order + 1):
                gam = gamma[np.abs(np.subtract.outer(np.arange(k), np.arange(k)))]
                factor = cho_factor(gam)
                padded = np.zeros(k)
                padded[:p] = model.coeffs
                comp = companion_matrix(padded)
                jac = sum(b[j] * np.linalg.matrix_power(comp, h - 1 - j)
                          for j in range(h)).T
                plugin = model.sigma2 * np.trace(gam @ jac @ cho_solve(factor, jac.T))
                assert table.plugin[k] == pytest.approx(plugin, rel=1e-10, abs=0.0)
                if math.isinf(table.direct[k]):
                    continue
                shift = np.add.outer(np.arange(k), np.arange(h))  # r + i
                v = np.einsum("i,j,risj->rs", b, b, gamma[np.abs(
                    shift[:, :, None, None] - shift[None, None, :, :])])
                direct = model.sigma2 * np.trace(cho_solve(factor, v))
                assert table.direct[k] == pytest.approx(direct, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_every_order_is_the_same_bits_in_a_longer_table(self, seed):
        # Each order adds one row's term to a sum taken in order, so a table's
        # first k entries are the order-k table's, bit for bit, whatever its
        # --max-order.
        rng = np.random.default_rng(seed)
        cases = [(ArModel((0.9, -0.81), 1.0), 2 * seed + 1, 60)]
        for _ in range(3):
            model = random_stationary_model(rng, max_order=5,
                                            sigma2=float(10.0 ** rng.uniform(-3, 3)))
            cases.append((model, int(rng.integers(1, 7)), int(rng.integers(model.order, 61))))
        for model, h, max_order in cases:
            big = loss_table(model, h, max_order)
            for k in range(model.order, max_order):
                small = loss_table(model, h, k)
                for method in Method:
                    assert [small.value(j, method).hex() for j in range(1, k + 1)] == \
                        [big.value(j, method).hex() for j in range(1, k + 1)]

    @pytest.mark.parametrize("h", [1, 3])
    def test_guard_takes_one_condition_number_per_table(self, h, capsys):
        # The double root at 0.99973: Gamma(k) passes the guard up to k = 5
        # and fails it from k = 6 on.  A table of K orders checks Gamma(K)
        # alone, which bounds every smaller order's condition number, and
        # names it when it fails.
        model = ArModel(SINGULAR_GAMMA, 1.0)
        gamma = autocovariances(model, h + 8).gamma
        table = loss_table(model, h, 5)
        assert all(math.isfinite(table.value(k, method))
                   for k in range(2, 6) for method in Method)
        for max_order in (6, 7):
            cond = np.linalg.cond(_toeplitz(gamma[:max_order]))
            with pytest.raises(SingularGammaError, match=re.escape(f"{cond:.3e}")):
                loss_table(model, h, max_order)
        # required_masks reads the same guarded inputs as the window's table.
        assert required_masks(model, h, 5) == ((1, 1, 0, 0, 0),) * 2
        with pytest.raises(SingularGammaError):
            required_masks(model, h, 6)
        argv = ["theory", f"--coeffs={','.join(map(repr, SINGULAR_GAMMA))}",
                "--horizon", str(h), "--max-order"]
        assert main([*argv, "5"]) == 0
        assert main([*argv, "6"]) == 3
        assert "condition number 1.052e+12 exceeds guard" in capsys.readouterr().err


class TestSubsetLossTable:
    def test_one_definedness_rule(self, capsys):
        # The second coefficient is below TOL_ZERO but nonzero, so the model
        # has order 2 and the plug-in predictor needs both lags; the h=1
        # projection coefficient on lag 2 is at or below TOL_ZERO.
        model = ArModel((0.5, 1e-12), 1.0)
        assert required_masks(model, 1, 2) == ((1, 1), (1, 0))
        dense, masks = loss_table(model, 1, 2), subset_loss_table(model, 1, 2)
        assert dense.plugin[1] == masks.plugin[(1, 0)] == masks.plugin[(0, 1)] == math.inf
        assert math.isfinite(dense.plugin[2]) and math.isfinite(dense.direct[1])
        with pytest.raises(UnderspecifiedOrderError, match="misses lag 2"):
            plugin_excess_constant(model, 1, 1)
        assert main(["theory", "--coeffs", "0.5,1e-12", "--horizon", "1",
                     "--max-order", "2"]) == 0
        rows = json.loads(capsys.readouterr().out)["per_order"]
        assert [row["plugin_constant"] is None for row in rows] == [True, False]

    def test_window_limits(self):
        model = ArModel((0.9, -0.81), 1.0)
        with pytest.raises(UnderspecifiedOrderError):
            subset_loss_table(model, 3, 1)
        with pytest.raises(SubsetTooLargeError):
            subset_loss_table(model, 3, 13)

    def test_zero_bits_past_the_top_lag_do_not_matter(self, rng):
        # A mask padded with zeros on a wider window is the same candidate;
        # its constants agree to rounding.
        worst = 0.0
        for _ in range(12):
            model = random_stationary_model(rng, max_order=3)
            h, narrow = int(rng.integers(1, 7)), int(rng.integers(model.order, 5))
            wide = int(rng.integers(narrow + 1, 8))
            small, big = subset_loss_table(model, h, narrow), subset_loss_table(model, h, wide)
            for bits in small.plugin:
                padded = bits + (0,) * (wide - narrow)
                for method in Method:
                    want, got = small.value(bits, method), big.value(padded, method)
                    if math.isinf(want):
                        assert got == math.inf
                    else:
                        worst = max(worst, abs(got - want) / want)
        assert worst <= 1e-12

    @pytest.mark.parametrize("coeffs", [(0.9, -0.81), (-0.5, 0.2, 0.1), (0.99,), (1.9, -0.9025),
                                        (1.999464406779661, -0.9994644784946853)])
    def test_no_mask_is_rejected_where_the_window_passes(self, coeffs):
        # Gamma_w passes its guard once for every mask: a principal
        # submatrix's condition number is never larger than Gamma_w's.
        model = ArModel(coeffs, 1.0)
        gamma = autocovariances(model, 8).gamma
        for window in range(model.order, 9):
            gam = _toeplitz(gamma[:window])
            cond = np.linalg.cond(gam)
            for bits in _all_masks(window):
                lags = np.flatnonzero(bits)
                assert np.linalg.cond(gamma[np.abs(lags[:, None] - lags)]) <= cond * (1 + 1e-12)
            try:
                _check_condition(gam, SingularGammaError, "window")
            except SingularGammaError:
                with pytest.raises(SingularGammaError):
                    subset_loss_table(model, 1, window)
            else:
                table = subset_loss_table(model, 1, window)
                assert math.isfinite(table.direct[(1,) * window])


class TestExtremeVariance:
    """A subnormal variance, or one whose autocovariances or constants
    overflow, is out of domain, without a warning.  A subnormal variance is
    out of domain even when gamma_0 is normal: it bounds the pivots of
    Gamma(k) from below, and at 1e-308 the constants of (0.9, -0.81) moved
    by 4.6% between two solvers."""

    @pytest.mark.parametrize("coeffs, sigma2", [((0.5,), 1e-320), ((0.5,), 1e-308),
                                                ((0.9, -0.81), 1e-308), ((0.5,), 1.7e308)])
    def test_autocovariances_outside_the_normal_range(self, coeffs, sigma2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomainError, match="sigma2"):
                autocovariances(ArModel(coeffs, sigma2), 4)

    def test_overflowing_constant(self):
        model = ArModel((0.0, 0.0, 0.0, 0.5), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomainError, match="excess constant is not finite"):
                loss_table(model, 1, 6)
            with pytest.raises(OutOfDomainError, match="excess constant is not finite"):
                plugin_excess_constant(model, 1, 4)

    def test_a_constant_below_the_model_order_forms_only_its_order(self):
        # At sigma2 = 1e308 the order-2 constants of (0, 0.5) overflow, so
        # loss_table on window 2 is out of domain.  An order-1 constant takes
        # that window's guard but forms orders up to 1 only: the direct one
        # at h=2 is finite, and the plug-in one is underspecified, as at any
        # sigma2.
        model = ArModel((0.0, 0.5), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomainError, match="excess constant is not finite"):
                loss_table(model, 2, 2)
            assert direct_excess_constant(model, 2, 1).hex() == "0x1.1ccf385ebc8a0p+1023"
            with pytest.raises(UnderspecifiedOrderError,
                               match="^plugin constant undefined at order 1: the window "
                                     "misses lag 2, which the plugin predictor needs$"):
                plugin_excess_constant(model, 2, 1)

    def test_guard_condition_number_is_scale_free(self, capsys):
        # Gamma(2) of (0.5,) at sigma2 = 1e308 has a singular value above the
        # float maximum.  Its condition number is taken at unit scale, so the
        # table passes the guard and its order-2 constants overflow: exit 2,
        # where an SVD of Gamma itself read "condition number inf" (exit 3).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomainError, match="excess constant is not finite"):
                loss_table(ArModel((0.5,), 1e308), 1, 4)
        assert main(["theory", "--coeffs", "0.5", "--sigma2", "1e308", "--horizon", "1",
                     "--max-order", "4"]) == 2
        assert "excess constant is not finite" in capsys.readouterr().err

    def test_smallest_normal_autocovariance_is_accepted(self):
        tiny = np.finfo(float).tiny
        gamma0 = autocovariances(ArModel((0.5,), tiny), 2).gamma[0]
        assert gamma0 == pytest.approx(tiny / 0.75, rel=1e-15)


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

    @pytest.mark.parametrize("model", [ArModel(c, 1.0) for c in TEST_MODELS + (
        (0.3, 0.1, 0.25), (0.5, -0.3, 0.2), (0.9, 0.0, -0.3), (0.6, 0.0, 0.0, -0.3))])
    def test_plugin_drift_is_the_sum_of_two_orthogonal_gaps(self, model):
        # The plug-in limit's gap to the h-step projection splits into the
        # gap of the order-k h-step projection under Gamma(p) and the
        # iterate's gap to that projection under Gamma(k); the two are
        # Gamma-orthogonal, so their quadratic forms sum to the drift.
        p = model.order
        for h in (1, 2, 3, 5):
            table = autocovariances(model, h + p - 1)
            for k in range(1, p):
                low = optimal_direct_coeffs(table, h, k)
                gap_high = optimal_direct_coeffs(table, h, p) - np.pad(low, (0, p - k))
                gap_low = iterate_plugin_coeffs(optimal_direct_coeffs(table, 1, k), h) - low
                expect = (gap_high @ table.gamma_matrix(p) @ gap_high
                          + gap_low @ table.gamma_matrix(k) @ gap_low)
                res = underfit_ape_drift(model, h, k, Method.PLUGIN)
                assert res.underfit
                assert res.value == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("coeffs, h, pairs", [
        ((0.9, -0.81), 1, [(1, Method.PLUGIN)]),
        ((0.9, -0.81), 3, [(1, Method.PLUGIN)]),
        ((0.3, 0.1, 0.25), 2, [(1, Method.DIRECT), (2, Method.PLUGIN)]),
        ((0.5, -0.3, 0.2), 3, [(1, Method.DIRECT)])])
    def test_drift_tracks_simulation(self, coeffs, h, pairs):
        # The squared deviation of an underfitted forecast from the
        # conditional mean has mean drift + B / n.  B was measured as
        # n * (mean - drift) with 20,000 replications at n = 100, 400 and
        # 1000: at most about 9 for (0.9, -0.81) and 2 for the others, and
        # 1.5 for (0.5, -0.3, 0.2), the largest against its spread.  At
        # n = 8000 and 400 replications, B / n is below a fifth of the
        # standard error in every case (0.15 of it for (0.5, -0.3, 0.2)),
        # so z tests the drift itself.
        model, n, reps = ArModel(coeffs, 1.0), 8000, 400
        squares, _ = _excess_deviations(model, h, n, reps, (2828,), pairs)
        for (k, method), sq in zip(pairs, squares.T):
            res = underfit_ape_drift(model, h, k, method)
            assert res.underfit
            z = (sq.mean() - res.value) / (sq.std(ddof=1) / math.sqrt(reps))
            assert abs(z) <= 4.0, (k, method, z)

    def test_plugin_drift_at_the_model_order_takes_the_guard(self):
        # The drift reads the model's own guarded inputs, so a model whose
        # Gamma(p) fails the guard has no drift at any order; a plug-in
        # order at or above p returned zero unguarded before.
        model = ArModel((2.6828628518264908, -1.9111598512892196, -1.1376759410513977,
                         2.276125497207642, -0.9101525566935177), 1.0)
        for k in (5, 6):
            with pytest.raises(SingularGammaError, match="condition number 1.073e[+]17"):
                underfit_ape_drift(model, 1, k, Method.PLUGIN)
        with pytest.raises(SingularGammaError, match="condition number 1.073e[+]17"):
            loss_table(model, 1, 5)


class TestHorizonBound:
    """The constants take (p + h - 1)-square matrices, so a horizon whose
    p + h - 1 passes ``HORIZON_ROWS_CAP`` is out of domain before any is
    formed."""

    def test_both_sides_of_the_bound(self):
        assert HORIZON_ROWS_CAP == 256
        model = ArModel((0.9, -0.81), 1.0)
        table = loss_table(model, HORIZON_ROWS_CAP - 1, 2)  # p + h - 1 = 256
        assert math.isfinite(table.plugin[2]) and math.isfinite(table.direct[2])
        for call in (lambda: loss_table(model, HORIZON_ROWS_CAP, 2),
                     lambda: subset_loss_table(model, HORIZON_ROWS_CAP, 2),
                     lambda: h_step_order(model, HORIZON_ROWS_CAP),
                     lambda: underfit_ape_drift(ArModel((0.5,), 1.0), HORIZON_ROWS_CAP + 1,
                                                1, Method.DIRECT)):
            with pytest.raises(OutOfDomainError, match="past the bound HORIZON_ROWS_CAP = 256"):
                call()

    def test_command_line_exits_two(self, capsys):
        assert main(["theory", "--coeffs=0.5", "--horizon", "100000", "--max-order", "2"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: OutOfDomainError: horizon 100000 needs p + h - 1 = 100000 rows, "
                       "past the bound HORIZON_ROWS_CAP = 256\n")


class TestWindowBound:
    """Gamma(window) takes one condition number and a window-square index, so
    a window past ``THEORY_WINDOW_CAP`` is out of domain before the
    autocovariances are formed."""

    def test_both_sides_of_the_bound(self, monkeypatch):
        assert THEORY_WINDOW_CAP == 1024
        model = ArModel((0.9, -0.81), 1.0)
        table = loss_table(model, 3, THEORY_WINDOW_CAP)
        assert math.isfinite(table.plugin[THEORY_WINDOW_CAP])
        assert math.isfinite(table.direct[THEORY_WINDOW_CAP])

        def unreachable(*args):
            raise AssertionError("autocovariances formed past the window bound")

        monkeypatch.setattr(theory, "autocovariances", unreachable)
        for call in (lambda: loss_table(model, 3, THEORY_WINDOW_CAP + 1),
                     lambda: loss_table(model, 1, 100000),
                     lambda: plugin_excess_constant(model, 3, THEORY_WINDOW_CAP + 1),
                     lambda: direct_excess_constant(model, 3, THEORY_WINDOW_CAP + 1),
                     lambda: required_masks(model, 3, THEORY_WINDOW_CAP + 1)):
            with pytest.raises(OutOfDomainError,
                               match="past the bound THEORY_WINDOW_CAP = 1024$"):
                call()

    def test_command_line_exits_two(self, capsys):
        assert main(["theory", "--coeffs=0.5", "--horizon", "1", "--max-order", "100000"]) == 2
        assert capsys.readouterr().err == (
            "error: OutOfDomainError: window 100000 is past the bound "
            "THEORY_WINDOW_CAP = 1024\n")


class TestSensitivity:
    @staticmethod
    def dense_sum(model, b, window):
        """``sum_{e<h} b_{h-1-e} A^e`` by dense companion-matrix products,
        summed in the same order."""
        h, one_step = b.size, np.zeros(window)
        one_step[: model.order] = model.coeffs
        comp, power = companion_matrix(one_step), np.eye(window)
        total = np.zeros((window, window))
        for exponent in range(h):
            total += b[h - 1 - exponent] * power
            power = power @ comp
        return total

    def test_companion_steps_are_the_dense_products(self):
        # Each power of the companion matrix is the last one stepped by one
        # product and at most one sum per entry, the nonzero terms of the
        # matrix product, so the sum is the dense one bit for bit, on the
        # windows the constants take (p + h - 1 rows, and a mask's window).
        rng = np.random.default_rng(2902)
        cases = [(random_stationary_model(rng, max_order=5), h) for h in range(1, 9)
                 for _ in range(6)]
        cases.append((ArModel((0.9, -0.81)), HORIZON_ROWS_CAP - 1))
        for model, h in cases:
            b = ma_coefficients(model, h - 1).b
            for window in {model.order, model.order + h - 1, model.order + 2}:
                assert _sensitivity(model, b, window).tobytes() == \
                    self.dense_sum(model, b, window).tobytes()


class TestHorizonVariance:
    def test_overflow_is_out_of_domain(self):
        # sigma2 * (1 + 0.99^2 + 0.99^4) passes the float maximum; one weight
        # does not.
        model = ArModel((0.99,), 1.7e308)
        assert horizon_variance(model, 1) == 1.7e308
        with pytest.raises(OutOfDomainError, match="horizon variance is not finite"):
            horizon_variance(model, 3)
