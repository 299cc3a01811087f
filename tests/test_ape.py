"""Accumulated prediction errors: refit oracle, leakage, exact identities."""
import numpy as np
import pytest

from arselect import (
    ApeResult,
    ArModel,
    Series,
    ape_direct,
    ape_excess,
    ape_plugin,
    fit_direct,
    fit_plugin,
    ma_coefficients,
    simulate,
    start_index,
)
import arselect.ape
from arselect.ape import family_apes
from arselect.errors import (
    LengthMismatchError,
    NoValidStartError,
    SeriesOverflowError,
    SingularMomentError,
)
from arselect.estimation import _Bordering, _CrossProducts
from arselect.methods import Method
from arselect.selection import select_predictor, subset_select
from arselect.theory import _all_masks
from arselect.tolerances import TOL_LIN

from conftest import random_stationary_model
from test_estimation import naive_direct, naive_plugin


def dense_bordering(moment, rhs, horizons):
    """A :class:`_Bordering` over a (positions, positions, columns) moment
    stack, read as whole-series fits read their products: its k * k entry
    rows, an index grid and zero bases."""
    k = moment.shape[0]
    return _Bordering(moment.reshape(k * k, -1), np.arange(k * k).reshape(k, k),
                      np.zeros((k, k, 1)), rhs, horizons)


def naive_ape(values, h, k, m, method):
    """Full refit from scratch at every step."""
    n = values.size
    errors = []
    for i in range(m, n - h + 1):
        prefix = values[:i]
        coeffs = (naive_direct(prefix, h, k) if method is Method.DIRECT
                  else naive_plugin(prefix, h, k))
        pred = float(prefix[::-1][:k] @ coeffs)
        errors.append(values[i + h - 1] - pred)
    errors = np.array(errors)
    return float(np.sum(errors ** 2)), errors


@pytest.fixture(scope="module")
def path():
    return simulate(ArModel((0.9, -0.81), 1.0), 160, seed=42)


class TestStartIndex:
    def test_structural_minimum_on_benign_data(self, path):
        assert start_index(path.series, 1, 1) == 2
        assert start_index(path.series, 3, 2) == 6
        assert start_index(path.series, 3, 4) == 10

    def test_degenerate_prefix_pushes_start(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([np.zeros(20), rng.normal(size=60)])
        start = start_index(Series(values), 1, 2)
        assert start > 20

    def test_a_fit_inside_a_zero_run_is_singular_at_its_time(self):
        # Twenty zeros lead the series: a prefix fit whose windows hold only
        # zeros raises at its own time, and the probe starts past the run.
        values = np.concatenate((np.zeros(20), np.random.default_rng(1).normal(size=200)))
        series = Series(values)
        for func, name in ((ape_direct, "h=3"), (ape_plugin, "h=1")):
            with pytest.raises(SingularMomentError,
                               match=f"{name}: singular moment matrix at time 15$"):
                func(series, 3, 4, 15)
        start = start_index(series, 3, 4)
        assert start > 20
        assert ape_direct(series, 3, 4, start).ape > 0.0

    def test_too_short_series_raises(self):
        values = simulate(ArModel((0.5,), 1.0), 11, seed=1).series.values
        with pytest.raises(NoValidStartError):
            start_index(Series(values), 3, 4)

    def test_structural_bound_is_checked_before_the_table(self, monkeypatch):
        # K=200 on 300 observations: the cross-product table would hold
        # 203 cumulative rows, none of which the verdict needs.
        built = []
        table = arselect.ape._CrossProducts

        def spy(*args, **kwargs):
            built.append(args[1:])
            return table(*args, **kwargs)

        monkeypatch.setattr(arselect.ape, "_CrossProducts", spy)
        series = simulate(ArModel((0.9, -0.81), 1.0), 300, seed=1).series
        with pytest.raises(NoValidStartError, match="horizon 3 with max order 200"):
            start_index(series, 3, 200)
        for call in (lambda: family_apes(series, 3, [1, 200], 200),
                     lambda: select_predictor(series, 3, 200)):
            with pytest.raises(NoValidStartError, match="horizon 1 with max order 200"):
                call()
        assert built == []

    def test_probe_takes_only_the_windows_it_inspects(self, monkeypatch):
        # On a clean path each probe returns at its first time i, whose step
        # reads the windows up to i - h .. i + 9: 11 matrices at h=1, 13 at h=3.
        taken = []
        cond = np.linalg.cond

        def spy(matrices, *args):
            taken.append(len(matrices))
            return cond(matrices, *args)

        monkeypatch.setattr(np.linalg, "cond", spy)
        series = simulate(ArModel((0.9, -0.81), 1.0), 2000, seed=1).series
        result = select_predictor(series, 3, 4)
        assert (result.audit.start_one_step, result.audit.start) == (8, 10)
        assert sum(taken) == 24

    def test_a_run_of_zeros_takes_few_probe_steps(self, monkeypatch):
        # 200 zeros leave the windows up to time 200 singular.  After a failed
        # step the next inspects twice as many times, so each horizon's probe
        # takes five steps (11, 21, 41, 81 and 161 times), not one per eleven.
        taken = []
        cond = np.linalg.cond

        def spy(matrices, *args):
            taken.append(len(matrices))
            return cond(matrices, *args)

        monkeypatch.setattr(np.linalg, "cond", spy)
        values = np.concatenate([np.zeros(200), np.random.default_rng(0).standard_normal(1000)])
        result = select_predictor(Series(values), 3, 4)
        assert (result.audit.start_one_step, result.audit.start) == (205, 207)
        assert taken == [11, 21, 41, 81, 161, 13, 23, 43, 83, 163]

    def test_horizon_start_is_raised_before_any_fit(self):
        # The order-4 one-step fits of these values, whose cross products are
        # subnormal, fail the residual guard; a selection checks both starts
        # first, so it raises the horizon-27 start's error instead.
        series = Series(np.random.default_rng(1).standard_normal(60) * 1e-157)
        with pytest.raises(NoValidStartError,
                           match="cannot support horizon 27 with max order 4"):
            select_predictor(series, 27, 4)
        with pytest.raises(SingularMomentError, match="h=1: unreliable solve at time 20"):
            ape_direct(series, 1, 4, start_index(series, 1, 4))


class TestApeAgainstRefitOracle:
    def test_matches_naive_refit(self, path):
        values = path.series.values
        m = start_index(path.series, 3, 4)
        for k in (1, 2, 3, 4):
            for method, func in ((Method.DIRECT, ape_direct),
                                 (Method.PLUGIN, ape_plugin)):
                got = func(path.series, 3, k, m, keep_steps=True)
                want, want_errors = naive_ape(values, 3, k, m, method)
                assert abs(got.ape - want) / want < 1e-8
                assert np.max(np.abs(got.step_errors - want_errors)) < 1e-6

    def test_summand_count_and_sum_identity(self, path):
        m = start_index(path.series, 3, 4)
        n = len(path.series.values)
        res = ape_direct(path.series, 3, 2, m, keep_steps=True)
        assert res.step_errors.size == n - 3 - m + 1
        assert res.ape == float(np.sum(res.step_errors ** 2))
        assert res.ape >= 0.0

    def test_horizon_one_methods_coincide_exactly(self, path):
        m = start_index(path.series, 1, 4)
        for k in (1, 2, 3):
            a = ape_plugin(path.series, 1, k, m, keep_steps=True)
            b = ape_direct(path.series, 1, k, m, keep_steps=True)
            assert a.ape == b.ape
            assert np.array_equal(a.step_errors, b.step_errors)

    def test_prefix_sum_property(self, path):
        # truncating the series truncates the error sequence, bit for bit
        m = start_index(path.series, 3, 2)
        full = ape_direct(path.series, 3, 2, m, keep_steps=True)
        shorter = Series(path.series.values[:120])
        part = ape_direct(shorter, 3, 2, m, keep_steps=True)
        assert np.array_equal(part.step_errors,
                              full.step_errors[:part.step_errors.size])


class TestNoLeakage:
    def test_future_tampering_leaves_past_errors_alone(self, path):
        rng = np.random.default_rng(9)
        values = path.series.values
        m = start_index(path.series, 3, 4)
        cut = m + 40
        tampered = values.copy()
        tampered[cut:] = rng.normal(size=values.size - cut) * 10.0
        before = ape_direct(path.series, 3, 2, m, keep_steps=True)
        after = ape_direct(Series(tampered), 3, 2, m, keep_steps=True)
        agree = cut - 3 - m + 1  # steps whose target precedes the cut
        assert np.array_equal(before.step_errors[:agree],
                              after.step_errors[:agree])


class TestMaskedCandidates:
    def test_contiguous_masks_reproduce_dense_sums_exactly(self, path):
        m = start_index(path.series, 3, 4)
        for k in (1, 2, 3):
            mask = (1,) * k + (0,) * (4 - k)
            assert ape_direct(path.series, 3, mask, m).ape == \
                ape_direct(path.series, 3, k, m).ape
        assert ape_plugin(path.series, 3, (1, 1, 1, 1), m).ape == \
            ape_plugin(path.series, 3, 4, m).ape

    def test_gap_mask_runs_and_differs(self, path):
        m = start_index(path.series, 3, 4)
        gap = ape_direct(path.series, 3, (1, 0, 1, 0), m)
        dense = ape_direct(path.series, 3, 2, m)
        assert isinstance(gap, ApeResult)
        assert gap.ape != dense.ape


class TestCholeskyPivot:
    def test_one_window_for_two_lags_is_singular(self):
        # A documented change of behaviour.  At prefix 3 the order-2 fit has
        # one window, so its moment matrix is rank one.  The batched LU solve
        # of earlier versions solved it within its residual guard (here with
        # a zero residual) and returned an APE; the bordered solver's
        # Cholesky pivot is not positive there.
        values = np.random.default_rng(0).normal(size=20)
        table = _CrossProducts(values, 1, 2)
        moment = table.moments((0, 1), 2, range(2, 3))[0]
        rhs = np.empty((2, 1))
        table.rhs_rows((0, 1), 1, 2, range(2, 3), rhs)
        beta = np.linalg.solve(moment, rhs[:, 0])
        scale = np.abs(moment).max() * np.abs(beta).max() + np.abs(rhs).max()
        assert np.abs(moment @ beta - rhs[:, 0]).max() <= TOL_LIN * scale
        with pytest.raises(SingularMomentError,
                           match="h=1: singular moment matrix at time 3$"):
            ape_direct(Series(values), 1, 2, 3)


class TestRaiseOrder:
    def test_first_failing_sibling_in_visit_order_is_raised(self):
        # Lags (1, 3) and (2, 3) are children of the same node of the walk,
        # top lag 3 (paths (0, 1) and (0, 2)).  On this series at 1e-157 both
        # fits fail the residual guard, (1, 3) at time 9 and (2, 3) at the
        # earlier time 7, and the masks visited before them fit.  The family
        # raises (1, 3)'s message, whatever the order of the candidate list.
        series = Series(np.random.default_rng(7).standard_normal(40) * 1e-157)
        start = start_index(series, 1, 3)
        first = ("sequential direct fit h=1: unreliable solve at time 9 "
                 "(relative residual 5.298e-10)")
        later = ("sequential direct fit h=1: unreliable solve at time 7 "
                 "(relative residual 2.992e-10)")
        for mask in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)):
            ape_direct(series, 1, mask, start)
        for mask, message in (((1, 0, 1), first), ((0, 1, 1), later)):
            with pytest.raises(SingularMomentError) as info:
                ape_direct(series, 1, mask, start)
            assert str(info.value) == message
        masks = _all_masks(3)
        for candidates in (masks, masks[::-1]):
            with pytest.raises(SingularMomentError) as info:
                family_apes(series, 1, candidates, 3)
            assert str(info.value) == first
        with pytest.raises(SingularMomentError) as info:
            subset_select(series, 1, 3)
        assert str(info.value) == first


class TestStridedSeries:
    # Lag slices are read as views of the series' buffer, so a strided view
    # must behave as its contiguous copy.
    @pytest.mark.parametrize("view", [
        lambda x: np.stack([x, -x], axis=1)[:, 0],
        lambda x: np.repeat(x, 2)[::2],
        lambda x: x[::-1].copy()[::-1],
    ], ids=["column", "step-two", "reversed"])
    def test_strided_series_is_its_contiguous_copy(self, path, view):
        values = path.series.values
        strided, plain = Series(view(values)), Series(values.copy())
        m = start_index(plain, 3, 4)
        for candidate in (2, (1, 0, 1, 1)):
            for ape in (ape_direct, ape_plugin):
                got = ape(strided, 3, candidate, m, keep_steps=True)
                want = ape(plain, 3, candidate, m, keep_steps=True)
                assert got.ape == want.ape
                assert got.step_errors.tobytes() == want.step_errors.tobytes()
        assert select_predictor(strided, 3, 4) == select_predictor(plain, 3, 4)
        assert subset_select(strided, 3, 4) == subset_select(plain, 3, 4)


class TestExcess:
    def test_horizon_one_excess_subtracts_innovations(self):
        model = ArModel((0.9, -0.81), 1.0)
        sim = simulate(model, 300, seed=11)
        m = start_index(sim.series, 1, 2)
        res = ape_direct(sim.series, 1, 2, m)
        ma = ma_coefficients(model, 0)
        got = ape_excess(res, sim.innovations, ma)
        eps = sim.innovations
        n = len(sim.series.values)
        want = res.ape - float(np.sum(eps[m: n] ** 2))
        assert got == pytest.approx(want, abs=1e-9)

    def test_multi_step_excess_uses_weighted_noise(self):
        model = ArModel((0.9, -0.81), 1.0)
        sim = simulate(model, 400, seed=12)
        h = 3
        m = start_index(sim.series, h, 2)
        res = ape_direct(sim.series, h, 1, m)
        ma = ma_coefficients(model, h - 1)
        got = ape_excess(res, sim.innovations, ma)
        eps = sim.innovations
        n = len(sim.series.values)
        total = 0.0
        for i in range(m, n - h + 1):
            eta = sum(ma.b[j] * eps[i + h - 1 - j] for j in range(h))
            total += eta ** 2
        assert got == pytest.approx(res.ape - total, abs=1e-8)

    @pytest.mark.parametrize("h", range(1, 7))
    def test_oracle_noise_is_the_lfilter_filter(self, h):
        # eta is the MA weights convolved with the innovations; SciPy's
        # lfilter, the reference here, gives the same values bit for bit.
        from scipy.signal import lfilter

        rng = np.random.default_rng(600 + h)
        for _ in range(20):
            model = random_stationary_model(rng, max_order=5)
            sim = simulate(model, int(rng.integers(4 * h + 10, 300)), seed=int(rng.integers(2**32)))
            res = ape_direct(sim.series, h, 1, start_index(sim.series, h, 1))
            eps = rng.standard_normal(res.n) * rng.uniform(0.1, 10.0)
            ma = ma_coefficients(model, h - 1 + int(rng.integers(0, 3)))
            eta = lfilter(ma.b[:h], [1.0], eps)
            want = res.ape - float(np.sum(eta[np.arange(res.start, res.n - h + 1) + h - 1] ** 2))
            assert ape_excess(res, eps, ma).hex() == want.hex()

    def test_length_mismatch_rejected(self):
        model = ArModel((0.9, -0.81), 1.0)
        sim = simulate(model, 100, seed=3)
        m = start_index(sim.series, 1, 1)
        res = ape_direct(sim.series, 1, 1, m)
        with pytest.raises(LengthMismatchError):
            ape_excess(res, sim.innovations[:-5], ma_coefficients(model, 0))


class TestOverflow:
    """A finite series whose sums overflow is a numerical error, never a
    nan APE, a ``None`` choice or a failed SVD."""

    @pytest.mark.parametrize("scale", [1e153, 1e160])
    def test_overflowing_cross_products(self, scale):
        series = Series(simulate(ArModel((0.9, -0.81)), 800, seed=1).series.values * scale)
        for call in (lambda: family_apes(series, 3, [1, 2, 3, 4], 4),
                     lambda: start_index(series, 3, 4),
                     lambda: select_predictor(series, 3, 4),
                     lambda: subset_select(series, 3, 4)):
            with pytest.raises(SeriesOverflowError, match="series overflows"):
                call()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e153, 1e160, 1e200])
    def test_overflowing_whole_series_fit(self, scale):
        # Not a singular fit: a redraw of an overflowing series would not help.
        series = Series(simulate(ArModel((0.9, -0.81)), 800, seed=1).series.values * scale)
        for fit in (lambda: fit_direct(series, 3, 1), lambda: fit_plugin(series, 3, 2)):
            with pytest.raises(SeriesOverflowError, match="series overflows"):
                fit()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_errors(self):
        # Finite cross products, but one spike's forecast errors overflow,
        # and no overflow warning is printed on the way to the error.
        rng = np.random.default_rng(2)
        values = rng.standard_normal(60) * 1e153
        values[rng.integers(0, 60)] *= 10.0 ** rng.uniform(0, 3)
        with pytest.raises(SeriesOverflowError, match="accumulated prediction error"):
            family_apes(Series(values), 2, [1, 2], 2)
        # The single-candidate path forms its errors in its own error scope.
        with pytest.raises(SeriesOverflowError, match="accumulated prediction error"):
            ape_plugin(Series(values), 2, 2, 4)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_solve_scale(self):
        # The residual scale of a one-step solve overflows before the APE does.
        values = np.random.default_rng(5).standard_normal(60) * 1e152
        values[50] *= 100.0
        with pytest.raises(SeriesOverflowError, match="accumulated prediction error"):
            family_apes(Series(values), 2, [1, 2, 3], 3)

    def test_non_finite_residual_is_a_failed_solve(self):
        # One lag at two uppers, the first of them prefix time 7, with moment
        # 1e-300 and right-hand sum 1e300: the coefficient 1e600 overflows.
        # The bordering leaves the error scope to its caller, as the walks do.
        solver = dense_bordering(np.full((1, 1, 2), 1e-300), np.full((1, 1, 2), 1e300),
                                 [("sequential direct fit h=1", 7, slice(0, 2))])
        with np.errstate(all="ignore"):
            solver.descend((0,))
            with pytest.raises(SingularMomentError, match="unreliable solve at time 7"):
                solver.solve(0)

    @pytest.mark.parametrize("scale", [1.0, 1e300])
    def test_screen_leaves_an_ill_conditioned_fit_to_the_residual(self, scale):
        # Two lags with moments [[1, 1 - 2e-11], [1 - 2e-11, 1]] (condition
        # number 1.0e11) and right-hand sums (1, -1), both times ``scale``, at
        # two uppers, the first of them prefix time 7: the pivots and the
        # coefficients (about +-5e10) are finite, and the condition bound is
        # beyond the screen.  The residual test accepts the fit at scale 1,
        # and at 1e300 finds that its products overflow.
        moment = np.repeat(np.array([[[1.0], [1.0 - 2e-11]], [[1.0 - 2e-11], [1.0]]]) * scale,
                           2, axis=2)
        rhs = np.repeat(np.array([[[1.0], [-1.0]]]) * scale, 2, axis=2)
        solver = dense_bordering(moment, rhs, [("sequential direct fit h=1", 7, slice(0, 2))])
        with np.errstate(all="ignore"):
            solver.walk_to((0, 1))
        assert np.isfinite(solver.pivot).all() and (solver.pivot > 0.0).all()
        assert not solver._cleared(1, slice(0, 2))
        with np.errstate(all="ignore"):
            if scale == 1.0:
                assert np.isfinite(solver.solve(0)).all()
                return
            with pytest.raises(SingularMomentError, match="unreliable solve at time 7"):
                solver.solve(0)
