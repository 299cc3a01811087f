"""Simulation harness: determinism, distributions, the ratio table, and
the substreams every experiment draws its replications from."""
import math
from itertools import product

import numpy as np
import pytest

from arselect import (
    BENCHMARK_MODELS,
    REFERENCE_RATIOS,
    ArModel,
    autocovariances,
    check_ratios,
    mc_mspe,
    replicate_table1,
    selection_frequency,
    simulate,
    three_step_excess_ratio,
)
import arselect.montecarlo
from arselect.errors import OutOfDomainError, SingularMomentError, TooFewObservationsError
from arselect.estimation import Series, forecast
from arselect.methods import Method
from arselect.montecarlo import ThreeStepRatio
from arselect.selection import (
    required_masks,
    select_predictor,
    subset_select,
    theoretical_subset_losses,
)

MODEL = ArModel((0.9, -0.81), 1.0)


class TestSimulate:
    def test_deterministic_per_seed(self):
        a = simulate(MODEL, 100, seed=5)
        b = simulate(MODEL, 100, seed=5)
        c = simulate(MODEL, 100, seed=6)
        assert np.array_equal(a.series.values, b.series.values)
        assert np.array_equal(a.innovations, b.innovations)
        assert not np.array_equal(a.series.values, c.series.values)

    def test_recursion_residuals_are_exact(self):
        sim = simulate(MODEL, 400, seed=3)
        x, eps = sim.series.values, sim.innovations
        rebuilt = eps[2:] + (0.9 * x[1:-1] + (-0.81) * x[:-2])
        assert np.array_equal(x[2:], rebuilt)

    def test_zero_variance_gives_zero_path(self):
        sim = simulate(MODEL, 50, seed=1, sigma2=0.0)
        assert np.all(sim.series.values == 0.0)
        assert np.all(sim.innovations == 0.0)

    def test_marginal_moments_match_theory(self):
        sim = simulate(ArModel((0.6,), 1.0), 40000, seed=8)
        x = sim.series.values
        lag1 = float(np.mean(x[:-1] * x[1:]))
        want = autocovariances(ArModel((0.6,), 1.0), 1).value(1)
        # 3 sigma for the lag-1 moment of a long path
        assert abs(lag1 - want) < 3 * 2.0 / np.sqrt(x.size)

    def test_alternative_innovation_laws(self):
        uni = simulate(MODEL, 30000, seed=2, dist="uniform")
        assert abs(np.var(uni.innovations) - 1.0) < 0.03
        assert np.max(np.abs(uni.innovations)) <= np.sqrt(3.0) + 1e-12
        tdist = simulate(MODEL, 30000, seed=2, dist="student-t", df=12)
        assert abs(np.var(tdist.innovations) - 1.0) < 0.05
        with pytest.raises(OutOfDomainError):
            simulate(MODEL, 100, seed=2, dist="student-t", df=6)


class TestMcMspe:
    def test_methods_coincide_at_horizon_one(self):
        a = mc_mspe(MODEL, 1, 2, Method.PLUGIN, 200, 50, seed=4)
        b = mc_mspe(MODEL, 1, 2, Method.DIRECT, 200, 50, seed=4)
        assert a.mean == b.mean
        assert a.std_error == b.std_error

    def test_deterministic_and_validated(self):
        a = mc_mspe(MODEL, 3, 1, Method.DIRECT, 150, 40, seed=4)
        b = mc_mspe(MODEL, 3, 1, Method.DIRECT, 150, 40, seed=4)
        assert a.mean == b.mean
        with pytest.raises(ValueError):
            mc_mspe(MODEL, 3, 1, Method.DIRECT, 150, 1, seed=4)

    def test_masked_candidate_accepted(self):
        est = mc_mspe(MODEL, 3, (1, 0), Method.DIRECT, 150, 40, seed=4)
        assert est.candidate == (1, 0)
        assert est.mean > 0


def count_simulations(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return simulate(*args, **kwargs)

    monkeypatch.setattr(arselect.montecarlo, "simulate", spy)
    return calls


class TestRedraws:
    """Only a singular draw is redrawn; a too-short series is a
    configuration error that no fresh draw can cure."""

    def test_mc_mspe_raises_on_first_short_draw(self, monkeypatch):
        calls = count_simulations(monkeypatch)
        with pytest.raises(TooFewObservationsError):
            mc_mspe(MODEL, 3, 4, Method.DIRECT, 5, 10, seed=1)
        assert len(calls) == 1

    def test_ratio_table_raises_on_first_short_draw(self, monkeypatch):
        calls = count_simulations(monkeypatch)
        with pytest.raises(TooFewObservationsError):
            replicate_table1(n=3, reps=2, seed=0, models=BENCHMARK_MODELS[:1])
        assert len(calls) == 1


class TestRatioTable:
    def test_shape_and_limits(self):
        rows = replicate_table1(n=150, reps=60, seed=0)
        assert len(rows) == 4
        for row, coeffs in zip(rows, BENCHMARK_MODELS):
            assert row.coeffs == coeffs
            assert row.limit == three_step_excess_ratio(coeffs[1])
            assert row.ratio > 0
            assert row.std_error > 0
            # the stored mean-squared errors sit above the exact floor
            assert row.direct_mspe > row.floor
            assert row.plugin_mspe > row.floor

    def test_deterministic(self):
        a = replicate_table1(n=150, reps=40, seed=3)
        b = replicate_table1(n=150, reps=40, seed=3)
        assert [r.ratio for r in a] == [r.ratio for r in b]

    def test_reference_rows_cover_published_sample_sizes(self):
        assert set(REFERENCE_RATIOS) == {150, 300, 500, 1000}
        assert REFERENCE_RATIOS[300] == (0.688, 0.843, 1.365, 1.782)


class TestCheckRatios:
    @staticmethod
    def _row(coeffs, n, ratio, se):
        return ThreeStepRatio(coeffs=coeffs, n=n, reps=1000, direct_mspe=0.0,
                              plugin_mspe=0.0, floor=0.0, ratio=ratio,
                              std_error=se,
                              limit=three_step_excess_ratio(coeffs[1]), redraws=0)

    def test_accepts_values_near_reference(self):
        rows = [self._row(c, 300, r, 0.01) for c, r in
                zip(BENCHMARK_MODELS, REFERENCE_RATIOS[300])]
        assert check_ratios(rows) == []

    def test_flags_reference_deviation(self):
        rows = [self._row(c, 300, r, 0.001) for c, r in
                zip(BENCHMARK_MODELS, REFERENCE_RATIOS[300])]
        rows[0] = self._row(BENCHMARK_MODELS[0], 300, 0.95, 0.001)
        failures = check_ratios(rows)
        assert len(failures) >= 1
        assert "(0.9, -0.81)" in failures[0]

    def test_flags_limit_deviation_without_reference_row(self):
        # n without stored references: only the limit band applies
        good = self._row(BENCHMARK_MODELS[0], 250, 0.64, 0.001)
        bad = self._row(BENCHMARK_MODELS[0], 250, 0.80, 0.001)
        assert check_ratios([good]) == []
        assert check_ratios([bad]) != []

    def test_wide_standard_errors_relax_reference_band_only(self):
        row = self._row(BENCHMARK_MODELS[0], 300, 0.71, 0.05)
        assert check_ratios([row]) == []  # |0.71-0.688| < 3*0.05


class TestSelectionFrequency:
    def test_counts_and_optimal_set(self):
        freq = selection_frequency(MODEL, 3, 4, n=300, reps=6, seed=1)
        assert sum(freq.counts.values()) == 6
        assert freq.optimal == {(1, Method.DIRECT)}
        again = selection_frequency(MODEL, 3, 4, n=300, reps=6, seed=1)
        assert freq.counts == again.counts


def conditional_mean(coeffs, values, n, h):
    """E[x_{n+h} | x_1..x_n]: run the recursion h steps with zero noise."""
    path = list(values[:n])
    for _ in range(h):
        path.append(sum(a * path[-1 - i] for i, a in enumerate(coeffs)))
    return path[-1]


def draw(model, length, seed):
    return simulate(model, length, seed=seed).series.values


def subset_loss_loop(model, h, window, n, reps, key_of):
    """Per-mask (plug-in, direct) scaled excess losses from a plain loop."""
    plugin_req, direct_req = required_masks(model, h, window)
    sq = {}
    for rep in range(reps):
        values = draw(model, n + h, key_of(rep))
        cond = conditional_mean(model.coeffs, values, n, h)
        for bits in product((0, 1), repeat=window):
            for method, req in ((Method.PLUGIN, plugin_req), (Method.DIRECT, direct_req)):
                if any(bits) and all(b >= r for b, r in zip(bits, req)):
                    dev = forecast(Series(values[:n]), h, bits, method) - cond
                    sq.setdefault((bits, method), []).append(dev ** 2)
    return {key: n * float(np.mean(errs)) for key, errs in sq.items()}


def frequency_loop(model, h, max_order, n, reps, subset, key_of):
    counts = {}
    for rep in range(reps):
        series = Series(draw(model, n, key_of(rep)))
        if subset:
            result = subset_select(series, h, max_order)
            key = (result.mask.bits, result.method)
        else:
            result = select_predictor(series, h, max_order)
            key = (result.order, result.method)
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestSubstreams:
    """Replication r of every experiment draws from ``(*key, r, attempt)``;
    the loops below use the keys each experiment had before it shared one
    driver, so they pin that no stream moved."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 5, 2**64 - 1])
    @pytest.mark.parametrize("rep", [0, 3, 2**31])
    def test_first_attempt_is_the_two_word_key(self, seed, rep):
        a = np.random.default_rng((seed, rep)).standard_normal(8)
        b = np.random.default_rng((seed, rep, 0)).standard_normal(8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("candidate, method", [(2, Method.PLUGIN), ((1, 0, 1), Method.DIRECT)])
    def test_mc_mspe(self, candidate, method):
        n, h, reps, seed = 120, 3, 25, 4
        sq = []
        for rep in range(reps):
            values = draw(MODEL, n + h, (seed, rep, 0))
            sq.append((values[-1] - forecast(Series(values[:n]), h, candidate, method)) ** 2)
        est = mc_mspe(MODEL, h, candidate, method, n, reps, seed)
        assert est.redraws == 0
        assert est.mean == pytest.approx(np.mean(sq), rel=1e-12)
        assert est.std_error == pytest.approx(np.std(sq, ddof=1) / np.sqrt(reps), rel=1e-12)

    def test_replicate_table1(self):
        n, reps, seed = 120, 30, 2
        rows = replicate_table1(n=n, reps=reps, seed=seed)
        for index, (coeffs, row) in enumerate(zip(BENCHMARK_MODELS, rows)):
            assert row.redraws == 0
            model = ArModel(coeffs, 1.0)
            direct, plugin = [], []
            for rep in range(reps):
                values = draw(model, n + 3, (seed, index, rep, 0))
                cond = conditional_mean(coeffs, values, n, 3)
                fit = Series(values[:n])
                direct.append((forecast(fit, 3, 1, Method.DIRECT) - cond) ** 2)
                plugin.append((forecast(fit, 3, 2, Method.PLUGIN) - cond) ** 2)
            assert row.ratio == pytest.approx(np.mean(direct) / np.mean(plugin), rel=1e-12)
            assert row.direct_mspe - row.floor == pytest.approx(np.mean(direct), rel=1e-12)

    @pytest.mark.parametrize("subset", [False, True])
    def test_selection_frequency(self, subset):
        freq = selection_frequency(MODEL, 3, 3, 200, 6, 5, subset=subset)
        assert freq.redraws == 0
        assert freq.counts == frequency_loop(MODEL, 3, 3, 200, 6, subset,
                                             lambda rep: (5, rep))

    def test_theoretical_subset_losses(self):
        out = theoretical_subset_losses(MODEL, 3, 3, n=150, reps=20, seed=3)
        want = subset_loss_loop(MODEL, 3, 3, 150, 20, lambda rep: (3, rep))
        got = {(bits, method): getattr(est, f"{method.label}_loss")
               for bits, est in out.items() for method in Method
               if math.isfinite(getattr(est, f"{method.label}_loss"))}
        assert got.keys() == want.keys()
        for key, loss in want.items():
            assert got[key] == pytest.approx(loss, rel=1e-12)
        assert {est.redraws for est in out.values()} == {0}

    def test_one_singular_draw_is_one_redraw_in_every_result(self, monkeypatch):
        zero_first_draw(monkeypatch, 2, 1, 3)  # model 1 of the table, replication 3
        rows = replicate_table1(n=120, reps=5, seed=2)
        assert [row.redraws for row in rows] == [0, 1, 0, 0]

        zero_first_draw(monkeypatch, 3, 2)
        out = theoretical_subset_losses(MODEL, 3, 3, n=150, reps=5, seed=3)
        assert {est.redraws for est in out.values()} == {1}

        # An all-zero path fails the start probe, which is not redrawn, so
        # the selection itself is made singular once.
        calls = []

        def flaky(series, h, max_order):
            calls.append(series)
            if len(calls) == 2:
                raise SingularMomentError("stubbed singular draw")
            return select_predictor(series, h, max_order)

        monkeypatch.setattr(arselect.montecarlo, "select_predictor", flaky)
        assert selection_frequency(MODEL, 3, 3, 200, 4, 8).redraws == 1


def zero_first_draw(monkeypatch, *key):
    """Make the first draw of the replication keyed ``key`` (experiment key,
    then replication) the all-zero path, on which every fit is singular;
    returns the seeds drawn."""
    seeds = []

    def spy(*args, **kwargs):
        seeds.append(kwargs["seed"])
        if tuple(kwargs["seed"]) in (key, (*key, 0)):
            return simulate(*args, **kwargs, sigma2=0.0)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(arselect.montecarlo, "simulate", spy)
    return seeds


class TestSingularDrawsAreRedrawn:
    """A singular draw is redrawn from ``(seed, r, 1)`` in every experiment."""

    def test_theoretical_subset_losses(self, monkeypatch):
        seeds = zero_first_draw(monkeypatch, 3, 2)
        out = theoretical_subset_losses(MODEL, 3, 3, n=150, reps=5, seed=3)
        assert (3, 2, 1) in seeds
        want = subset_loss_loop(MODEL, 3, 3, 150, 5,
                                lambda rep: (3, rep, 1) if rep == 2 else (3, rep))
        for (bits, method), loss in want.items():
            assert getattr(out[bits], f"{method.label}_loss") == pytest.approx(loss, rel=1e-12)

    def test_selection_frequency(self, monkeypatch):
        calls = []

        def flaky(series, h, max_order):
            calls.append(series)
            if len(calls) == 3:  # replication 2, first attempt
                raise SingularMomentError("stubbed singular draw")
            return select_predictor(series, h, max_order)

        monkeypatch.setattr(arselect.montecarlo, "select_predictor", flaky)
        freq = selection_frequency(MODEL, 3, 3, 200, 5, 8)
        assert len(calls) == 6
        assert np.array_equal(calls[3].values, draw(MODEL, 200, (8, 2, 1)))
        assert freq.counts == frequency_loop(
            MODEL, 3, 3, 200, 5, False, lambda rep: (8, rep, 1) if rep == 2 else (8, rep))

    def test_mc_mspe_counts_the_redraw(self, monkeypatch):
        seeds = zero_first_draw(monkeypatch, 4, 1)
        est = mc_mspe(MODEL, 3, 2, Method.PLUGIN, 120, 4, 4)
        assert est.redraws == 1
        assert seeds == [(4, 0, 0), (4, 1, 0), (4, 1, 1), (4, 2, 0), (4, 3, 0)]
