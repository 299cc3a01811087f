"""Simulation harness: determinism, distributions, the ratio table, the
substreams every experiment draws its replications from, and the block
driver that draws, filters and fits them a block at a time."""
import hashlib
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

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
    subset_loss_table,
    three_step_excess_ratio,
)
import arselect.montecarlo
from arselect.errors import (
    OutOfDomainError,
    SingularMomentError,
    TooFewObservationsError,
)
from arselect.estimation import Series, forecast
from arselect.methods import Method
from arselect.montecarlo import ThreeStepRatio, _excess_deviations
from arselect.selection import select_predictor, subset_select
from arselect.theory import companion_matrix, required_masks
from arselect.tolerances import DEFAULT_BURN_IN

from conftest import ILL_CONDITIONED, exact_autocovariances, random_stationary_model

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

    @pytest.mark.parametrize("dist", ["normal", "uniform"])
    @pytest.mark.parametrize("df", [5.0, 12.0, float("inf")])
    def test_degrees_of_freedom_are_for_student_t_only(self, dist, df):
        message = f"{dist} innovations take no degrees of freedom, got df = {df}"
        with pytest.raises(OutOfDomainError, match=message):
            simulate(MODEL, 20, seed=1, dist=dist, df=df)
        with pytest.raises(OutOfDomainError, match=message):
            mc_mspe(MODEL, 3, 2, Method.PLUGIN, 60, 4, 1, dist=dist, df=df)
        with pytest.raises(OutOfDomainError, match=message):
            arselect.montecarlo._draw_innovations([1], 20, 2, 1.0, dist, df)

    @pytest.mark.parametrize("sigma2", [1e-315, 1e-300, 0.7, 1.0, 2.5, 1e300, 5.9e307])
    def test_uniform_half_width_is_sqrt_three_sigma2(self, sigma2):
        # Bit for bit wherever 3 sigma2 is finite, subnormal sigma2 included.
        want = np.random.default_rng(4).uniform(-math.sqrt(3.0 * sigma2),
                                                math.sqrt(3.0 * sigma2), 64)
        got = arselect.montecarlo._draw_innovations([4], 64, 0, sigma2, "uniform", None)[0]
        assert got.tobytes() == want.tobytes()

    def test_uniform_innovations_near_the_float_maximum(self):
        eps = simulate(ArModel((0.5,), 1.7e308), 20, seed=1, dist="uniform").innovations
        assert np.isfinite(eps).all() and np.max(np.abs(eps)) <= math.sqrt(3.0) * 1.31e154


class TestStationaryStart:
    """Every path starts from a pre-sample drawn from the stationary law."""

    def test_near_unit_root_first_value_has_the_stationary_variance(self):
        # gamma_0 = 1 / (1 - 0.999^2) = 500.25.  A zero start with a 500-step
        # burn-in gives Var(x_1) = 500.25 (1 - 0.999^1002), about 317.
        model, reps = ArModel((0.999,), 1.0), 20000
        blocks = [block for block, _ in arselect.montecarlo._replicate(
            model, 1, reps, (11,), lambda paths: (paths[:, 0], {}))]
        squares = np.concatenate(blocks) ** 2
        gamma0 = autocovariances(model, 0).value(0)
        std_error = squares.std(ddof=1) / math.sqrt(reps)
        assert abs(squares.mean() - gamma0) <= 4.0 * std_error

    def test_start_covariance_is_gamma_p(self):
        # Against autocovariances, which share the step-down, and against an
        # exact Yule-Walker solve, which does not.
        rng = np.random.default_rng(19)
        for model in [ILL_CONDITIONED] + [random_stationary_model(rng, max_order=6)
                                          for _ in range(200)]:
            root = arselect.montecarlo._stationary_root(model.coeffs)
            cov = model.sigma2 * root.T @ root
            gamma = autocovariances(model, model.order).gamma_matrix(model.order)
            assert np.allclose(cov, gamma, rtol=0.0, atol=1e-9 * gamma[0, 0])
            exact = exact_autocovariances(model.coeffs, model.sigma2, model.order - 1)
            lags = np.arange(model.order)
            want = np.array([float(g) for g in exact])[np.abs(lags[:, None] - lags)]
            assert np.max(np.abs(cov - want)) < 5e-12 * want[0, 0]

    def test_double_root_next_to_the_unit_circle_simulates(self):
        # A double root at 0.9999: kappa_1 = 1 - 5e-9, gamma_0 = 2.5e11.
        model = ArModel((1.9998, -0.99980001))
        sim = simulate(model, 200, seed=1)
        x, eps = sim.series.values, sim.innovations
        assert np.isfinite(x).all()
        assert np.array_equal(x[2:], eps[2:] + (1.9998 * x[1:-1] + (-0.99980001) * x[:-2]))

    @pytest.mark.parametrize("dist", ["normal", "uniform"])
    def test_start_normals_come_after_the_innovations(self, dist):
        # So a burn-in-500 path keeps the innovations of the zero-start simulator.
        rng = np.random.default_rng((3, 1))
        eps = (rng.standard_normal(502) if dist == "normal"
               else rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), 502))
        want = np.concatenate((eps, rng.standard_normal(2)))
        got = arselect.montecarlo._draw_innovations([(3, 1)], 502, 2, 1.0, dist, None)[0]
        assert np.array_equal(got, want)
        path = simulate(ArModel((0.9, -0.81)), 2, seed=(3, 1), burn_in=500, dist=dist)
        assert np.array_equal(path.innovations, eps[500:])

    def test_mspe_draws_n_plus_h_plus_p_per_replication(self, monkeypatch):
        sizes = []
        draw_innovations = arselect.montecarlo._draw_innovations

        def spy(seeds, *args):
            draws = draw_innovations(seeds, *args)
            sizes.extend(len(row) for row in draws)
            return draws

        monkeypatch.setattr(arselect.montecarlo, "_draw_innovations", spy)
        mc_mspe(MODEL, 3, 2, Method.PLUGIN, 500, 40, 1)
        assert sizes == [500 + 3 + 2] * 40

    def test_start_factor_is_formed_once_per_coefficient_vector(self):
        # The unit-variance factor is cached by the coefficients' bytes, and
        # each call scales it by sqrt(sigma2), the last step of forming it
        # anew: two models with equal coefficients share one factor, and these
        # paths hash as they did before the cache.
        first, second = ArModel((0.9, -0.81), 1.0), ArModel((0.9, -0.81), 2.5)
        unit = arselect.montecarlo._unit_start_factor
        assert unit(first.coeffs.tobytes()) is unit(second.coeffs.tobytes())
        root = arselect.montecarlo._stationary_root(first.coeffs)
        hankel = np.array([[0.9, -0.81], [-0.81, 0.0]])
        assert np.array_equal(arselect.montecarlo._start_factor(second),
                              math.sqrt(2.5) * (root @ hankel))
        digests = [hashlib.sha256(simulate(model, 200, seed=3).series.values.tobytes())
                   .hexdigest()[:16]
                   for model in (first, second, ArModel(first.coeffs, 2.5),
                                 ArModel(first.coeffs, 1e-300))]
        assert digests == ["b8ff4b71b6fbf49a", "69aa565983a091df", "69aa565983a091df",
                           "e0a6e3ee4e3cf8d7"]


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
    """Record the substream of every replication's draw."""
    calls = []
    draw_innovations = arselect.montecarlo._draw_innovations

    def spy(seeds, *args):
        calls.extend(map(tuple, seeds))
        return draw_innovations(seeds, *args)

    monkeypatch.setattr(arselect.montecarlo, "_draw_innovations", spy)
    return calls


class TestRedraws:
    """Only a singular draw is redrawn; a too-short series is a
    configuration error that no fresh draw can cure."""

    def test_mc_mspe_raises_on_first_short_draw(self, monkeypatch):
        calls = count_simulations(monkeypatch)
        with pytest.raises(TooFewObservationsError):
            mc_mspe(MODEL, 3, 4, Method.DIRECT, 5, 10, seed=1)
        assert calls == []

    def test_ratio_table_raises_on_first_short_draw(self, monkeypatch):
        calls = count_simulations(monkeypatch)
        with pytest.raises(TooFewObservationsError):
            replicate_table1(n=3, reps=2, seed=0, models=BENCHMARK_MODELS[:1])
        assert calls == []


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
        subset = selection_frequency(MODEL, 3, 3, n=300, reps=2, seed=1, subset=True)
        assert sum(subset.counts.values()) == 2
        assert subset.optimal == {((1, 0, 0), Method.DIRECT)}
        assert selection_frequency(MODEL, 3, 1, n=300, reps=2, seed=1,
                                   subset=True).optimal is None  # below the model order


def conditional_mean(coeffs, values, n, h):
    """E[x_{n+h} | x_1..x_n]: run the recursion h steps with zero noise."""
    path = list(values[:n])
    for _ in range(h):
        path.append(sum(a * path[-1 - i] for i, a in enumerate(coeffs)))
    return path[-1]


def draw(model, length, seed):
    return simulate(model, length, seed=seed).series.values


def required_pairs(model, h, window):
    """The (mask, method) pairs on the window whose exact loss is finite."""
    plugin_req, direct_req = required_masks(model, h, window)
    return [(bits, method) for bits in product((0, 1), repeat=window) if any(bits)
            for method, req in ((Method.PLUGIN, plugin_req), (Method.DIRECT, direct_req))
            if all(b >= r for b, r in zip(bits, req))]


def subset_losses(model, h, window, n, reps, seed):
    """(scaled excess loss per required pair, redraws) from the driver's
    squared deviations of every required pair at once."""
    pairs = required_pairs(model, h, window)
    squares, redraws = _excess_deviations(model, h, n, reps, (seed,), pairs)
    return {pair: n * float(sq.mean()) for pair, sq in zip(pairs, squares.T)}, redraws


def subset_loss_loop(model, h, window, n, reps, key_of):
    """Per-pair scaled excess losses from a plain loop."""
    sq = {}
    for rep in range(reps):
        values = draw(model, n + h, key_of(rep))
        cond = conditional_mean(model.coeffs, values, n, h)
        for bits, method in required_pairs(model, h, window):
            dev = forecast(Series(values[:n]), h, bits, method) - cond
            sq.setdefault((bits, method), []).append(dev ** 2)
    return {key: n * float(np.mean(errs)) for key, errs in sq.items()}


def frequency_loop(model, h, max_order, n, reps, subset, key_of):
    counts = {}
    for rep in range(reps):
        series = Series(draw(model, n, key_of(rep)))
        result = (subset_select if subset else select_predictor)(series, h, max_order)
        key = (result.candidate, result.method)
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

    def test_excess_deviations(self):
        got, redraws = subset_losses(MODEL, 3, 3, 150, 20, 3)
        want = subset_loss_loop(MODEL, 3, 3, 150, 20, lambda rep: (3, rep))
        assert got.keys() == want.keys()
        for key, loss in want.items():
            assert got[key] == pytest.approx(loss, rel=1e-12)
        assert redraws == 0

    def test_one_singular_draw_is_one_redraw_in_every_result(self, monkeypatch):
        zero_first_draw(monkeypatch, 2, 1, 3)  # model 1 of the table, replication 3
        rows = replicate_table1(n=120, reps=5, seed=2)
        assert [row.redraws for row in rows] == [0, 1, 0, 0]

        zero_first_draw(monkeypatch, 3, 2)
        assert subset_losses(MODEL, 3, 3, 150, 5, 3)[1] == 1

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


def default_rng_draws(seeds, size, start, sigma2, dist, df):
    """The reference block draw: one ``np.random.default_rng(seed)`` per row."""
    rows = []
    for seed in seeds:
        rng, scale = np.random.default_rng(seed), math.sqrt(sigma2)
        if dist == "normal":
            row = rng.standard_normal(size + start)
            row[:size] *= scale
            rows.append(row)
            continue
        if dist == "uniform":
            half_width = (2.0 * math.sqrt(0.75 * sigma2) if sigma2 > 1.0
                          else math.sqrt(3.0 * sigma2))
            eps = rng.uniform(-half_width, half_width, size)
        else:
            dof = 12.0 if df is None else float(df)
            eps = scale * math.sqrt((dof - 2.0) / dof) * rng.standard_t(dof, size)
        rows.append(np.concatenate((eps, rng.standard_normal(start))))
    return np.array(rows)


#: Seeds of 1, 2, 3, 4, 5, 7 and 8 entropy words.
WIDE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 7, 2**96 + 1, 2**128 + 5, 2**200 + 3, 2**224]
#: Replications of one and two words, so the attempt sits at two positions.
WIDE_REPS = [0, 5, 2**32 - 1, 2**32, 2**40 + 3]


def block_keys(key, attempt):
    """The block of keys ``(*key, rep, attempt)``, rep in ``WIDE_REPS``, that
    :func:`_replicate` draws."""
    return arselect.montecarlo._BlockKeys(
        key, arselect.montecarlo._entropy_words(key), np.array(WIDE_REPS), attempt)


#: Blocks over the keys (seed,) and (seed, 1): keys of 1 to 9 words, and
#: with the replication and the attempt, entropy widths 3 to 12.
WIDE_BLOCKS = [block_keys(key, attempt) for seed in WIDE_SEEDS
               for key, attempt in product([(seed,), (seed, 1)], (0, 3))]


class TestBlockSeeding:
    """A block's substreams are hashed at once and drawn from one generator:
    every row is still the stream of ``np.random.default_rng(seed)``."""

    def test_blocks_span_entropy_widths_three_to_twelve(self):
        widths = set()
        for block in WIDE_BLOCKS:
            lengths = block.entropy()[1].tolist()
            assert lengths == [len(arselect.montecarlo._entropy_words(key)) for key in block]
            widths.update(lengths)
        assert widths == set(range(3, 13))

    @pytest.mark.parametrize("dist, df", [("normal", None), ("uniform", None),
                                          ("student-t", 9.5), ("student-t", None)])
    @pytest.mark.parametrize("sigma2", [0.3, 1.0, 1e300])
    def test_rows_are_the_default_rng_streams(self, dist, df, sigma2):
        # Each block mixes two widths, so rows past the pool are masked apart.
        for block in WIDE_BLOCKS:
            got = arselect.montecarlo._draw_innovations(block, 40, 3, sigma2, dist, df)
            want = default_rng_draws(block, 40, 3, sigma2, dist, df)
            assert got.tobytes() == want.tobytes()

    def test_states_are_the_default_rng_states(self):
        odd = [block_keys((seed,), 1) for seed in
               [(), [1, [2, 3]], np.int64(7), (np.uint32(3), 2**40), (True, 3)]]
        for block in [*WIDE_BLOCKS, *odd]:
            states = [g.state for g in arselect.montecarlo._bit_generators(block)]
            assert states == [np.random.default_rng(key).bit_generator.state
                              for key in block], block.key

    def test_an_integer_seed_is_its_one_element_key(self):
        for dist in ("normal", "uniform"):
            a, b = (simulate(MODEL, 60, seed=seed, dist=dist) for seed in (5, (5,)))
            assert a.series.values.tobytes() == b.series.values.tobytes()
            assert a.innovations.tobytes() == b.innovations.tobytes()

    def test_no_seed_draws_fresh_entropy(self):
        a, b = (simulate(MODEL, 60, seed=None).series.values for _ in range(2))
        assert np.isfinite(a).all() and not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, (3, -1), 1.5, (3, 2.5), np.float64(2.0)])
    def test_bad_seeds_raise_as_default_rng_does(self, seed):
        with pytest.raises(Exception) as want:
            np.random.default_rng(seed)
        with pytest.raises(want.type):
            simulate(MODEL, 20, seed=seed)
        if isinstance(seed, int):
            with pytest.raises(want.type, match="expected non-negative integer"):
                mc_mspe(MODEL, 3, 2, Method.PLUGIN, 60, 4, seed)

    @pytest.mark.parametrize("seed", [1, 2**64 + 1])
    def test_results_are_those_of_one_generator_per_row(self, seed, monkeypatch):
        def run():
            return (mc_mspe(MODEL, 3, 2, Method.PLUGIN, 150, 40, seed),
                    mc_mspe(MODEL, 2, (1, 0, 1), Method.DIRECT, 80, 30, seed,
                            dist="student-t", df=10.0),
                    selection_frequency(MODEL, 3, 3, 200, 8, seed),
                    selection_frequency(MODEL, 3, 3, 150, 6, seed, subset=True))

        got = run()
        monkeypatch.setattr(arselect.montecarlo, "_draw_innovations", default_rng_draws)
        want = run()
        for a, b in zip(got[:2], want[:2]):
            assert (a.mean.hex(), a.std_error.hex(), a.redraws) == (
                b.mean.hex(), b.std_error.hex(), b.redraws)
        assert got[2:] == want[2:]


class TestLoneSeeding:
    """A lone path seeds numpy's own ``np.random.PCG64(seed)``: the block hash
    serves only :func:`_replicate`'s blocks."""

    @pytest.mark.parametrize("dist, df", [("normal", None), ("uniform", None),
                                          ("student-t", 9.5)])
    def test_a_lone_path_is_its_default_rng_draws(self, dist, df, monkeypatch):
        model, seeds, hashed = ArModel((0.9, -0.81), 2.5), [*WIDE_SEEDS, (3, 1)], []
        seed_words = arselect.montecarlo._seed_words

        def spy(keys):
            hashed.append(keys)
            return seed_words(keys)

        monkeypatch.setattr(arselect.montecarlo, "_seed_words", spy)
        got = [simulate(model, 50, seed, 7, dist, df) for seed in seeds]
        assert hashed == []
        mc_mspe(model, 1, 1, Method.PLUGIN, 20, 2, 1, dist=dist, df=df)
        assert len(hashed) == 1  # the spy sees a block's hash
        monkeypatch.setattr(arselect.montecarlo, "_draw_innovations", default_rng_draws)
        for seed, path in zip(seeds, got):
            want = simulate(model, 50, seed, 7, dist, df)
            assert path.series.values.tobytes() == want.series.values.tobytes(), seed
            assert path.innovations.tobytes() == want.innovations.tobytes(), seed

    @pytest.mark.parametrize("seed, error, match", [
        (1.5, TypeError, None), (np.float64(2.0), TypeError, None), ((3, 2.5), TypeError, None),
        ("7", TypeError, None), (-1, ValueError, "^expected non-negative integer$"),
        ((3, -1), ValueError, "^expected non-negative integer$")])
    def test_bad_seeds_keep_their_errors(self, seed, error, match):
        with pytest.raises(error, match=match):
            simulate(MODEL, 20, seed)


class TestBlockKeys:
    """A block's keys ``(*key, rep, attempt)`` hash from the key's words and
    columns for the replication and the attempt, formed as arrays."""

    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_states_are_the_default_rng_states(self, seed):
        # reps of one and two words share each block, so the attempt sits at
        # two positions and rows past the pool are masked apart.
        for key, attempt in product([(seed,), (seed, 1)], range(4)):
            block = block_keys(key, attempt)
            assert list(block) == [(*key, rep, attempt) for rep in WIDE_REPS]
            for rep, g in zip(WIDE_REPS, arselect.montecarlo._bit_generators(block)):
                assert g.state == np.random.default_rng((*key, rep, attempt)).bit_generator.state


class TestSquares:
    """A squared error is ``np.float_power(error, 2.0)``, which rounds as
    Python's scalar ``error ** 2`` (libm's ``pow``), not as ``x * x``."""

    def test_float_power_is_the_scalar_square(self):
        rng = np.random.default_rng(20261020)
        normals = rng.standard_normal(200_000)
        scaled = rng.standard_normal(60_000) * 10.0 ** rng.uniform(-150.0, 150.0, 60_000)
        # |x| from 1e-162 to 1.5e-154: squares from zero through the subnormals
        tiny = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-162.0, -153.8, 20_000)
        values = np.concatenate((normals, scaled, tiny, [0.0, -0.0]))
        assert (values ** 2 < np.finfo(float).tiny).sum() > 10_000
        want = np.array([value ** 2 for value in values.tolist()])
        assert np.float_power(values, 2.0).tobytes() == want.tobytes()
        # The array square rounds differently, so the choice is pinned.
        assert (values * values != want).any()

    def test_block_with_a_singular_row_is_the_scalar_loop(self, monkeypatch):
        n, h, reps, seed = 50, 3, 1200, 6
        pairs = [(2, Method.PLUGIN), ((1, 0, 1), Method.DIRECT), (4, Method.PLUGIN)]
        assert block_rows(n, h) > reps
        zero_first_draw(monkeypatch, seed, 5)
        got, redraws = arselect.montecarlo._squared_errors(
            MODEL, h, n, reps, (seed,), pairs, lambda block: block[:, n + h - 1])
        monkeypatch.undo()
        assert redraws == 1
        errors = []
        for rep in range(reps):
            values = draw(MODEL, n + h, (seed, rep, 1) if rep == 5 else (seed, rep))
            target = float(values[n + h - 1])
            errors.append([forecast(Series(values[:n]), h, c, m) - target for c, m in pairs])
        want = np.array([[error ** 2 for error in row] for row in errors])
        assert got.tobytes() == want.tobytes()
        assert (np.array(errors) ** 2 != want).any()  # x * x would show here


class TestExactSubsetLosses:
    @pytest.mark.parametrize("coeffs, h, window, seed", [((0.9, -0.81), 3, 4, 1),
                                                         ((0.5, -0.25), 2, 3, 2),
                                                         ((0.6, 0.0, -0.3), 3, 4, 3)])
    def test_table_tracks_simulation(self, coeffs, h, window, seed):
        # n times the mean squared deviation from the conditional mean
        # estimates each finite constant; z-gate 3 as criterion 4.
        model, n, reps = ArModel(coeffs, 1.0), 400, 1500
        table = subset_loss_table(model, h, window)
        pairs = required_pairs(model, h, window)
        assert pairs == [(bits, method) for bits in table.plugin for method in Method
                         if math.isfinite(table.value(bits, method))]
        squares, _ = _excess_deviations(model, h, n, reps, (seed,), pairs)
        for pair, sq in zip(pairs, squares.T):
            z = (n * sq.mean() - table.value(*pair)) / (n * sq.std(ddof=1) / math.sqrt(reps))
            assert abs(z) <= 3.0, (pair, z)


def zero_first_draw(monkeypatch, *key):
    """Make the first draw of the replication keyed ``key`` (experiment key,
    then replication) the all-zero path, on which every fit is singular:
    its innovations and its start normals are all zero.  Returns the seeds
    drawn."""
    seeds = []
    draw_innovations = arselect.montecarlo._draw_innovations

    def spy(block, *args):
        draws = draw_innovations(block, *args)
        for row, seed in zip(draws, block):
            seeds.append(tuple(seed))
            if tuple(seed) in (key, (*key, 0)):
                row[:] = 0.0
        return draws

    monkeypatch.setattr(arselect.montecarlo, "_draw_innovations", spy)
    return seeds


class TestSingularDrawsAreRedrawn:
    """A singular draw is redrawn from ``(seed, r, 1)`` in every experiment."""

    def test_excess_deviations(self, monkeypatch):
        seeds = zero_first_draw(monkeypatch, 3, 2)
        got = subset_losses(MODEL, 3, 3, 150, 5, 3)[0]
        assert (3, 2, 1) in seeds
        want = subset_loss_loop(MODEL, 3, 3, 150, 5,
                                lambda rep: (3, rep, 1) if rep == 2 else (3, rep))
        for key, loss in want.items():
            assert got[key] == pytest.approx(loss, rel=1e-12)

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
        # A block's first attempts come first, then its redraws.
        assert np.array_equal(calls[5].values, draw(MODEL, 200, (8, 2, 1)))
        assert freq.counts == frequency_loop(
            MODEL, 3, 3, 200, 5, False, lambda rep: (8, rep, 1) if rep == 2 else (8, rep))

    def test_mc_mspe_counts_the_redraw(self, monkeypatch):
        seeds = zero_first_draw(monkeypatch, 4, 1)
        est = mc_mspe(MODEL, 3, 2, Method.PLUGIN, 120, 4, 4)
        assert est.redraws == 1
        assert seeds == [(4, 0, 0), (4, 1, 0), (4, 2, 0), (4, 3, 0), (4, 1, 1)]


def block_rows(n, h, burn_in=DEFAULT_BURN_IN):
    """Replications per block for paths of n + h observations."""
    return max(1, arselect.montecarlo._BLOCK_ELEMENTS // (burn_in + n + h))


def mspe_loop(model, h, candidate, method, n, reps, key_of, **draw_args):
    """(mean, std_error) of ``mc_mspe`` from one ``simulate`` and one
    ``forecast`` per replication."""
    sq = []
    for rep in range(reps):
        values = simulate(model, n + h, seed=key_of(rep), **draw_args).series.values
        sq.append((values[n + h - 1] - forecast(Series(values[:n]), h, candidate, method)) ** 2)
    sq = np.array(sq)
    return float(sq.mean()), float(sq.std(ddof=1)) / math.sqrt(reps)


def deviation_loop(model, h, n, reps, key_of, pairs):
    """(reps, len(pairs)) squared deviations from the conditional mean, one
    ``simulate`` and one ``forecast`` per replication and pair."""
    cond_coeffs = np.linalg.matrix_power(companion_matrix(model.coeffs), h)[0, :]
    rows = []
    for rep in range(reps):
        values = simulate(model, n + h, seed=key_of(rep)).series.values
        cond = float(cond_coeffs @ values[n - model.order: n][::-1])
        rows.append([(forecast(Series(values[:n]), h, c, m) - cond) ** 2 for c, m in pairs])
    return np.array(rows)


def ratio_loop(coeffs, index, n, reps, seed):
    """(direct excess, plug-in excess, ratio, std_error) of one ratio-table row."""
    pairs = ((1, Method.DIRECT), (2, Method.PLUGIN))
    direct_sq, plugin_sq = deviation_loop(ArModel(coeffs, 1.0), 3, n, reps,
                                          lambda rep: (seed, index, rep), pairs).T
    dx, dy = float(direct_sq.mean()), float(plugin_sq.mean())
    ratio = dx / dy
    cov = np.cov(direct_sq, plugin_sq, ddof=1) / reps
    var = (cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio ** 2 * cov[1, 1]) / dy ** 2
    return dx, dy, ratio, math.sqrt(max(var, 0.0))


BLOCK_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])
CANDIDATES = st.one_of(st.integers(1, 3),
                       st.sampled_from([(1, 0, 1), (0, 1), (1, 0, 0, 1), (0, 1, 1), (0, 0, 1)]))


class TestBlockDriver:
    """A block of replications gives, bit for bit, what one ``simulate``
    and one ``forecast`` per replication give."""

    @BLOCK_SETTINGS
    @given(model_seed=st.integers(0, 2**32 - 1), h=st.integers(1, 5), candidate=CANDIDATES,
           method=st.sampled_from(list(Method)), n=st.integers(20, 120),
           reps=st.integers(2, 70), burn_in=st.sampled_from([0, 37, 500]),
           dist=st.sampled_from([("normal", None), ("uniform", None), ("student-t", 9.5),
                                 ("student-t", None)]),
           seed=st.integers(0, 2**40))
    def test_mc_mspe(self, model_seed, h, candidate, method, n, reps, burn_in, dist, seed):
        assume(reps % block_rows(n, h, burn_in))
        model = random_stationary_model(np.random.default_rng(model_seed), max_order=3)
        est = mc_mspe(model, h, candidate, method, n, reps, seed, burn_in=burn_in,
                      dist=dist[0], df=dist[1])
        want = mspe_loop(model, h, candidate, method, n, reps, lambda rep: (seed, rep),
                         burn_in=burn_in, dist=dist[0], df=dist[1])
        assert (est.mean, est.std_error) == want
        assert est.redraws == 0

    @BLOCK_SETTINGS
    @given(a2=st.floats(-0.9, -0.05), n=st.integers(20, 120), reps=st.integers(2, 70),
           seed=st.integers(0, 2**40))
    def test_replicate_table1(self, a2, n, reps, seed):
        assume(reps % block_rows(n, 3))
        coeffs = ((-a2) ** 0.5, a2)
        row, = replicate_table1(n=n, reps=reps, seed=seed, models=[coeffs])
        dx, dy, ratio, std_error = ratio_loop(coeffs, 0, n, reps, seed)
        assert (row.direct_mspe, row.plugin_mspe) == (row.floor + dx, row.floor + dy)
        assert (row.ratio, row.std_error, row.redraws) == (ratio, std_error, 0)

    @BLOCK_SETTINGS
    @given(model_seed=st.integers(0, 2**32 - 1), h=st.integers(1, 5), window=st.integers(1, 3),
           n=st.integers(20, 90), reps=st.integers(2, 45), seed=st.integers(0, 2**40))
    def test_excess_deviations(self, model_seed, h, window, n, reps, seed):
        assume(reps % block_rows(n, h))
        model = random_stationary_model(np.random.default_rng(model_seed), max_order=window)
        pairs = required_pairs(model, h, window)
        got, redraws = _excess_deviations(model, h, n, reps, (seed,), pairs)
        want = deviation_loop(model, h, n, reps, lambda rep: (seed, rep), pairs)
        assert np.array_equal(got, want) and redraws == 0

    def test_singular_row_in_the_middle_of_a_block(self, monkeypatch):
        n, h, reps, seed = 120, 3, 12, 4
        assert block_rows(n, h) > reps
        seeds = zero_first_draw(monkeypatch, seed, 5)
        est = mc_mspe(MODEL, h, 2, Method.PLUGIN, n, reps, seed)
        assert est.redraws == 1
        assert seeds == [(seed, rep, 0) for rep in range(reps)] + [(seed, 5, 1)]
        monkeypatch.undo()
        want = mspe_loop(MODEL, h, 2, Method.PLUGIN, n, reps,
                         lambda rep: (seed, rep, 1) if rep == 5 else (seed, rep))
        assert (est.mean, est.std_error) == want

        zero_first_draw(monkeypatch, seed, 1, 5)  # model 1 of the table
        rows = replicate_table1(n=n, reps=reps, seed=seed)
        assert [row.redraws for row in rows] == [0, 1, 0, 0]
        monkeypatch.undo()
        pairs = ((1, Method.DIRECT), (2, Method.PLUGIN))
        direct_sq, plugin_sq = deviation_loop(
            ArModel(BENCHMARK_MODELS[1], 1.0), 3, n, reps,
            lambda rep: (seed, 1, rep, 1) if rep == 5 else (seed, 1, rep), pairs).T
        assert rows[1].ratio == float(direct_sq.mean()) / float(plugin_sq.mean())

    def test_a_row_singular_on_every_attempt_raises(self, monkeypatch):
        draw_innovations = arselect.montecarlo._draw_innovations
        seeds = []

        def spy(block, *args):
            draws = draw_innovations(block, *args)
            for row, seed in zip(draws, block):
                seeds.append(tuple(seed))
                if seed[1] == 2:  # innovations and start normals alike
                    row[:] = 0.0
            return draws

        monkeypatch.setattr(arselect.montecarlo, "_draw_innovations", spy)
        with pytest.raises(SingularMomentError,
                           match=r"lags=\(1, 2\): singular moment matrix$"):
            mc_mspe(MODEL, 3, 2, Method.DIRECT, 120, 6, 4)
        assert seeds[6:] == [(4, 2, 1), (4, 2, 2), (4, 2, 3)]

    def test_memory_does_not_grow_with_reps(self):
        def peak(reps):
            mc_mspe(MODEL, 3, 2, Method.PLUGIN, 500, reps, 1)  # warm: imports, caches
            tracemalloc.start()
            try:
                mc_mspe(MODEL, 3, 2, Method.PLUGIN, 500, reps, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        reps = 2 * block_rows(500, 3)
        assert peak(10 * reps) <= 1.5 * peak(reps)


class TestBlockSize:
    """The block size sets only how many paths are held at a time: every
    estimate is bit for bit the one of blocks of 1 << 10 path values (five
    rows or fewer here), with replication 5's first draw singular and
    redrawn."""

    @staticmethod
    def at_both_sizes(monkeypatch, run):
        out = []
        for elements in (arselect.montecarlo._BLOCK_ELEMENTS, 1 << 10):
            monkeypatch.undo()
            monkeypatch.setattr(arselect.montecarlo, "_BLOCK_ELEMENTS", elements)
            zero_first_draw(monkeypatch, 6, 5)
            out.append(run())
        return out

    @pytest.mark.parametrize("candidate, method", [
        (4, Method.PLUGIN), ((1, 1, 0, 1), Method.PLUGIN), ((1, 0, 1), Method.DIRECT),
        (2, Method.DIRECT)])
    def test_mc_mspe(self, monkeypatch, candidate, method):
        reps = 2 * block_rows(200, 3) + 7  # three default blocks, the last partial
        default, small = self.at_both_sizes(
            monkeypatch, lambda: mc_mspe(MODEL, 3, candidate, method, 200, reps, 6))
        assert default.redraws == small.redraws == 1
        assert (default.mean.hex(), default.std_error.hex()) == (
            small.mean.hex(), small.std_error.hex())

    def test_subset_losses(self, monkeypatch):
        reps = block_rows(150, 3) + 40
        (default, redraws), (small, small_redraws) = self.at_both_sizes(
            monkeypatch, lambda: subset_losses(MODEL, 3, 3, 150, reps, 6))
        assert redraws == small_redraws == 1
        assert {key: value.hex() for key, value in default.items()} == {
            key: value.hex() for key, value in small.items()}

    def test_selection_frequency(self, monkeypatch):
        def select(series, h, max_order):
            if not series.values.any():  # the zeroed draw has no valid start
                raise SingularMomentError("stubbed singular draw")
            return select_predictor(series, h, max_order)

        def run():
            monkeypatch.setattr(arselect.montecarlo, "select_predictor", select)
            return selection_frequency(MODEL, 3, 3, 200, 24, 6)

        default, small = self.at_both_sizes(monkeypatch, run)
        assert default.redraws == small.redraws == 1
        assert default.counts == small.counts


class TestPinnedValues:
    """Hex values of the driver's arithmetic: the fits, the elementwise
    plug-in recursion and the forecasts' sequential lag sums.  The loops
    above share that code, so they cannot tell if it rounds differently
    (a matrix product for the recursion, a BLAS dot for the sum, an einsum
    moment); these values can.  Plug-in windows of four lags or more and
    direct masks of two lags or more are where such a change shows.  The
    cases at burn-in 500 also pin the innovation stream, which the
    stationary start (drawn after the innovations) leaves as it was; the
    others, and the ratio table, pin the start itself."""

    @pytest.mark.parametrize("coeffs, h, candidate, method, n, reps, seed, burn_in, dist, df, "
                             "mean, std_error", [
        ((0.9, -0.81), 2, (1, 1, 0, 1), "plugin", 150, 7, 5, 500, "normal", None,
         "0x1.6ca5e131ed159p-1", "0x1.c2e2315327be6p-3"),
        ((0.95,), 5, (1, 0, 0, 1), "plugin", 150, 7, 5, 37, "student-t", 9.5,
         "0x1.f10ff55aa279fp+0", "0x1.bc837b35556d7p-1"),
        ((0.9, -0.81), 3, 2, "plugin", 120, 33, 5, 500, "uniform", None,
         "0x1.a10f700ec2e7cp+0", "0x1.68de8a5701887p-2"),
        ((0.5, -0.25), 3, (1, 0, 1), "direct", 60, 70, 9, 0, "normal", None,
         "0x1.77fd90be11addp+0", "0x1.0823eb29047efp-2"),
    ])
    def test_mc_mspe(self, coeffs, h, candidate, method, n, reps, seed, burn_in, dist, df,
                     mean, std_error):
        est = mc_mspe(ArModel(coeffs, 1.0), h, candidate, Method.from_label(method), n, reps,
                      seed, burn_in=burn_in, dist=dist, df=df)
        assert (est.mean.hex(), est.std_error.hex()) == (mean, std_error)

    def test_ratio_table_and_subset_losses(self):
        row = replicate_table1(n=80, reps=45, seed=3)[2]
        assert (row.ratio.hex(), row.std_error.hex()) == (
            "0x1.03b76efdd8b09p+0", "0x1.9dbf06f43e164p-4")
        out = subset_losses(MODEL, 3, 3, 80, 45, 2)[0]
        assert (out[(1, 0, 1), Method.DIRECT].hex(), out[(1, 1, 1), Method.PLUGIN].hex()) == (
            "0x1.bf28e87879e16p+2", "0x1.85c137b48a974p+2")
