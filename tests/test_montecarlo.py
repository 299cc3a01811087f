"""Simulation harness: determinism, distributions, and the ratio table."""
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
from arselect.errors import OutOfDomainError, TooFewObservationsError
from arselect.methods import Method
from arselect.montecarlo import ThreeStepRatio

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
                              limit=three_step_excess_ratio(coeffs[1]))

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
