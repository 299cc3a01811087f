"""Selection procedure, subset variant, and the multistep BIC."""
import gc
import math
import tracemalloc

import numpy as np
import pytest

import arselect.ape
from arselect import (
    ArModel,
    Series,
    ape_direct,
    ape_plugin,
    bic_order,
    bic_values,
    select_predictor,
    simulate,
    start_index,
    subset_loss_table,
    subset_select,
)
from arselect.errors import SubsetTooLargeError
from arselect.estimation import _BorderedSolver, _resolve_candidate
from arselect.methods import Method
from arselect.theory import required_masks
from arselect.tolerances import TOL_LIN

from conftest import TEST_MODELS
from test_ape import naive_ape


@pytest.fixture(scope="module")
def path():
    # The 500-step burn-in keeps the path the golden choices were frozen on.
    return simulate(ArModel((0.9, -0.81), 1.0), 400, seed=42, burn_in=500)


def stub_family(monkeypatch, table):
    """Replace the engine's start probe and per-candidate APE hook: every
    start is 20, and a candidate's (one-step, direct, plug-in) APEs come
    from ``table``."""
    monkeypatch.setattr(arselect.ape, "_probe", lambda table_, h, max_lag: 20)
    monkeypatch.setattr(arselect.ape, "_candidate_apes",
                        lambda values, solver, candidate, h, start_one, start_h:
                        table[candidate])


def count_work(monkeypatch):
    """Record each per-candidate hook call and each horizon's prefix solve."""
    calls = {"candidates": [], "stacks": 0}
    hook, solve = arselect.ape._candidate_apes, _BorderedSolver.solve

    def spy_hook(values, solver, candidate, *args):
        calls["candidates"].append(candidate)
        return hook(values, solver, candidate, *args)

    def spy_solve(solver, horizon):
        calls["stacks"] += 1
        return solve(solver, horizon)

    monkeypatch.setattr(arselect.ape, "_candidate_apes", spy_hook)
    monkeypatch.setattr(_BorderedSolver, "solve", spy_solve)
    return calls


def lu_walk_family(table, candidates, lags, h, start_one, start_h):
    """The per-candidate engine the bordered solver replaced, for its memory
    footprint: each candidate gathers (T, m, m) moment stacks, solves them
    by batched LU, checks every residual and forms errors by fancy
    indexing; a plug-in fit is zero-embedded in its window and iterated.
    Arrays live as long as they did there (the one-step and plug-in errors
    until the candidate is done)."""
    values, n = table.values, table.values.size

    def direct(offsets, hh, i_values):
        j0 = offsets[-1] + 1
        uppers = range(i_values[0] - hh, i_values[-1] - hh + 1)
        systems = table.moments(offsets, j0, uppers)
        rhs = np.empty((len(offsets), len(uppers)))
        table.rhs_rows(offsets, hh, j0, uppers, rhs)
        rhs = rhs.T
        sol = np.linalg.solve(systems, rhs[..., None])[..., 0]
        residual = np.abs(np.einsum("tij,tj->ti", systems, sol) - rhs).max(axis=1)
        scale = (np.abs(systems).max(axis=(1, 2)) * np.abs(sol).max(axis=1)
                 + np.abs(rhs).max(axis=1))
        assert not np.flatnonzero(~np.isfinite(residual)
                                  | ((scale > 0.0) & (residual > TOL_LIN * scale))).size
        return sol

    def errors(coeffs, offsets, hh, i_values):
        lag = values[i_values[:, None] - np.asarray(offsets) - 1]
        return values[i_values + hh - 1] - np.einsum("tm,tm->t", coeffs, lag)

    def apes(candidate):
        lags, width, _ = _resolve_candidate(candidate)
        offsets = tuple(lag - 1 for lag in lags)
        lo = min(start_one, start_h)
        one = direct(offsets, 1, np.arange(lo, n))
        one_errors = errors(one, offsets, 1, np.arange(lo, n))
        one_step = float(np.sum(one_errors[start_one - lo:] ** 2))
        if h == 1:
            return one_step, one_step, one_step
        i_values = np.arange(start_h, n - h + 1)
        coeffs = one[start_h - lo: start_h - lo + i_values.size]
        if len(offsets) != width:
            coeffs = np.zeros((i_values.size, width))
            coeffs[:, list(offsets)] = one[start_h - lo: start_h - lo + i_values.size]
        vec = coeffs
        for _ in range(h - 1):
            vec, prev = vec[:, :1] * coeffs, vec
            vec[:, :-1] += prev[:, 1:]
        plugin = errors(vec, range(width), h, i_values)
        del one, coeffs, vec, prev
        direct_errors = errors(direct(offsets, h, i_values), offsets, h, i_values)
        return one_step, float(np.sum(direct_errors ** 2)), float(np.sum(plugin ** 2))

    return [apes(candidate) for candidate in candidates]


class TestDenseSelection:
    def test_golden_choice_frozen(self, path):
        result = select_predictor(path.series, 3, 4)
        assert (result.candidate, result.method) == (2, Method.PLUGIN)
        assert result.audit.one_step_choice == 2
        assert result.audit.direct_choice == 1
        assert result.audit.plugin_choice == 2

    def test_audit_values_are_the_decision_inputs(self, path):
        result = select_predictor(path.series, 3, 4)
        audit = result.audit
        m1 = start_index(path.series, 1, 4)
        mh = start_index(path.series, 3, 4)
        assert audit.start_one_step == m1
        assert audit.start == mh
        for k in range(1, 5):
            assert audit.one_step_direct_ape[k] == \
                ape_direct(path.series, 1, k, m1).ape
            assert audit.direct_ape[k] == ape_direct(path.series, 3, k, mh).ape
            assert audit.plugin_ape[k] == ape_plugin(path.series, 3, k, mh).ape

    def test_plugin_search_respects_one_step_floor(self, path):
        result = select_predictor(path.series, 3, 4)
        audit = result.audit
        assert audit.plugin_choice >= audit.one_step_choice
        restricted = {k: v for k, v in audit.plugin_ape.items()
                      if k >= audit.one_step_choice}
        assert audit.plugin_ape[audit.plugin_choice] == min(restricted.values())
        assert audit.direct_ape[audit.direct_choice] == \
            min(audit.direct_ape.values())

    def test_final_comparison_is_between_branch_minima(self, path):
        result = select_predictor(path.series, 3, 4)
        audit = result.audit
        direct_best = audit.direct_ape[audit.direct_choice]
        plugin_best = audit.plugin_ape[audit.plugin_choice]
        if result.method is Method.PLUGIN:
            assert direct_best > plugin_best
        else:
            assert direct_best <= plugin_best

    def test_horizon_one_always_direct(self, path):
        result = select_predictor(path.series, 1, 4)
        assert result.method is Method.DIRECT
        assert result.candidate == result.audit.one_step_choice

    def test_horizon_one_reuses_the_one_step_map(self, path, monkeypatch):
        calls = count_work(monkeypatch)
        audit = select_predictor(path.series, 1, 4).audit
        assert calls == {"candidates": [1, 2, 3, 4], "stacks": 4}
        start = start_index(path.series, 1, 4)
        for k in range(1, 5):
            one_step = audit.one_step_direct_ape[k]
            assert audit.direct_ape[k] == audit.plugin_ape[k] == one_step
            assert ape_plugin(path.series, 1, k, start).ape == one_step

    def test_dense_selection_solves_two_stacks_per_order(self, path,
                                                         monkeypatch):
        calls = count_work(monkeypatch)
        select_predictor(path.series, 3, 4)
        assert calls == {"candidates": [1, 2, 3, 4], "stacks": 8}

    def test_plugin_search_starts_at_the_one_step_choice(self, path,
                                                         monkeypatch):
        # Step 1 picks order 3; the unrestricted plug-in minimum is order 1.
        # Entries are (one-step, direct, plug-in) APEs.
        stub_family(monkeypatch, {1: (5.0, 10.0, 0.5), 2: (5.0, 10.0, 9.0),
                                  3: (1.0, 10.0, 8.0), 4: (2.0, 10.0, 9.0)})
        result = select_predictor(path.series, 3, 4)
        assert result.audit.one_step_choice == 3
        assert result.audit.plugin_ape == {1: 0.5, 2: 9.0, 3: 8.0, 4: 9.0}
        assert result.audit.plugin_choice == 3
        assert (result.candidate, result.method) == (3, Method.PLUGIN)

    def test_scaling_by_two_is_exactly_invariant(self, path):
        result = select_predictor(path.series, 3, 4)
        doubled = select_predictor(Series(path.series.values * 2.0), 3, 4)
        assert (doubled.candidate, doubled.method) == (result.candidate, result.method)
        for k in range(1, 5):
            assert doubled.audit.direct_ape[k] == 4.0 * result.audit.direct_ape[k]

    @pytest.mark.parametrize("index", range(len(TEST_MODELS)))
    def test_matches_refit_oracle_selector(self, index):
        # The three steps rerun on accumulated errors from full refits
        # at every time step, sharing only the start indices with the
        # package.
        series = simulate(ArModel(TEST_MODELS[index], 1.0), 150,
                          seed=(0, index)).series
        values, h, orders = series.values, 3, range(1, 5)

        def argmin(apes):
            return min(apes, key=lambda k: (apes[k], k))

        start_one = start_index(series, 1, 4)
        k_one = argmin({k: naive_ape(values, 1, k, start_one,
                                     Method.DIRECT)[0] for k in orders})
        start = start_index(series, h, 4)
        direct = {k: naive_ape(values, h, k, start, Method.DIRECT)[0]
                  for k in orders}
        plugin = {k: naive_ape(values, h, k, start, Method.PLUGIN)[0]
                  for k in orders if k >= k_one}
        k_direct, k_plugin = argmin(direct), argmin(plugin)
        want = ((k_plugin, Method.PLUGIN)
                if direct[k_direct] > plugin[k_plugin]
                else (k_direct, Method.DIRECT))

        result = select_predictor(series, h, 4)
        audit = result.audit
        assert (result.candidate, result.method) == want
        assert (audit.one_step_choice, audit.direct_choice,
                audit.plugin_choice) == (k_one, k_direct, k_plugin)


class TestSubsetSelection:
    def test_golden_choice_frozen(self, path):
        result = subset_select(path.series, 3, 4)
        assert result.candidate == (1, 0, 0, 1)
        assert result.method is Method.DIRECT
        assert result.audit.one_step_choice == (1, 1, 0, 0)

    def test_enumerates_all_nonzero_masks(self, path):
        result = subset_select(path.series, 3, 4)
        assert len(result.audit.direct_ape) == 2 ** 4 - 1
        # plug-in candidates are the masks containing the step-1 winner
        step1 = result.audit.one_step_choice
        assert all(all(s <= b for s, b in zip(step1, bits))
                   for bits in result.audit.plugin_ape)

    def test_plugin_search_keeps_to_containing_masks(self, path,
                                                    monkeypatch):
        # Step 1 picks (1, 0); the unrestricted plug-in minimum is (0, 1).
        # Entries are (one-step, direct, plug-in) APEs.
        stub_family(monkeypatch, {(0, 1): (5.0, 10.0, 0.5),
                                  (1, 0): (1.0, 10.0, 9.0),
                                  (1, 1): (3.0, 10.0, 8.0)})
        result = subset_select(path.series, 3, 2)
        assert set(result.audit.plugin_ape) == {(1, 0), (1, 1)}
        assert result.audit.plugin_choice == (1, 1)
        assert (result.candidate, result.method) == ((1, 1), Method.PLUGIN)

    def test_horizon_one_solves_one_stack_per_mask(self, path, monkeypatch):
        calls = count_work(monkeypatch)
        result = subset_select(path.series, 1, 4)
        assert calls["stacks"] == len(calls["candidates"]) == 2 ** 4 - 1
        audit = result.audit
        assert audit.direct_ape == audit.one_step_direct_ape
        step1 = audit.one_step_choice
        assert audit.plugin_ape == {
            bits: ape for bits, ape in audit.one_step_direct_ape.items()
            if all(s <= b for s, b in zip(step1, bits))}
        assert (result.candidate, result.method) == (step1, Method.DIRECT)

    def test_window_cap_enforced(self, path):
        with pytest.raises(SubsetTooLargeError):
            subset_select(path.series, 2, 13)


class TestRequiredMasks:
    def test_first_test_model(self):
        model = ArModel((0.9, -0.81), 1.0)
        plugin_req, direct_req = required_masks(model, 3, 4)
        assert plugin_req == (1, 1, 0, 0)   # both true lags
        assert direct_req == (1, 0, 0, 0)   # three-step projection is order 1

    def test_losses_infinite_off_the_required_sets(self):
        model = ArModel((0.9, -0.81), 1.0)
        table = subset_loss_table(model, 3, 3)
        assert table.plugin[(0, 1, 1)] == math.inf
        assert table.direct[(0, 1, 1)] == math.inf
        assert table.plugin[(1, 0, 0)] == math.inf  # misses lag 2
        assert math.isfinite(table.direct[(1, 0, 0)])
        assert math.isfinite(table.plugin[(1, 1, 0)])


class TestBic:
    def test_matches_hand_computation(self, path):
        values = path.series.values
        n = values.size
        h, k = 3, 2
        rows = np.arange(k, n - h + 1)
        design = np.column_stack([values[rows - 1 - r] for r in range(k)])
        target = values[rows + h - 1]
        coeffs = np.linalg.solve(design.T @ design, design.T @ target)
        rss = float(np.sum((target - design @ coeffs) ** 2))
        expect = math.log(rss / n) + k * math.log(n) / n
        assert bic_values(path.series, 3, 4)[k] == pytest.approx(expect,
                                                                 abs=1e-12)

    def test_recovers_orders_on_long_path(self):
        sim = simulate(ArModel((0.9, -0.81), 1.0), 2000, seed=9)
        assert bic_order(sim.series, 1, 4) == 2
        assert bic_order(sim.series, 3, 4) == 1

    def test_custom_penalty_changes_tradeoff(self, path):
        # a huge per-parameter price forces the smallest order
        assert bic_order(path.series, 3, 4, penalty=1e6) == 1


class TestFootprint:
    """A selection leaves no reference cycles.  Two calls peak below the
    memory of the per-candidate batched-LU engine that the bordered solver
    replaced: ``subset_select`` at window 8 (n 1000, h 3) and
    ``select_predictor`` at max order 8 (n 4000, h 5).  That bound is not a
    rule for every size: at window 6 (n 1000, h 3) the walk peaks above the
    engine."""

    def test_no_reference_cycles(self):
        series = simulate(ArModel((0.9, -0.81), 1.0), 1000, seed=1).series
        gc.collect()
        gc.disable()
        try:
            subset_select(series, 3, 6)
            select_predictor(series, 3, 8)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @staticmethod
    def traced_peak(select, series, h, width):
        """tracemalloc peak of a warm call, less what was traced before it
        (so it also holds under ``-X tracemalloc``)."""
        select(series, h, width)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            select(series, h, width)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()

    # The bound is the peak of the replaced engine, rebuilt here as
    # lu_walk_family, on the same call in the same process, so numpy's own
    # allocations count alike on both sides.  With Python 3.11.7 and numpy
    # 2.4.6 on x86-64 the engine itself peaked at 1,344,182 and 5,160,622
    # bytes.  lu_walk_family, whose moment matrices are written in place,
    # peaks at 1,364,764 and 5,160,692, and the bordered solver, whose dense
    # factor reads its moments from the table and whose candidates each
    # gather their lag rows once, at 1,292,232 and 5,013,856.
    @pytest.mark.parametrize("select, n, h, width", [
        (subset_select, 1000, 3, 8), (select_predictor, 4000, 5, 8)])
    def test_peak_memory_is_within_the_lu_engine(self, monkeypatch, select, n, h, width):
        series = simulate(ArModel((0.9, -0.81), 1.0), n, seed=1).series
        peak = self.traced_peak(select, series, h, width)
        want = select(series, h, width)
        with monkeypatch.context() as patch:
            patch.setattr(arselect.ape, "_walk_family", lu_walk_family)
            bound = self.traced_peak(select, series, h, width)
            got = select(series, h, width)
        assert (got.method, got.candidate) == (want.method, want.candidate)
        assert peak <= bound
