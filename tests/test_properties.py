"""Generated-input checks that the family engine is the per-candidate path.

Selection evaluates a whole candidate family from one cross-product table,
one batched start probe and one one-step stack per candidate.  These
properties hold it to the per-candidate functions (``start_index``,
``ape_direct``, ``ape_plugin``) bit for bit, the probe to a naive
per-time probe written here, the lag-difference table to the
per-pair cumulative columns it replaced, and the bordered solver's guards
to the batched LU solver it replaced, and every fit its residual screen
clears to the residual test it skips.  Scaling a series by a power of
two scales every APE exactly, and a full mask is its dense order, in its
APEs and its whole-series forecast.  A series built from a strided or
reversed view is its contiguous copy, and rewriting the values after a
step's target leaves that step's error.  The theory report, the loss table
and the subset table's all-ones mask, which share one constants core, are
held to the standalone excess constants bit for bit, and each standalone
constant is its entry of every loss table that holds it.  Fuzzes of ``arselect mspe``, ``theory``, ``simulate``,
``replicate-table1``, ``select`` and ``bic`` hold every accepted or rejected
request to a documented exit code (and the ``mspe``, ``theory``,
``simulate`` and ``replicate-table1`` reports to strict JSON), and the ``np.loadtxt`` series
reader is held to the row-by-row reader bit for bit and message for message.
A written series, with or without innovations, reads back bit for bit.
"""
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import arselect.ape
import arselect.cli
import arselect.theory
from arselect import (
    ArModel,
    Method,
    Series,
    ape_direct,
    ape_plugin,
    direct_excess_constant,
    h_step_order,
    loss_table,
    plugin_excess_constant,
    select_predictor,
    simulate,
    start_index,
    subset_loss_table,
    subset_select,
)
from arselect.cli import main, read_series_csv, write_series_csv
from arselect.errors import (
    ArSelectError,
    NonStationaryError,
    NoValidStartError,
    SeriesOverflowError,
    SingularMomentError,
    UnderspecifiedOrderError,
)
from arselect.estimation import (
    _Bordering,
    _CrossProducts,
    fit_direct,
    fit_plugin,
    forecast,
    masked_fit_direct,
    masked_fit_plugin,
    predict_with,
)
from arselect.tolerances import COND_GUARD, TOL_LIN

from conftest import SINGULAR_GAMMA, near_unit_root_coeffs, random_stationary_model

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def stationary_series(draw, min_n=40, max_n=600):
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(min_n, max_n))
    model = random_stationary_model(np.random.default_rng(seed), max_order=4)
    return simulate(model, n, seed=seed).series


def outcome(func):
    """A call's value, or the class of the package error it raised."""
    try:
        return func()
    except ArSelectError as exc:
        return type(exc)


def per_candidate_audit(series, h, candidates, start_one, start_h, contains):
    """The audit maps rebuilt from one ``ape_*`` call per entry, in the
    order of the three steps."""
    one_step = {c: ape_direct(series, 1, c, start_one).ape for c in candidates}
    first = min(candidates, key=lambda c: (one_step[c], candidates.index(c)))
    direct = {c: ape_direct(series, h, c, start_h).ape for c in candidates}
    plugin = {c: ape_plugin(series, h, c, start_h).ape for c in candidates
              if contains(c, first)}
    return one_step, direct, plugin


def engine_audit(result):
    audit = result.audit
    return audit.one_step_direct_ape, audit.direct_ape, audit.plugin_ape


def naive_start(values, h, max_order):
    """The start probe taken one time step and one horizon at a time, with
    moment sums formed from an explicit lag matrix."""
    n, k = values.size, max_order

    def usable(i):
        for hh in {1, h}:
            rows = np.arange(k, i - hh + 1)          # one-based window ends
            lags = np.column_stack([values[rows - 1 - r] for r in range(k)])
            with np.errstate(divide="ignore", invalid="ignore"):
                cond = np.linalg.cond(lags.T @ lags)
            if not np.isfinite(cond) or cond > COND_GUARD:
                return False
        return True

    for i in range(2 * k + h - 1, n - h + 1):
        if all(usable(t) for t in range(i, min(i + 10, n - h) + 1)):
            return i
    return None


@SETTINGS
@given(series=stationary_series(), max_order=st.integers(1, 6),
       h=st.integers(1, 5))
def test_dense_audit_is_the_per_candidate_path(series, max_order, h):
    orders = list(range(1, max_order + 1))
    result = select_predictor(series, h, max_order)
    start_one = start_index(series, 1, max_order)
    start_h = start_index(series, h, max_order)
    assert (result.audit.start_one_step, result.audit.start) == (start_one, start_h)
    want = per_candidate_audit(series, h, orders, start_one, start_h,
                               lambda k, first: True)
    assert engine_audit(result) == want


@SETTINGS
@given(series=stationary_series(max_n=300), window=st.integers(1, 4),
       h=st.integers(2, 5))
def test_subset_audit_is_the_per_candidate_path(series, window, h):
    result = subset_select(series, h, window)
    masks = list(result.audit.direct_ape)
    start_one = start_index(series, 1, window)
    start_h = start_index(series, h, window)
    want = per_candidate_audit(
        series, h, masks, start_one, start_h,
        lambda big, small: all(b >= s for b, s in zip(big, small)))
    assert engine_audit(result) == want



@st.composite
def families(draw):
    """A lag window and a few distinct orders and masks on it."""
    width = draw(st.integers(1, 6))
    candidate = st.one_of(st.integers(1, width),
                          st.lists(st.integers(0, 1), min_size=1, max_size=width)
                          .filter(any).map(tuple))
    return width, draw(st.lists(candidate, min_size=1, max_size=6, unique=True))


def single_candidate_apes(series, h, candidates, width):
    """Both starts and each candidate's (one-step, direct, plug-in) APE from
    ``start_index``, ``ape_direct`` and ``ape_plugin``."""
    start_one, start_h = start_index(series, 1, width), start_index(series, h, width)
    return start_one, start_h, [(ape_direct(series, 1, c, start_one).ape,
                                 ape_direct(series, h, c, start_h).ape,
                                 ape_plugin(series, h, c, start_h).ape) for c in candidates]


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(60, 400), zeros=st.integers(0, 400),
       spike=st.none() | st.integers(1, 8), h=st.sampled_from([1, 2, 3, 5]),
       family=families())
# 54 zeros leave 17 values, and the spike at x_67 spoils the one-step
# windows up to 67 and 68, which the horizon-5 probe (to time 66) does not
# read: the one-step start 70 falls after the horizon-5 start 62.
@example(seed=42, n=71, zeros=54, spike=5, h=5, family=(3, [3, (1, 0, 1), (0, 1), 1]))
def test_family_apes_are_the_single_candidate_apes(seed, n, zeros, spike, h, family):
    # The walk reads every forecast of a candidate as a window of one stack
    # of its lag rows from min(start_one, start_h): each triple is the three
    # single-candidate APEs at the audit's starts, bit for bit, whichever
    # start comes first.  A leading run of zeros moves the starts, and a
    # spike of 1e9 near the end can move the one-step start alone.
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n)
    values[:zeros] = 0.0
    if spike is not None:
        values[n - spike] = 1e9
    series, (width, candidates) = Series(values), family
    got = outcome(lambda: arselect.ape.family_apes(series, h, candidates, width))
    want = outcome(lambda: single_candidate_apes(series, h, candidates, width))
    if isinstance(got, type):
        # The family makes every fit and sum the single calls make, and
        # one-step fits from the earlier start besides, so where it raises
        # they raise too, though not always the same error first.
        assert isinstance(want, type)
        return
    assert (got[0], got[1], got[3]) == want

@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), zeros=st.integers(0, 40),
       spike=st.none() | st.integers(0, 39), n=st.integers(40, 300),
       max_order=st.integers(1, 6), h=st.integers(1, 5))
# The spike at x_13 spoils only usable(14), exactly ten steps after the
# structural start 4: the start is 15, where a probe one step short
# would return 4.
@example(seed=1, zeros=0, spike=12, n=100, max_order=2, h=1)
# At h=14 the first step at 17 reads the windows up to 3..13 (h steps ahead)
# and 16..26 (one step), not 14 or 15.  The spike at x_13 spoils the windows
# up to 13, so only the horizon-h run pushes the start, to 28.
@example(seed=0, zeros=0, spike=12, n=60, max_order=2, h=14)
def test_start_index_is_the_naive_probe(seed, zeros, spike, n, max_order, h):
    # A leading run of zeros leaves the early moment sums singular and
    # pushes the start past its structural minimum 2K+h-1.  A spike of
    # 1e9 makes a few moment sums ill-conditioned until the next K-1
    # lags carry it too, so the forward probe must step over them.
    rng = np.random.default_rng(seed)
    values = np.concatenate([np.zeros(zeros), rng.normal(size=n)])
    if spike is not None:
        values[zeros + spike] = 1e9
    want = naive_start(values, h, max_order)
    got = outcome(lambda: start_index(Series(values), h, max_order))
    assert got == (NoValidStartError if want is None else want)
    if zeros >= 2 * max_order + h and want is not None:
        assert want > 2 * max_order + h - 1


def lu_failure_time(values, h, lags, first):
    """Where the batched-LU prefix solver failed on the direct fits of
    ``lags`` at horizon h, prefixes ``first..n-h``: the first exactly
    singular moment matrix if there is one, else the first normal-equation
    residual above tolerance, else ``None``."""
    table = _CrossProducts(values, h, lags[-1])
    offsets = [lag - 1 for lag in lags]
    uppers = range(first - h, values.size - 2 * h + 1)
    systems = table.moments(offsets, lags[-1], uppers)
    rhs = np.empty((len(offsets), len(uppers)))
    table.rhs_rows(offsets, h, lags[-1], uppers, rhs)
    rhs = rhs.T
    sol = np.empty_like(rhs)
    for t in range(len(uppers)):
        try:
            sol[t] = np.linalg.solve(systems[t], rhs[t])
        except np.linalg.LinAlgError:
            return first + t
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs(np.einsum("tij,tj->ti", systems, sol) - rhs).max(axis=1)
        scale = (np.abs(systems).max(axis=(1, 2)) * np.abs(sol).max(axis=1)
                 + np.abs(rhs).max(axis=1))
    bad = np.flatnonzero(~np.isfinite(residual)
                         | ((scale > 0.0) & (residual > TOL_LIN * scale)))
    return first + int(bad[0]) if bad.size else None


@SETTINGS
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1), zeros=st.integers(0, 40),
       spike=st.none() | st.integers(0, 39), n=st.integers(40, 300),
       lags=st.sets(st.integers(1, 6), min_size=1).map(sorted), h=st.integers(1, 5))
def test_guards_fire_where_lu_fired(data, seed, zeros, spike, n, lags, h):
    # The series of the start-probe property: leading zeros leave early
    # moment matrices singular and a spike of 1e9 leaves some badly
    # conditioned.  The bordered solver must fail at the same prefix time
    # as the batched LU solver it replaced, or succeed where it succeeded.
    # Its pivot test is a Cholesky test, so it may also fail earlier, at a
    # prefix whose moment matrix as summed is not positive definite (too
    # few windows for the lags, or a diagonal the spike's cumulative sums
    # cancel to zero); LU solved those without complaint.
    rng = np.random.default_rng(seed)
    values = np.concatenate([np.zeros(zeros), rng.normal(size=n)])
    if spike is not None:
        values[zeros + spike] = 1e9
    first = data.draw(st.integers(h + lags[-1], values.size - h))
    mask = tuple(int(lag in lags) for lag in range(1, lags[-1] + 1))
    want = lu_failure_time(values, h, tuple(lags), first)
    try:
        ape_direct(Series(values), h, mask, first)
        got = None
    except SingularMomentError as exc:
        got = int(re.search(r"at time (\d+)", str(exc)).group(1))
    if got != want:
        assert got is not None and (want is None or got < want)
        order = [lags[-1] - 1] + [lag - 1 for lag in lags[:-1]]
        moment = _CrossProducts(values, h, lags[-1]).moments(
            order, lags[-1], range(got - h, got - h + 1))[0]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(moment)


@SETTINGS
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       zeros=st.integers(0, 20), n=st.integers(40, 200),
       max_order=st.integers(1, 6), h=st.integers(2, 5))
def test_late_one_step_start_matches_per_candidate_path(data, seed, zeros, n,
                                                        max_order, h,
                                                        monkeypatch):
    # The horizon-h start can precede the one-step start near the end of a
    # short series; the probe is stubbed to place the two starts anywhere
    # in that order, so the one-step stack must begin at start_h.  Leading
    # zeros make some of those starts singular.
    rng = np.random.default_rng(seed)
    series = Series(np.concatenate([np.zeros(zeros), rng.normal(size=n)]))
    first = 2 * max_order + h - 1
    last = series.n - h
    start_h = data.draw(st.integers(first, last - 1))
    start_one = data.draw(st.integers(start_h + 1, last))
    monkeypatch.setattr(arselect.ape, "_probe",
                        lambda table, hh, k: start_one if hh == 1 else start_h)
    orders = list(range(1, max_order + 1))
    got = outcome(lambda: engine_audit(select_predictor(series, h, max_order)))
    want = outcome(lambda: per_candidate_audit(series, h, orders, start_one,
                                               start_h, lambda k, first: True))
    assert got == want


def package_outcome(func):
    """A call's value, or the class name and message of the package error it
    raised."""
    try:
        return func()
    except ArSelectError as exc:
        return type(exc).__name__, str(exc)


def check_select_is_the_per_candidate_path(series, h, width, subset):
    """A selection's audit is the per-candidate APEs bit for bit, and a
    selection that raises raises the class and message of a per-candidate
    call (the first one met can differ, since the walk visits candidates by
    top lag).  No RuntimeWarning is raised."""
    if subset:
        select, candidates = subset_select, arselect.theory._all_masks(width)
    else:
        select, candidates = select_predictor, list(range(1, width + 1))
    one_step, direct, plugin = {}, {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = package_outcome(lambda: engine_audit(select(series, h, width)))
        start_one = package_outcome(lambda: start_index(series, 1, width))
        start_h = package_outcome(lambda: start_index(series, h, width))
        for c in candidates:
            if isinstance(start_one, int):
                one_step[c] = package_outcome(lambda: ape_direct(series, 1, c, start_one).ape)
            if isinstance(start_h, int):
                direct[c] = package_outcome(lambda: ape_direct(series, h, c, start_h).ape)
                plugin[c] = package_outcome(lambda: ape_plugin(series, h, c, start_h).ape)
    calls = [start_one, start_h, *one_step.values(), *direct.values(), *plugin.values()]
    errors = [value for value in calls if isinstance(value, tuple)]
    if isinstance(got[0], str):
        assert got in errors
        return
    assert not errors
    first = min(candidates, key=lambda c: (one_step[c], candidates.index(c)))
    if subset:
        plugin = {c: ape for c, ape in plugin.items()
                  if all(b >= s for b, s in zip(c, first))}
    assert got == (one_step, direct, plugin)


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), zeros=st.integers(0, 30), n=st.integers(40, 200),
       spike=st.none() | st.tuples(st.integers(0, 39), st.integers(1, 4)),
       exponent=st.integers(150, 160), sign=st.sampled_from([1, -1]),
       max_order=st.integers(1, 4), h=st.integers(1, 4), subset=st.booleans())
def test_overflowing_series_select_as_the_per_candidate_path(seed, zeros, n, spike, exponent,
                                                             sign, max_order, h, subset):
    # Series scaled to 10^(+-150..160), where cross products, solves and
    # errors overflow or lose their low bits, with leading zeros and a spike
    # of 10^1..4.  The walk's zero-padded contractions must not turn an
    # overflow into another outcome.
    rng = np.random.default_rng(seed)
    values = np.concatenate([np.zeros(zeros), rng.standard_normal(n)])
    if spike is not None:
        values[zeros + spike[0]] *= 10.0 ** spike[1]
    check_select_is_the_per_candidate_path(Series(values * 10.0 ** (sign * exponent)), h,
                                           max_order, subset)


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), zeros=st.integers(0, 30), n=st.integers(40, 160),
       sign=st.sampled_from([None, 1, -1]), exponent=st.integers(148, 152),
       spike=st.tuples(st.integers(0, 39), st.integers(1, 4)), window=st.integers(5, 7),
       h=st.integers(1, 4))
# Every fit clears, at 10^-152; an accumulated error overflows; a fit fails
# its residual guard at time 34.
@example(seed=3, zeros=3, n=63, sign=-1, exponent=152, spike=(3, 4), window=7, h=3)
@example(seed=6, zeros=6, n=66, sign=1, exponent=150, spike=(6, 3), window=6, h=2)
@example(seed=976, zeros=26, n=147, sign=1, exponent=152, spike=(2, 2), window=7, h=3)
def test_wide_subset_select_is_the_per_candidate_path(seed, zeros, n, sign, exponent, spike,
                                                      window, h):
    # Windows of 5-7 lags, where a node of the walk has up to 6 children:
    # standard normals led by zeros, or the same scaled to 10^+-(148..152)
    # with a spike of 10^1..4, where some fits and sums fail.  The audit is
    # the per-candidate APEs bit for bit, or the selection raises what a
    # per-candidate call raises.
    rng = np.random.default_rng(seed)
    values = np.concatenate([np.zeros(zeros), rng.standard_normal(n)])
    if sign is not None:
        values[zeros + spike[0]] *= 10.0 ** spike[1]
        values *= 10.0 ** (sign * exponent)
    check_select_is_the_per_candidate_path(Series(values), h, window, subset=True)


def per_pair_columns(values, horizon, max_offset):
    """The cumulative columns of the table keyed by lag pair: one per pair
    r <= s of offsets and one per (offset, horizon) at horizons 1 and h,
    or ``None`` where the guard on their last entries fires."""
    n = values.size
    moment, rhs = {}, {}
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(max_offset):
            for r in range(s + 1):
                prod = np.zeros(n + 1)
                prod[s + 1:] = values[s - r: n - r] * values[: n - s]
                moment[(r, s)] = np.cumsum(prod)
        for hh in {1, horizon}:
            for r in range(max_offset):
                prod = np.zeros(n + 1)
                if n - hh - r > 0:
                    prod[r + 1: n - hh + 1] = values[: n - hh - r] * values[r + hh:]
                rhs[(r, hh)] = np.cumsum(prod)
    ends = [col[-1] for cols in (moment, rhs) for col in cols.values()]
    return (moment, rhs) if np.isfinite(ends).all() else None


@SETTINGS
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 400),
       max_offset=st.integers(1, 12), h=st.integers(1, 5),
       exponent=st.integers(-150, 150) | st.just(154))
def test_lag_difference_table_is_the_per_pair_table(data, seed, n, max_offset, h,
                                                      exponent):
    # 10^154 overflows some sums, so the guard must fire on the same series.
    assume(max_offset <= n)  # the per-pair table needs a product per offset
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * 10.0 ** exponent
    want = per_pair_columns(values, h, max_offset)
    got = outcome(lambda: _CrossProducts(values, h, max_offset))
    if want is None:
        assert got is SeriesOverflowError
        return
    moment, rhs = want
    offsets = tuple(data.draw(st.one_of(
        st.integers(1, max_offset).map(range),
        st.sets(st.integers(0, max_offset - 1), min_size=1).map(sorted))))
    j0 = offsets[-1] + 1
    for hh in sorted({1, h}):
        if j0 - 1 > n - hh:
            continue
        lo = data.draw(st.integers(j0 - 1, n - hh))
        uppers = range(lo, data.draw(st.integers(lo, n - hh)) + 1)
        u = np.array(uppers)
        stack = np.empty((u.size, len(offsets), len(offsets)))
        for a, r in enumerate(offsets):
            for b, s in enumerate(offsets):
                col = moment[(min(r, s), max(r, s))]
                stack[:, a, b] = col[u] - col[j0 - 1]
        right = np.column_stack([rhs[(r, hh)][u] - rhs[(r, hh)][j0 - 1]
                                 for r in offsets])
        # Bit for bit: -0.0 differs from 0.0 here.
        assert got.moments(offsets, j0, uppers).tobytes() == stack.tobytes()
        rows = np.empty((len(offsets), u.size))
        got.rhs_rows(offsets, hh, j0, uppers, rows)
        assert rows.tobytes() == np.ascontiguousarray(right.T).tobytes()
        # The walk's gather of pair entries, on drawn pairs of positions.
        left, right = (np.array(data.draw(st.lists(st.integers(0, len(offsets) - 1),
                                                   min_size=pairs, max_size=pairs)))
                       for pairs in [data.draw(st.integers(1, 12))] * 2)
        entries = np.empty((left.size, u.size))
        column = np.asarray(offsets)
        got._entries(got.pair_entries(column[left], column[right]), j0, uppers, entries)
        assert entries.tobytes() == np.ascontiguousarray(stack[:, left, right].T).tobytes()


def test_table_holds_one_row_per_lag_difference():
    values = simulate(ArModel((0.9, -0.81)), 2000, seed=1).series.values
    for h in (1, 3):
        assert _CrossProducts(values, h, 120)._table.shape == (120 + h, 2001)


@SETTINGS
@given(series=stationary_series(max_n=300), power=st.integers(-20, 40),
       h=st.integers(1, 5), max_order=st.integers(1, 4))
def test_power_of_two_scaling_scales_every_ape_exactly(series, power, h, max_order):
    scaled = Series(series.values * 2.0 ** power)
    for select in (select_predictor, subset_select):
        base = outcome(lambda: select(series, h, max_order))
        got = outcome(lambda: select(scaled, h, max_order))
        if isinstance(base, type):
            assert got is base
            continue
        assert (got.candidate, got.method) == (base.candidate, base.method)
        old, new = base.audit, got.audit
        assert (new.start_one_step, new.start) == (old.start_one_step, old.start)
        assert ((new.one_step_choice, new.direct_choice, new.plugin_choice)
                == (old.one_step_choice, old.direct_choice, old.plugin_choice))
        for was, now in zip(engine_audit(base), engine_audit(got)):
            assert now == {c: ape * 4.0 ** power for c, ape in was.items()}


@SETTINGS
@given(series=stationary_series(max_n=300), order=st.integers(1, 6),
       h=st.integers(1, 5))
def test_full_mask_is_the_dense_order(series, order, h):
    start = outcome(lambda: start_index(series, h, order))
    if isinstance(start, type):
        return
    for ape in (ape_direct, ape_plugin):
        dense = outcome(lambda: ape(series, h, order, start, keep_steps=True))
        full = outcome(lambda: ape(series, h, (1,) * order, start, keep_steps=True))
        if isinstance(dense, type):
            assert full is dense
            continue
        assert full.ape == dense.ape
        assert full.step_errors.tobytes() == dense.step_errors.tobytes()


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(20, 300), order=st.integers(1, 6),
       h=st.integers(1, 5), normals=st.booleans())
def test_full_mask_forecast_is_the_dense_order(seed, n, order, h, normals):
    # Order k, its mask 1^k and (plug-in) the mask 1^k 0 on one more lag
    # forecast bit for bit alike, and an order is predict_with of its fit.
    rng = np.random.default_rng(seed)
    series = (Series(rng.standard_normal(n)) if normals else
              simulate(random_stationary_model(rng, max_order=4), n, seed=seed).series)
    assume(n >= h + order + 2)
    for method, fit in ((Method.DIRECT, fit_direct), (Method.PLUGIN, fit_plugin)):
        dense = outcome(lambda: forecast(series, h, order, method))
        masks = [(1,) * order] + [(1,) * order + (0,)] * (method is Method.PLUGIN)
        for mask in masks:
            full = outcome(lambda: forecast(series, h, mask, method))
            assert full is dense if isinstance(dense, type) else full.hex() == dense.hex()
        if not isinstance(dense, type):
            assert dense.hex() == predict_with(series, fit(series, h, order)).hex()


@st.composite
def candidates(draw, max_lag=4):
    """An order, or a lag mask with at least one lag."""
    if draw(st.booleans()):
        return draw(st.integers(1, max_lag))
    bits = draw(st.lists(st.integers(0, 1), min_size=1, max_size=max_lag))
    assume(any(bits))
    return tuple(bits)


@SETTINGS
@given(series=stationary_series(max_n=300), stride=st.integers(1, 4), data=st.data(),
       reverse=st.booleans(), h=st.integers(1, 4), candidate=candidates())
def test_strided_series_is_its_contiguous_copy(series, stride, data, reverse, h, candidate):
    # Lag slices are read as views of a series' buffer, so a series built
    # from any strided or reversed view must behave as its contiguous copy.
    values = series.values
    offset = data.draw(st.integers(0, stride - 1))
    buffer = np.zeros(values.size * stride + offset)
    buffer[offset::stride] = values[::-1] if reverse else values
    last = offset + (values.size - 1) * stride
    view = buffer[last::-stride] if reverse else buffer[offset::stride]
    assert np.array_equal(view, values)
    strided, plain = Series(view), Series(values.copy())
    start = outcome(lambda: start_index(plain, h, 4))
    assert outcome(lambda: start_index(strided, h, 4)) == start
    if not isinstance(start, type):
        for ape in (ape_direct, ape_plugin):
            got = outcome(lambda: ape(strided, h, candidate, start, keep_steps=True))
            want = outcome(lambda: ape(plain, h, candidate, start, keep_steps=True))
            if isinstance(want, type):
                assert got is want
                continue
            assert got.ape == want.ape
            assert got.step_errors.tobytes() == want.step_errors.tobytes()
    for select in (select_predictor, subset_select):
        assert outcome(lambda: select(strided, h, 3)) == outcome(lambda: select(plain, h, 3))


@SETTINGS
@given(series=stationary_series(max_n=300), h=st.integers(1, 4), candidate=candidates(),
       data=st.data())
def test_no_step_error_sees_past_its_target(series, h, candidate, data):
    # The step at prefix i fits on x_1 .. x_i and forecasts x_{i+h}, values[i + h - 1]:
    # rewriting every value after that target leaves the steps up to prefix i.
    values = series.values
    start = outcome(lambda: start_index(series, h, 4))
    assume(not isinstance(start, type))
    prefix = data.draw(st.integers(start, values.size - h))
    tampered = values.copy()
    tampered[prefix + h:] = data.draw(arrays(np.float64, values.size - prefix - h,
                                             elements=st.floats(-1e3, 1e3)))
    kept = prefix - start + 1  # steps at prefixes start .. prefix
    for ape in (ape_direct, ape_plugin):
        before = outcome(lambda: ape(series, h, candidate, start, keep_steps=True))
        after = outcome(lambda: ape(Series(tampered), h, candidate, start, keep_steps=True))
        if isinstance(before, type) or isinstance(after, type):
            continue  # a fit singular somewhere along the series has no step errors
        assert after.step_errors[:kept].tobytes() == before.step_errors[:kept].tobytes()


def optional(flag, values):
    """Either no argument or ``flag`` with a drawn value."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def exit_code(argv):
    """``main``'s exit code, argparse usage errors included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def strict_json(text):
    """Parse a report, rejecting the NaN and infinity literals JSON lacks."""
    def reject(name):
        raise ValueError(f"not a JSON value: {name}")
    return json.loads(text, parse_constant=reject)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(coeffs=st.sampled_from(["0.9,-0.81", "0.5", "-0.5,0.2,0.1", "0.3,0.2", "1.2", "0",
                               "1.999999996,-0.9999999959999999"]),
       n=st.integers(0, 60), reps=st.integers(1, 5), horizon=st.integers(0, 5),
       burn_in=optional("--burn-in", st.integers(-1, 40)),
       candidate=st.one_of(st.integers(0, 4).map(lambda k: ["--order", str(k)]),
                           st.text("01", min_size=1, max_size=5).map(lambda m: ["--mask", m]),
                           st.sampled_from([[], ["--order", "1", "--mask", "1"]])),
       method=st.sampled_from(["plugin", "direct"]),
       dist=optional("--dist", st.sampled_from(["normal", "uniform", "student-t"])),
       df=optional("--df", st.sampled_from([5.0, 8.0, 8.5, 12.0, float("inf"), float("nan")])),
       sigma2=optional("--sigma2", st.sampled_from([1.0, 0.0, -1.0, 1e-320, 1e150, 1e300,
                                                    1e308, float("inf"), float("nan")])),
       seed=st.integers(-1, 2 ** 64))
@example(coeffs="0.9,-0.81", n=40, reps=5, horizon=3, burn_in=[], candidate=["--order", "2"],
         method="plugin", dist=[], df=[], sigma2=["--sigma2", "1e300"], seed=1)
@example(coeffs="0.5", n=10, reps=2, horizon=1, burn_in=["--burn-in", "-11"],
         candidate=["--order", "1"], method="direct", dist=[], df=[], sigma2=[], seed=1)
def test_mspe_exits_with_a_documented_code(coeffs, n, reps, horizon, burn_in, candidate,
                                           method, dist, df, sigma2, seed, capsys):
    argv = ["mspe", f"--coeffs={coeffs}", "--n", str(n), "--reps", str(reps),
            "--horizon", str(horizon), "--method", method, "--seed", str(seed),
            *burn_in, *candidate, *dist, *df, *sigma2]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = exit_code(argv)
    assert not caught
    captured = capsys.readouterr()
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in captured.err
    if code == 0:
        strict_json(captured.out)


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), h=st.integers(1, 6), data=st.data())
def test_theory_constants_are_the_standalone_constants(seed, h, data, capsys):
    model = random_stationary_model(np.random.default_rng(seed), max_order=5)
    max_order = data.draw(st.integers(model.order, 10))
    table = loss_table(model, h, max_order)
    coeffs = ",".join(repr(float(c)) for c in model.coeffs)
    assert main(["theory", f"--coeffs={coeffs}", "--sigma2", repr(model.sigma2),
                 "--horizon", str(h), "--max-order", str(max_order)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [row["order"] for row in report["per_order"]] == list(range(1, max_order + 1))
    for row in report["per_order"]:
        k = row["order"]
        for name, func, losses in (("plugin", plugin_excess_constant, table.plugin),
                                   ("direct", direct_excess_constant, table.direct)):
            expected = outcome(lambda: func(model, h, k))
            if expected is UnderspecifiedOrderError:
                assert row[f"{name}_constant"] is None
                assert losses[k] == math.inf and row[f"{name}_loss"] == "inf"
            else:
                assert row[f"{name}_constant"].hex() == expected.hex()
                assert row[f"{name}_loss"].hex() == losses[k].hex() == expected.hex()
    # Order K is the all-ones mask on window K.
    subsets = subset_loss_table(model, h, max_order)
    ones = (1,) * max_order
    assert subsets.plugin[ones].hex() == table.plugin[max_order].hex()
    assert subsets.direct[ones].hex() == table.direct[max_order].hex()


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1),
       sparse=st.sampled_from([None, (0.0, 0.5), (0.5, 1e-12), (0.9, 0.0, -0.3),
                               (0.0, 0.0, -0.6), SINGULAR_GAMMA]),
       h=st.integers(1, 6), k=st.integers(0, 8))
def test_excess_constants_are_loss_table_entries(seed, sparse, h, k):
    # Each standalone constant is order k's entry of every loss table that
    # holds it, bit for bit; below the order its method needs it raises
    # UnderspecifiedOrderError naming the lag the window misses.
    rng = np.random.default_rng(seed)
    model = (random_stationary_model(rng, max_order=5) if sparse is None
             else ArModel(sparse, float(rng.uniform(0.3, 3.0))))
    p = model.order
    for method, func in ((Method.PLUGIN, plugin_excess_constant),
                         (Method.DIRECT, direct_excess_constant)):
        if k < 1:
            with pytest.raises(ValueError, match="^order must be >= 1$"):
                func(model, h, k)
            continue
        got = package_outcome(lambda: func(model, h, k))
        tables = [package_outcome(lambda: loss_table(model, h, K))
                  for K in range(max(k, p), max(k, p) + 7)]
        # Gamma(K)'s guard fails from some K on (the double root's from 6);
        # only the tables that pass hold entries.
        passed = [table for table in tables if not isinstance(table, tuple)]
        assert all(table[0] == "SingularGammaError" for table in tables[len(passed):])
        if not passed:
            # The constant takes Gamma(max(k, p))'s guard too.
            assert got == tables[0]
            continue
        entries = {table.value(k, method) for table in passed}
        needed = p if method is Method.PLUGIN else h_step_order(model, h)
        if k < needed:
            assert entries == {math.inf}
            assert got == ("UnderspecifiedOrderError",
                           f"{method.label} constant undefined at order {k}: the window "
                           f"misses lag {needed}, which the {method.label} predictor needs")
        else:
            assert len(entries) == 1 and got.hex() == entries.pop().hex()


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(coeffs=st.sampled_from(["0.9,-0.81", "0.5", "-0.5,0.2,0.1", "0.3,0.2", "1.2", "0",
                               "0.3,0", "0.99999,0", "0,0,0,0.5",
                               ",".join(map(repr, SINGULAR_GAMMA))]),
       sigma2=optional("--sigma2", st.sampled_from([1.0, 2.5, 0.0, -1.0, 1e-320, 1e308,
                                                    float("inf"), float("nan")])),
       horizon=st.integers(-2, 6), max_order=st.integers(-1, 60),
       output=st.booleans())
def test_theory_exits_with_a_documented_code(coeffs, sigma2, horizon, max_order, output,
                                             tmp_path, capsys):
    # --max-order reaches 60: a table takes one condition number of Gamma(K)
    # and one nested pass over the orders, so a long table costs milliseconds.
    path = tmp_path / "theory.json"
    argv = ["theory", f"--coeffs={coeffs}", "--horizon", str(horizon),
            "--max-order", str(max_order), *sigma2, *(["--output", str(path)] if output else [])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = exit_code(argv)
    assert not caught
    captured = capsys.readouterr()
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in captured.err
    if code == 0:
        strict_json(path.read_text() if output else captured.out)


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["simulate", "replicate-table1"]),
       coeffs=st.sampled_from(["0.9,-0.81", "0.5", "-0.5,0.2,0.1", "1.2", "0",
                               "1.999999996,-0.9999999959999999"]),
       n=st.integers(-1, 40), reps=st.integers(0, 4),
       burn_in=optional("--burn-in", st.integers(-1, 40)),
       dist=optional("--dist", st.sampled_from(["normal", "uniform", "student-t"])),
       df=optional("--df", st.sampled_from([5.0, 8.5, 12.0, float("inf"), float("nan")])),
       sigma2=optional("--sigma2", st.sampled_from([1.0, 0.0, -1.0, 1e-320, 1e308,
                                                    float("inf"), float("nan")])),
       seed=st.integers(-1, 2 ** 70), check=st.booleans())
@example(command="simulate", coeffs="0.5", n=5, reps=0, burn_in=[], dist=["--dist", "uniform"],
         df=[], sigma2=["--sigma2", "1e308"], seed=1, check=False)
def test_simulate_and_replicate_table1_exit_with_a_documented_code(
        command, coeffs, n, reps, burn_in, dist, df, sigma2, seed, check, tmp_path, capsys):
    path = tmp_path / "series.csv"
    if command == "simulate":
        argv = ["simulate", f"--coeffs={coeffs}", "--n", str(n), "--seed", str(seed),
                *burn_in, *dist, *df, *sigma2, "--output", str(path)]
    else:  # the four benchmark models at a small n
        argv = ["replicate-table1", "--n", str(n + 20), "--reps", str(reps), "--seed", str(seed),
                *(["--check"] if check else [])]
    code = exit_code(argv)
    captured = capsys.readouterr()
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in captured.err
    if code == 0:
        strict_json(open(f"{path}.json").read() if command == "simulate" else captured.out)


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_near_unit_root_models_get_an_answer_or_a_typed_error(seed, tmp_path, capsys):
    # Roots within 1e-12 .. 1e-1 of the unit circle.  A model the
    # reflection-coefficient rule accepts simulates to finite values, and
    # its theory and MSPE answer or exit 3; a rejected one exits 2 everywhere.
    coeffs = near_unit_root_coeffs(np.random.default_rng(seed))
    accepted = outcome(lambda: ArModel(coeffs)) is not NonStationaryError
    text, p, path = ",".join(map(repr, coeffs)), len(coeffs), tmp_path / "near.csv"
    for argv, codes in (
            (["theory", f"--coeffs={text}", "--horizon", "3", "--max-order", str(p + 1)],
             {0, 3}),
            (["simulate", f"--coeffs={text}", "--n", "100", "--seed", str(seed),
              "--output", str(path)], {0}),
            (["mspe", f"--coeffs={text}", "--horizon", "3", "--order", str(p), "--method",
              "plugin", "--n", "100", "--reps", "5", "--seed", str(seed)], {0, 3})):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = exit_code(argv)
        assert not caught
        captured = capsys.readouterr()
        assert code in (codes if accepted else {2}), (argv[0], captured.err)
        assert "Traceback" not in captured.err
        if code == 0 and argv[0] == "simulate":
            assert np.isfinite(read_series_csv(str(path))[0].values).all()
        elif code == 0:
            strict_json(captured.out)


def screened_fits(patch):
    """Spy on the residual screen through ``patch``: every fit it clears is
    recorded as (moment matrices, right-hand sums, coefficients) of the
    cleared columns, with the guard messages of the same fit with the
    screen off, that is of the residual test it skipped."""
    cleared = []
    fit, screen = _Bordering.fit, _Bordering._cleared

    def spy_fit(self, horizon):
        verdicts = []

        def spy_screen(solver, k, rows):
            verdicts.append(screen(solver, k, rows))
            return verdicts[-1]

        patch.setattr(_Bordering, "_cleared", spy_screen)
        beta, faults = fit(self, horizon)
        if verdicts and verdicts[0]:
            rows, path = self.horizons[horizon][2], list(self.path)
            patch.setattr(_Bordering, "_cleared", lambda solver, k, rows: False)
            confirmed = fit(self, horizon)[1]
            moment = np.empty((len(path), len(path), self.rhs.shape[2]))
            for row, a in zip(moment, self.path):
                self._gather(a, self.path, row)
            cleared.append((moment[..., rows].transpose(2, 0, 1),
                            self.rhs[horizon][path][:, rows].T, beta.T.copy(), confirmed))
        patch.setattr(_Bordering, "_cleared", screen)
        return beta, faults

    patch.setattr(_Bordering, "fit", spy_fit)
    return cleared


@SETTINGS
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1), zeros=st.integers(0, 40),
       spike=st.none() | st.integers(0, 39), scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e4, 1e60]),
       n=st.integers(40, 300), lags=st.sets(st.integers(1, 6), min_size=1).map(sorted),
       h=st.integers(1, 5))
def test_screened_fits_pass_the_residual_guard(data, seed, zeros, spike, scale, n, lags, h,
                                               monkeypatch):
    # Leading zeros, a spike of 1e4 and a scale of the whole series; prefix
    # fits from a drawn start, and whole-series fits.  Every column the
    # screen clears has a relative normal-equation residual, taken in
    # extended precision, within TOL_LIN, and the residual test it skipped
    # finds no fault.
    rng = np.random.default_rng(seed)
    values = np.concatenate([np.zeros(zeros), rng.normal(size=n)])
    if spike is not None:
        values[zeros + spike] *= 1e4
    series = Series(values * scale)
    # Any start, or one past the zeros, from which fewer fits fail.
    last = values.size - h
    start = data.draw(st.integers(h + lags[-1], last)
                      | st.integers(min(zeros + 2 * lags[-1] + h, last), last))
    mask = tuple(int(lag in lags) for lag in range(1, lags[-1] + 1))
    with monkeypatch.context() as patch:
        cleared = screened_fits(patch)
        for call in (lambda: ape_direct(series, h, mask, start),
                     lambda: ape_plugin(series, h, mask, start),
                     lambda: masked_fit_direct(series, h, lags),
                     lambda: masked_fit_plugin(series, h, lags, lags[-1])):
            outcome(call)
    for moment, rhs, beta, confirmed in cleared:
        assert confirmed == {}
        moment, rhs, beta = (a.astype(np.longdouble) for a in (moment, rhs, beta))
        residual = np.abs(np.einsum("tij,tj->ti", moment, beta) - rhs).max(axis=1)
        size = (np.abs(moment).max(axis=(1, 2)) * np.abs(beta).max(axis=1)
                + np.abs(rhs).max(axis=1))
        assert (residual <= TOL_LIN * size).all()


def csv_outcome(path):
    """The series and innovations bits :func:`read_series_csv` returns, or
    the class and message of what it raises."""
    try:
        series, eps = read_series_csv(path)
    except Exception as exc:  # compared, not hidden
        return type(exc).__name__, str(exc)
    return series.values.tobytes(), None if eps is None else eps.tobytes()


# numpy reads "\u01fe1" as the integer 4621 and skips "\x1c" as a space;
# Python rejects both.
INDEX_TOKENS = ["+{i}", "00{i}", " {i} ", "{i}.0", "1_0", "\u0663", "\u01fe{i}",
                "99999999999999999999", "9223372036854775807", "-{i}", "", "x"]
VALUE_TOKENS = ["nan", "inf", "-Infinity", "1_0.5", "junk", " 2.5 ", '"2.5"', "", "1e400",
                "-0", ".5", "5.", "0x1p3", "2\xa0", "2\x1c", "\t3", "1e-320", '"1,5"', "\u0663"]


@st.composite
def series_files(draw):
    """Text of a series CSV: a header, then rows that are mostly well formed."""
    width = draw(st.sampled_from([2, 3]))
    header = draw(st.sampled_from(["index,x", " index , x ", "index,x,other"] if width == 2
                                  else ["index,x,eps", "index,x,eps,note"]))
    ends = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [("\ufeff" if draw(st.booleans()) else "") + header]
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                      st.floats(-1e3, 1e3).map(lambda v: f"{v:.17g}"),
                      st.sampled_from(VALUE_TOKENS))
    for i in range(1, draw(st.integers(0, 12)) + 1):
        kind = draw(st.sampled_from(["row"] * 8 + ["blank", "spaces", "short", "extra",
                                                   "quoted"]))
        index = (draw(st.sampled_from(INDEX_TOKENS)).format(i=i)
                 if draw(st.integers(0, 9)) == 0 else str(i))
        fields = [index] + [draw(value) if draw(st.integers(0, 5)) == 0
                            else repr(draw(st.floats(-1e6, 1e6))) for _ in range(width - 1)]
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        elif kind == "short":
            lines.append(",".join(fields[:-1]))
        elif kind == "extra":
            lines.append(",".join(fields + [draw(st.sampled_from(["7", "", "a b", '"q"']))]))
        elif kind == "quoted":
            lines.append(",".join(f'"{field}"' for field in fields))
        else:
            lines.append(",".join(fields))
    return ends.join(lines) + (ends if draw(st.booleans()) else "")


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=series_files())
@example(text="index,x\n")
@example(text="\ufeffindex,x\r\n1,0.5\r\n2,0.25\r\n")
@example(text='index,x\n1,0.5\n2,"0.25\n3,0.125"\n')
@example(text='index,x\n1,0.5,"note\n2,0.25,end"\n')
@example(text="index,x\n\u01fe1,0.5\n")
@example(text="index,x\n1,2\x1c\n")
@example(text="index,x\n1,0.5\n2,0." + "0" * 131_072 + "1\n")
@example(text="index,x\n9223372036854775807,0.5\n-9223372036854775808,0.25\n")
def test_loadtxt_reader_is_the_row_loop(text, tmp_path, monkeypatch):
    path = tmp_path / "series.csv"
    with open(path, "w", newline="") as handle:
        handle.write(text)
    got = csv_outcome(str(path))
    with monkeypatch.context() as patch:
        patch.setattr(arselect.cli, "_parse_body", lambda body, width: None)
        want = csv_outcome(str(path))
    assert got == want


@st.composite
def written_series(draw):
    """(values, innovations or None): a simulated path with its innovations,
    or any finite floats, subnormals and signed zeros included."""
    with_eps = draw(st.booleans())
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2 ** 32 - 1))
        model = random_stationary_model(np.random.default_rng(seed), max_order=4)
        path = simulate(model, draw(st.integers(1, 300)), seed=seed)
        return path.series.values, path.innovations if with_eps else None
    n = draw(st.integers(1, 40))
    floats = arrays(np.float64, n, elements=st.floats(allow_nan=False, allow_infinity=False))
    return draw(floats), draw(floats) if with_eps else None


@SETTINGS
@given(series=written_series())
@example(series=(np.array([-0.0, 5e-324, -1.7976931348623157e308, 0.1]),
                 np.array([0.0, -5e-324, 2.2250738585072014e-308, 1e-320])))
def test_csv_round_trip_is_bit_exact(series, tmp_path):
    values, eps = series
    path = str(tmp_path / "series.csv")
    write_series_csv(path, values, eps)
    got, got_eps = read_series_csv(path)
    assert got.values.tobytes() == values.tobytes()
    assert (got_eps is None if eps is None else got_eps.tobytes() == eps.tobytes())


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=series_files(), command=st.sampled_from(["select", "bic"]),
       horizon=st.integers(0, 3), max_order=st.integers(0, 4), subset=st.booleans())
def test_series_commands_exit_with_a_documented_code(text, command, horizon, max_order,
                                                     subset, tmp_path, capsys):
    path = tmp_path / "series.csv"
    with open(path, "w", newline="") as handle:
        handle.write(text)
    argv = [command, "--input", str(path), "--horizon", str(horizon),
            "--max-order", str(max_order), *(["--subset"] if subset and command == "select"
                                             else [])]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in capsys.readouterr().err
