"""Generated-input checks that the family engine is the per-candidate path.

Selection evaluates a whole candidate family from one cross-product table,
one batched start probe and one one-step stack per candidate.  These
properties hold it to the per-candidate functions (``start_index``,
``ape_direct``, ``ape_plugin``) bit for bit, the probe to a naive
per-time probe written here, the lag-difference table to the
per-pair cumulative columns it replaced, and the bordered solver's guards
to the batched LU solver it replaced, and every fit its residual screen
clears to the residual test it skips.  Scaling a series by a power of
two scales every APE exactly, and a full mask is its dense order.  The
theory report and loss table, which share one table and one factor per
order, are held to the standalone excess constants bit for bit.  Fuzzes
of ``arselect mspe``, ``theory``, ``select`` and ``bic`` hold every accepted
or rejected request to a documented exit code, and the ``np.loadtxt`` series
reader is held to the row-by-row reader bit for bit and message for message.
"""
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import arselect.ape
import arselect.cli
from arselect import (
    ArModel,
    Series,
    ape_direct,
    ape_plugin,
    direct_excess_constant,
    loss_table,
    plugin_excess_constant,
    select_predictor,
    simulate,
    start_index,
    subset_select,
)
from arselect.cli import main, read_series_csv
from arselect.errors import (
    ArSelectError,
    NoValidStartError,
    SeriesOverflowError,
    SingularMomentError,
    UnderspecifiedOrderError,
)
from arselect.estimation import (
    _Bordering,
    _CrossProducts,
    _unpack,
    masked_fit_direct,
    masked_fit_plugin,
)
from arselect.tolerances import COND_GUARD, TOL_LIN

from conftest import moment_matrices, random_stationary_model

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


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), zeros=st.integers(0, 40),
       spike=st.none() | st.integers(0, 39), n=st.integers(40, 300),
       max_order=st.integers(1, 6), h=st.integers(1, 5))
# The spike at x_13 spoils only usable(14), exactly ten steps after the
# structural start 4: the start is 15, where a probe one step short
# would return 4.
@example(seed=1, zeros=0, spike=12, n=100, max_order=2, h=1)
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
    systems = moment_matrices(table, offsets, lags[-1], uppers)
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
        moment = moment_matrices(_CrossProducts(values, h, lags[-1]), order, lags[-1],
                                 range(got - h, got - h + 1))[0]
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
        assert moment_matrices(got, offsets, j0, uppers).tobytes() == stack.tobytes()
        rows = np.empty((len(offsets), u.size))
        got.rhs_rows(offsets, hh, j0, uppers, rows)
        assert rows.tobytes() == np.ascontiguousarray(right.T).tobytes()
        row, col = np.tril_indices(len(offsets))
        packed = np.empty((row.size, u.size))
        got.moment_rows(offsets, j0, uppers, packed)
        assert packed.tobytes() == np.ascontiguousarray(stack[:, row, col].T).tobytes()


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
        assert (got.order, got.mask, got.method) == (base.order, base.mask, base.method)
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


def optional(flag, values):
    """Either no argument or ``flag`` with a drawn value."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(coeffs=st.sampled_from(["0.9,-0.81", "0.5", "-0.5,0.2,0.1", "0.3,0.2", "1.2", "0"]),
       n=st.integers(0, 60), reps=st.integers(1, 5), horizon=st.integers(0, 5),
       burn_in=optional("--burn-in", st.integers(-1, 40)),
       candidate=st.one_of(st.integers(0, 4).map(lambda k: ["--order", str(k)]),
                           st.text("01", min_size=1, max_size=5).map(lambda m: ["--mask", m]),
                           st.sampled_from([[], ["--order", "1", "--mask", "1"]])),
       method=st.sampled_from(["plugin", "direct"]),
       dist=optional("--dist", st.sampled_from(["normal", "uniform", "student-t"])),
       df=optional("--df", st.sampled_from([5.0, 8.0, 8.5, 12.0, float("inf"), float("nan")])),
       seed=st.integers(-1, 2 ** 64))
def test_mspe_exits_with_a_documented_code(coeffs, n, reps, horizon, burn_in, candidate,
                                           method, dist, df, seed, capsys):
    argv = ["mspe", f"--coeffs={coeffs}", "--n", str(n), "--reps", str(reps),
            "--horizon", str(horizon), "--method", method, "--seed", str(seed),
            *burn_in, *candidate, *dist, *df]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in capsys.readouterr().err


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


# A double root at 0.99973: the Yule-Walker system passes its guard, and
# Gamma(k) fails its own from k = 6 on (exit 3).
SINGULAR_GAMMA = "1.999464406779661,-0.9994644784946853"


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(coeffs=st.sampled_from(["0.9,-0.81", "0.5", "-0.5,0.2,0.1", "0.3,0.2", "1.2", "0",
                               "0.3,0", "0.99999,0", "0,0,0,0.5", SINGULAR_GAMMA]),
       sigma2=optional("--sigma2", st.sampled_from([1.0, 2.5, 0.0, -1.0, float("inf"),
                                                    float("nan")])),
       horizon=st.integers(-2, 6), max_order=st.integers(-1, 12),
       output=st.booleans())
def test_theory_exits_with_a_documented_code(coeffs, sigma2, horizon, max_order, output,
                                             tmp_path, capsys):
    # --max-order stays at 12 or below: the condition numbers are SVDs of K x K
    # matrices, one per order, so a large K is slow rather than wrong.
    argv = ["theory", f"--coeffs={coeffs}", "--horizon", str(horizon),
            "--max-order", str(max_order), *sigma2,
            *(["--output", str(tmp_path / "theory.json")] if output else [])]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in capsys.readouterr().err


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
            cleared.append((_unpack(self.moment[:, rows], path),
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
