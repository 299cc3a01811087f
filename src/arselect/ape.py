"""Accumulated prediction errors for honestly sequential forecasts.

The APE of a candidate is the sum of squared h-step-ahead forecast
errors over the tail of the series, where the forecast at time i uses
coefficients fitted on ``x_1..x_i`` only.  The starting time ``m_h`` is
chosen once per family of candidates (see :func:`start_index`) so that
every candidate's fits are well defined over the whole summation range
and all candidates are compared on identical targets.

Candidates are either a plain order ``k`` (regress on the newest k lags)
or a 0/1 mask over a lag window (regress on the flagged lags only).
Every candidate's prefix fits come from the walk of the bordered solver of
``estimation``: :func:`family_apes` visits a whole family and
:func:`ape_direct` and :func:`ape_plugin` visit one candidate with the same
operations, so the two agree bit for bit.  One former makes every error
from one stack of the candidate's lag rows, gathered once per candidate:
the one-step forecasts read all of its columns, a direct forecast one
window of them, and a plug-in forecast iterates the one-step fit on its
own forecasts, its first step the one-step forecast itself and step s the
window s columns on.  Each walk runs in one floating-point error scope,
and every non-finite fit or sum it makes is checked where it counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LengthMismatchError, NoValidStartError, SeriesOverflowError
from .estimation import (
    Series,
    _BorderedSolver,
    _CrossProducts,
    _resolve_candidate,
    _slices,
)
from .methods import Method
from .theory import MaCoefficients
from .tolerances import COND_GUARD

__all__ = ["ApeResult", "start_index", "ape_plugin", "ape_direct", "ape_excess",
           "family_apes"]


@dataclass(frozen=True)
class ApeResult:
    """One accumulated-prediction-error statistic.

    ``candidate`` is an order (int) or a bit-mask tuple.  ``step_errors``
    is populated only when requested; when present, the squared entries
    sum exactly to ``ape`` and there are ``n - horizon - start + 1`` of
    them.
    """

    horizon: int
    candidate: int | tuple[int, ...]
    method: Method
    start: int
    ape: float
    n: int
    step_errors: np.ndarray | None = None


def start_index(series: Series, h: int, max_order: int) -> int:
    """First time from which the whole order family is safely fittable.

    Starting from the smallest i with enough windows for order
    ``max_order`` at both horizons, the one-step and horizon-h moment
    matrices must pass the conditioning guard at i and at
    ``min(10, n - h - i)`` subsequent times.  The forward probe keeps a
    single accidentally well-posed prefix from starting the sum early.
    Each probe step takes the condition numbers of the windows it inspects,
    those up to ``i - h .. i + 9`` (10 + h matrices) at the first step, and
    keeps none for the next step or the other horizon.  After a failed step
    the next inspects twice as many times, so a run of r failing times
    takes about log2(r / 10) steps (see :func:`_probe`).
    """
    if h < 1 or max_order < 1:
        raise ValueError("horizon and max_order must be >= 1")
    _probe_range(series.n, h, max_order)
    return _probe(_CrossProducts(series.values, h, max_order), h, max_order)


def _probe_range(n: int, h: int, max_order: int) -> tuple[int, int]:
    """First and last time a start may take; checked before any table is built."""
    first, last = 2 * max_order + h - 1, n - h
    if first > last:
        raise NoValidStartError(f"series of length {n} cannot support horizon {h} "
                                f"with max order {max_order}")
    return first, last


def _probe(table: _CrossProducts, h: int, max_order: int) -> int:
    """:func:`start_index` on a table of order at least ``max_order``.

    Time t passes if the order-``max_order`` moment matrices of the windows
    up to t - 1 (one step ahead) and t - h (h steps ahead) pass the
    conditioning guard, and the start is the first time that passes with
    its next ten times (those up to ``last``).  A step inspects the times
    i..end, the windows up to i - h .. end - 1, and returns the first time
    whose eleven times (up to ``last``) lie in the step and pass; no earlier
    time can start, since each has a failing time among its own.  Otherwise
    the next step starts past the last failing time and inspects twice as
    many times: i..i + 10 at first, then 21, 41, ... times.
    """
    first, last = _probe_range(table.values.size, h, max_order)
    i, span = first, 10
    while i <= last:
        end = min(i + span, last)
        # ok[u - i + h] is the verdict of the windows up to u, for u = i - h .. end - 1.
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.linalg.cond(table.moments(range(max_order), max_order,
                                                range(i - h, end)))
        ok = np.isfinite(cond) & (cond <= COND_GUARD)
        steps = np.arange(end - i + 1)
        bad = np.flatnonzero(~(ok[steps + h - 1] & ok[steps]))
        if not bad.size or bad[0] >= 11:
            return i
        # The passing times after each failing one, up to the next or past end.
        runs = np.diff(bad, append=end - i + 1) - 1
        clean = np.flatnonzero(runs >= 11)
        if clean.size:
            return i + int(bad[clean[0]]) + 1
        i += int(bad[-1]) + 1
        if end == last and runs[-1]:
            return i
        span *= 2
    raise NoValidStartError(
        f"no time in [{first}, {last}] passes the well-definedness probe")


def _apes(errors: np.ndarray, squares: np.ndarray) -> list[float]:
    """Sum of squared errors of each row of ``errors`` (each the pairwise sum
    of a 1-D row), checked in row order: one that overflows is an error, not
    an APE.  ``squares`` (``errors`` itself, say) takes the squares; the
    caller ignores the overflow of a square in its error scope."""
    apes = np.add.reduce(np.square(errors, out=squares), axis=1).tolist()
    for ape in apes:
        if not math.isfinite(ape):
            raise SeriesOverflowError(
                f"series overflows: an accumulated prediction error is {ape}")
    return apes


def _lag_rows(values: np.ndarray, lags: Sequence[int], lo: int) -> np.ndarray:
    """(k, n - lo) stack of a candidate's lag rows, gathered once: column c
    of row j is ``x_{i+1-lags[j]}``, lag ``lags[j]`` of the prefix
    ``x_1..x_i``, i = lo + c.  Every forecast of the candidate from prefix
    ``lo`` on reads a window of its columns (see :func:`_forecast`)."""
    return _slices(values, values.size - lo)[np.subtract(lo, lags)]


def _forecast(rows: np.ndarray, coeffs: np.ndarray, lags: Sequence[int], steps: int,
              offset: int, lead: np.ndarray | None = None) -> np.ndarray:
    """Forecasts of per-prefix coefficients on ``lags`` (one row each), column t
    applied to column ``offset + t`` of the candidate's :func:`_lag_rows` and
    then to its own forecasts, ``steps`` times in all: one step for a direct
    fit, h for a plug-in one-step fit (its companion matrix, with zeros for
    the lags it leaves out, applied h-1 times).  Step s writes its earlier
    forecasts into the rows of lags up to s of the window of ``rows`` at
    ``offset + s`` and then reads that window.  A later step writes each
    such row again before it reads it, so every step reads the series where
    its lags reach the series; afterwards the rows of lags below ``steps`` no
    longer hold the series.  ``lead``, if given, is the first step's
    forecasts: the one-step forecasts of the same coefficients."""
    width = coeffs.shape[1]
    forecasts = [] if lead is None else [lead]  # forecasts[s] is of x_{i+h-steps+s+1}
    for step in range(len(forecasts), steps):
        known = rows[:, offset + step: offset + step + width]
        for j, lag in enumerate(lags):
            if lag <= step:
                known[j] = forecasts[step - lag]
        forecasts.append(np.einsum("jt,jt->t", coeffs, known))
    return forecasts[-1]


def _accumulate(series: Series, h: int, candidate, start: int,
                method: Method, keep_steps: bool) -> ApeResult:
    lags, _, label = _resolve_candidate(candidate)
    n = series.n
    if start < h + lags[-1]:
        raise ValueError(
            f"start {start} is before the first well-defined fit "
            f"(needs >= {h + lags[-1]})")
    if start > n - h:
        raise ValueError(f"start {start} leaves no targets in a series of length {n}")
    direct = method is Method.DIRECT
    values = series.values
    solver = _BorderedSolver(_CrossProducts(values, h, lags[-1]), lags[-1],
                             [(h if direct else 1, start, n - h)])
    with np.errstate(all="ignore"):
        for _ in solver.visit([lags]):
            coeffs = solver.solve(0)
        errors = values[start + h - 1:] - _forecast(_lag_rows(values, solver.lags, start),
                                                    coeffs, solver.lags, 1 if direct else h, 0)
        ape = _apes(errors[None], np.empty((1, errors.size)))[0]
    return ApeResult(horizon=h, candidate=label, method=method, start=start, ape=ape, n=n,
                     step_errors=errors if keep_steps else None)


def ape_direct(series: Series, h: int, candidate, start: int,
               keep_steps: bool = False) -> ApeResult:
    """APE of the direct predictor for one order or mask.

    Each prefix fit is a bordered Cholesky solve, so a prefix whose moment
    matrix, as summed, is not positive definite (one window for two lags,
    say) raises :class:`SingularMomentError` at its time.
    """
    return _accumulate(series, h, candidate, start, Method.DIRECT, keep_steps)


def ape_plugin(series: Series, h: int, candidate, start: int,
               keep_steps: bool = False) -> ApeResult:
    """APE of the plug-in predictor for one order or mask.

    Its one-step prefix fits raise as those of :func:`ape_direct` do.
    """
    return _accumulate(series, h, candidate, start, Method.PLUGIN, keep_steps)


def _candidate_apes(values: np.ndarray, solver: _BorderedSolver, candidate, h: int,
                    start_one: int, start_h: int) -> tuple[float, float, float]:
    """(one-step, direct, plug-in) APE of the candidate the walk of
    ``solver`` has just descended to.

    Every forecast reads the candidate's lag rows from
    ``min(start_one, start_h)`` on, gathered once (:func:`_lag_rows`).  The
    one-step rows, solved from that time, give the one-step forecasts and,
    sliced at ``start_h``, the plug-in forecasts, whose first step is the
    one-step forecast; the one-step errors then overwrite their forecasts,
    and the rows the plug-in's steps wrote into are gathered again.  At h=1
    the one-step APE is all three.  The direct rows are solved last, and the
    direct and plug-in sums are one reduction.  Errors are raised in the
    order of the per-candidate calls: the one-step fit and APE, then the
    direct fit and APE, then the plug-in APE.
    """
    lags, n = solver.lags, values.size
    lo = min(start_one, start_h)
    one = solver.solve(0)
    rows = _lag_rows(values, lags, lo)
    ahead = np.einsum("jt,jt->t", one, rows)  # of x_{i+1}, i = lo..n-1
    if h > 1:
        cut = slice(start_h - lo, n - h + 1 - lo)
        targets = values[start_h + h - 1:]
        errors = np.empty((2, targets.size))  # direct, plug-in
        np.subtract(targets, _forecast(rows, one[:, cut], lags, h, cut.start, ahead[cut]),
                    out=errors[1])
        for j, lag in enumerate(lags):
            if lag < h:
                rows[j] = values[lo - lag: n - lag]
    one_step = ahead[None, start_one - lo:]
    np.subtract(values[start_one:], one_step, out=one_step)
    one_step = _apes(one_step, one_step)[0]
    if h == 1:
        return one_step, one_step, one_step
    direct = np.einsum("jt,jt->t", solver.solve(1), rows[:, cut], out=errors[0])
    np.subtract(targets, direct, out=direct)
    return (one_step, *_apes(errors, errors))


def _walk_family(table: _CrossProducts, candidates: Sequence, lags: Sequence, h: int,
                 start_one: int, start_h: int) -> list[tuple[float, float, float]]:
    """Every candidate's (one-step, direct, plug-in) APE from one solver, given
    each candidate's lags.

    The candidates are taken one at a time in the order of the solver's
    visit, and errors are raised in that order, as soon as a candidate's
    fits or sums fail; the solver's columns serve the one-step fits on
    prefixes ``min(start_one, start_h)..n-1`` and, at h > 1, the direct fits
    on ``start_h..n-h``.  The walk holds the state of the current path only
    (see ``estimation._Bordering``), and runs in one error scope: every
    non-finite value it makes is checked where it matters.
    """
    n = table.values.size
    spans = [(1, min(start_one, start_h), n - 1)]
    if h > 1:
        spans.append((h, start_h, n - h))
    solver = _BorderedSolver(table, max(top[-1] for top in lags), spans)
    apes: list = [None] * len(candidates)
    with np.errstate(all="ignore"):
        for index in solver.visit(lags):
            apes[index] = _candidate_apes(table.values, solver, candidates[index], h,
                                          start_one, start_h)
    return apes


def family_apes(series: Series, h: int, candidates: Sequence, max_lag: int
                ) -> tuple[int, int, list[tuple[int, ...]], list[tuple[float, float, float]]]:
    """Both start indices, every candidate's lags and every candidate's
    (one-step, direct, plug-in) APE, from one cross-product table.

    The starts are :func:`start_index` at horizons 1 and h with order
    ``max_lag``.  Errors are raised in this order: the one-step start, the
    horizon-h start, a candidate that does not resolve, then each
    candidate's fits in the walk's top-lag order (see :func:`_walk_family`).
    """
    _probe_range(series.n, 1, max_lag)
    table = _CrossProducts(series.values, h, max_lag)
    start_one = _probe(table, 1, max_lag)
    start_h = start_one if h == 1 else _probe(table, h, max_lag)
    lags = [_resolve_candidate(candidate)[0] for candidate in candidates]
    return (start_one, start_h, lags,
            _walk_family(table, candidates, lags, h, start_one, start_h))


def ape_excess(result: ApeResult, innovations: np.ndarray,
               ma: MaCoefficients) -> float:
    """APE minus its irreducible part.

    Subtracts the summed squares of ``eta_i = sum_{j<h} b_j e_{i+h-j}``,
    the forecast error an oracle knowing the model would still make.
    Needs the true innovation sequence aligned with the series and the
    leading h moving-average weights.
    """
    eps = np.atleast_1d(np.asarray(innovations, dtype=float))
    if eps.size != result.n:
        raise LengthMismatchError(
            f"innovations length {eps.size} != series length {result.n}")
    h = result.horizon
    if ma.truncation < h - 1:
        raise LengthMismatchError(
            f"need moving-average weights up to index {h - 1}, "
            f"have {ma.truncation}")
    eta = np.convolve(eps, ma.b[:h])[:eps.size]
    i_values = np.arange(result.start, result.n - h + 1)
    oracle = eta[i_values + h - 1]
    return result.ape - float(np.sum(oracle ** 2))
