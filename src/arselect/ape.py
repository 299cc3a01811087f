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
from lag slices of the series: a direct forecast is one step of it, and a
plug-in forecast iterates the one-step fit on its own forecasts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LengthMismatchError, NoValidStartError, SeriesOverflowError
from .estimation import (
    Series,
    _BorderedSolver,
    _CrossProducts,
    _resolve_candidate,
    _triangle,
    _unpack,
)
from .methods import Method
from .theory import MaCoefficients
from .tolerances import COND_GUARD

__all__ = ["ApeResult", "start_index", "ape_plugin", "ape_direct", "ape_excess",
           "family_apes"]

#: Window uppers whose condition numbers one batched start probe takes.
_PROBE_CHUNK = 32


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
    """
    if h < 1 or max_order < 1:
        raise ValueError("horizon and max_order must be >= 1")
    _probe_range(series.n, h, max_order)
    return _probe(_Verdicts(_CrossProducts(series.values, h, max_order), max_order), h,
                  max_order)


def _probe_range(n: int, h: int, max_order: int) -> tuple[int, int]:
    """First and last time a start may take; checked before any table is built."""
    first, last = 2 * max_order + h - 1, n - h
    if first > last:
        raise NoValidStartError(f"series of length {n} cannot support horizon {h} "
                                f"with max order {max_order}")
    return first, last


class _Verdicts:
    """The start probe's verdicts on one table: whether the order-``max_order``
    moment matrix of the windows up to each upper passes the conditioning
    guard.  They are taken ``_PROBE_CHUNK`` uppers at a time as a probe
    reaches them (the probe usually stops in the first chunk, so taking
    every window at once costs more than it saves), and the probes of both
    horizons share them: a verdict does not depend on the horizon."""

    def __init__(self, table: _CrossProducts, max_order: int) -> None:
        self.table, self.max_order, self.base = table, max_order, 2 * max_order - 1
        self.ok = np.empty(table.values.size - 1 - self.base, dtype=bool)
        self.done = 0  # verdicts taken, of uppers base..base + done - 1
        self.packed = np.empty((_triangle(max_order), _PROBE_CHUNK))

    def __getitem__(self, uppers: np.ndarray) -> np.ndarray:
        """The verdicts of the windows up to each of ``uppers``."""
        offsets, end = tuple(range(self.max_order)), self.table.values.size - 1
        while self.base + self.done <= uppers.max():
            low = self.base + self.done
            chunk = range(low, min(low + _PROBE_CHUNK, end))
            packed = self.packed[:, :len(chunk)]
            self.table.moment_rows(offsets, self.max_order, chunk, packed)
            with np.errstate(divide="ignore", invalid="ignore"):
                cond = np.linalg.cond(_unpack(packed, offsets))
            ok = np.isfinite(cond) & (cond <= COND_GUARD)
            self.ok[self.done: self.done + ok.size] = ok
            self.done += ok.size
        return self.ok[uppers - self.base]


def _probe(verdicts: _Verdicts, h: int, max_order: int) -> int:
    """:func:`start_index` from the verdicts of a table at order ``max_order``
    (moment sums do not depend on h)."""
    first, last = _probe_range(verdicts.table.values.size, h, max_order)
    i = first
    while i <= last:
        times = np.arange(i, min(i + 10, last) + 1)
        bad = np.flatnonzero(~(verdicts[times - 1] & verdicts[times - h]))
        if not bad.size:
            return i
        i = int(times[bad[-1]]) + 1
    raise NoValidStartError(
        f"no time in [{first}, {last}] passes the well-definedness probe")


def _ape(errors: np.ndarray) -> float:
    """Sum of squared errors; one that overflows is an error, not an APE."""
    with np.errstate(over="ignore", invalid="ignore"):
        ape = float(np.sum(errors ** 2))
    if not np.isfinite(ape):
        raise SeriesOverflowError(
            f"series overflows: an accumulated prediction error is {ape}")
    return ape


def _lag_rows(values: np.ndarray, width: int, first: int, count: int) -> np.ndarray:
    """(width, count) view of lag slices: row c, column t is x_{i-c} for the
    prefix i = first + t >= width."""
    step = values.itemsize
    return np.ndarray((width, count), buffer=values, offset=(first - 1) * step,
                      strides=(-step, step))


def _errors(values: np.ndarray, coeffs: np.ndarray, lags: Sequence[int], h: int,
            steps: int, first: int, scratch: np.ndarray) -> np.ndarray:
    """h-step errors of per-prefix coefficients on ``lags`` (one row each),
    column t applied to the newest lags of the prefix ``first + t`` and then
    to its own forecasts, ``steps`` times in all: one step for a direct fit,
    h for a plug-in one-step fit (its companion matrix, with zeros for the
    lags it leaves out, applied h-1 times).  The lag rows of each step are
    copied into the flat buffer ``scratch``."""
    count = coeffs.shape[1]
    window = _lag_rows(values, max(lags), first, count)
    known = scratch[:len(lags) * count].reshape(len(lags), count)
    forecasts: list[np.ndarray] = []
    for step in range(steps):  # forecasts[s] is of x_{i+h-steps+s+1}
        for row, lag in zip(known, lags):
            row[:] = forecasts[step - lag] if lag <= step else window[lag - 1 - step]
        forecasts.append(np.einsum("jt,jt->t", coeffs, known))
    return values[first + h - 1: first + h - 1 + count] - forecasts[-1]


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
    solver = _BorderedSolver(_CrossProducts(series.values, h, lags[-1]), lags[-1],
                             [(h if direct else 1, start, n - h)])
    for _ in solver.visit([lags]):
        coeffs = solver.solve(0)
    errors = _errors(series.values, coeffs, solver.lags, h, 1 if direct else h, start,
                     solver.work.reshape(-1))
    return ApeResult(horizon=h, candidate=label, method=method, start=start,
                     ape=_ape(errors), n=n,
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

    The one-step rows, solved from the earlier start, give the one-step
    APE and, sliced at ``start_h``, the plug-in APE; at h=1 they give all
    three.  The direct rows are solved after both.
    """
    lags, n = solver.lags, values.size
    lo = min(start_one, start_h)
    scratch = solver.work.reshape(-1)
    one = solver.solve(0)
    one_step = _ape(_errors(values, one, lags, 1, 1, lo, scratch)[start_one - lo:])
    if h == 1:
        return one_step, one_step, one_step
    plugin = _errors(values, one[:, start_h - lo: n - h + 1 - lo], lags, h, h, start_h,
                     scratch)
    direct = _errors(values, solver.solve(1), lags, h, 1, start_h, scratch)
    return one_step, _ape(direct), _ape(plugin)


def _walk_family(table: _CrossProducts, candidates: Sequence, h: int, start_one: int,
                 start_h: int) -> list[tuple[float, float, float]]:
    """Every candidate's (one-step, direct, plug-in) APE from one solver.

    The candidates are taken in the order of the solver's visit, and errors
    are raised in that order; the solver's columns serve the one-step fits
    on prefixes ``min(start_one, start_h)..n-1`` and, at h > 1, the direct
    fits on ``start_h..n-h``.
    """
    n = table.values.size
    spans = [(1, min(start_one, start_h), n - 1)]
    if h > 1:
        spans.append((h, start_h, n - h))
    lags = [_resolve_candidate(candidate)[0] for candidate in candidates]
    solver = _BorderedSolver(table, max(top[-1] for top in lags), spans)
    apes: list = [None] * len(candidates)
    for index in solver.visit(lags):
        apes[index] = _candidate_apes(table.values, solver, candidates[index], h,
                                      start_one, start_h)
    return apes


def family_apes(series: Series, h: int, candidates: Sequence, max_lag: int
                ) -> tuple[int, int, list[tuple[float, float, float]]]:
    """Both start indices and every candidate's (one-step, direct, plug-in)
    APE, from one cross-product table.

    The starts are :func:`start_index` at horizons 1 and h with order
    ``max_lag``.  Errors keep the precedence of the per-candidate path:
    the one-step start, the one-step APEs, the horizon-h start, the rest.
    """
    _probe_range(series.n, 1, max_lag)
    table = _CrossProducts(series.values, h, max_lag)
    verdicts = _Verdicts(table, max_lag)
    start_one = _probe(verdicts, 1, max_lag)
    try:
        start_h = start_one if h == 1 else _probe(verdicts, h, max_lag)
    except NoValidStartError:
        _walk_family(table, candidates, 1, start_one, start_one)
        raise
    return start_one, start_h, _walk_family(table, candidates, h, start_one, start_h)


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
    from scipy.signal import lfilter  # deferred: loads SciPy on first use

    eta = lfilter(ma.b[:h], [1.0], eps)
    i_values = np.arange(result.start, result.n - h + 1)
    oracle = eta[i_values + h - 1]
    return result.ape - float(np.sum(oracle ** 2))
