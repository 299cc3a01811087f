"""Accumulated prediction errors for honestly sequential forecasts.

The APE of a candidate is the sum of squared h-step-ahead forecast
errors over the tail of the series, where the forecast at time i uses
coefficients fitted on ``x_1..x_i`` only.  The starting time ``m_h`` is
chosen once per family of candidates (see :func:`start_index`) so that
every candidate's fits are well defined over the whole summation range
and all candidates are compared on identical targets.

Candidates are either a plain order ``k`` (regress on the newest k lags)
or a 0/1 mask over a lag window (regress on the flagged lags only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LengthMismatchError, NoValidStartError, SeriesOverflowError
from .estimation import (
    Series,
    _CrossProducts,
    _resolve_candidate,
    prefix_direct_solutions,
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
    return _probe(_CrossProducts(series.values, h, max_order), h, max_order)


def _probe_range(n: int, h: int, max_order: int) -> tuple[int, int]:
    """First and last time a start may take; checked before any table is built."""
    first, last = 2 * max_order + h - 1, n - h
    if first > last:
        raise NoValidStartError(f"series of length {n} cannot support horizon {h} "
                                f"with max order {max_order}")
    return first, last


def _probe(table: _CrossProducts, h: int, max_order: int) -> int:
    """:func:`start_index` on a built table (moment sums do not depend on h).

    Condition numbers are taken ``_PROBE_CHUNK`` windows at a time, as
    the scan reaches them: the scan usually stops in the first chunk, so
    probing every window at once costs more than it saves.
    """
    first, last = _probe_range(table.values.size, h, max_order)
    offsets = tuple(range(max_order))
    base = first - h
    ok = np.empty(last - base, dtype=bool)  # verdict of window upper base + j
    done, i = 0, first
    while i <= last:
        times = np.arange(i, min(i + 10, last) + 1)
        while base + done < times[-1]:
            uppers = np.arange(base + done, min(base + done + _PROBE_CHUNK, last))
            with np.errstate(divide="ignore", invalid="ignore"):
                cond = np.linalg.cond(table.moment_windows(offsets, max_order, uppers))
            ok[done: done + uppers.size] = np.isfinite(cond) & (cond <= COND_GUARD)
            done += uppers.size
        bad = np.flatnonzero(~(ok[times - 1 - base] & ok[times - h - base]))
        if not bad.size:
            return i
        i = int(times[bad[-1]]) + 1
    raise NoValidStartError(
        f"no time in [{first}, {last}] passes the well-definedness probe")


def _ape(errors: np.ndarray) -> float:
    """Sum of squared errors; one that overflows is an error, not an APE."""
    ape = float(np.sum(errors ** 2))
    if not np.isfinite(ape):
        raise SeriesOverflowError(
            f"series overflows: an accumulated prediction error is {ape}")
    return ape


def _errors(values: np.ndarray, solutions: np.ndarray, offsets, h: int,
            i_values: np.ndarray) -> np.ndarray:
    """h-step errors of per-prefix coefficient rows, each applied to the
    newest lag window of its own prefix."""
    lag = np.empty((i_values.size, len(offsets)))
    for ai, r in enumerate(offsets):
        lag[:, ai] = values[i_values - r - 1]
    return values[i_values + h - 1] - np.einsum("tm,tm->t", solutions, lag)


def _plugin_errors(values: np.ndarray, one: np.ndarray, offsets: tuple[int, ...],
                   width: int, h: int, i_values: np.ndarray) -> np.ndarray:
    """Plug-in errors from one-step rows ``one``, zero-embedded at ``width``.

    The companion recursion is iterated as ``v' = v[0] a + shift(v)``:
    each entry of the companion product has these two nonzero terms
    only, so the two agree bit for bit.
    """
    coeffs = one
    if len(offsets) != width:
        coeffs = np.zeros((one.shape[0], width))
        coeffs[:, list(offsets)] = one
    vec = coeffs
    for _ in range(h - 1):
        vec, prev = vec[:, :1] * coeffs, vec
        vec[:, :-1] += prev[:, 1:]
    return _errors(values, vec, range(width), h, i_values)


def _accumulate(series: Series, h: int, candidate, start: int,
                method: Method, keep_steps: bool) -> ApeResult:
    lags, width, label = _resolve_candidate(candidate)
    offsets = tuple(lag - 1 for lag in lags)
    n = series.n
    if start < h + lags[-1]:
        raise ValueError(
            f"start {start} is before the first well-defined fit "
            f"(needs >= {h + lags[-1]})")
    if start > n - h:
        raise ValueError(f"start {start} leaves no targets in a series of length {n}")
    i_values = np.arange(start, n - h + 1)
    table = _CrossProducts(series.values, h, lags[-1])
    if method is Method.DIRECT:
        direct = prefix_direct_solutions(table, offsets, h, i_values)
        errors = _errors(series.values, direct, offsets, h, i_values)
    else:
        one = prefix_direct_solutions(table, offsets, 1, i_values)
        errors = _plugin_errors(series.values, one, offsets, width, h, i_values)
    return ApeResult(horizon=h, candidate=label, method=method, start=start,
                     ape=_ape(errors), n=n,
                     step_errors=errors if keep_steps else None)


def ape_direct(series: Series, h: int, candidate, start: int,
               keep_steps: bool = False) -> ApeResult:
    """APE of the direct predictor for one order or mask."""
    return _accumulate(series, h, candidate, start, Method.DIRECT, keep_steps)


def ape_plugin(series: Series, h: int, candidate, start: int,
               keep_steps: bool = False) -> ApeResult:
    """APE of the plug-in predictor for one order or mask."""
    return _accumulate(series, h, candidate, start, Method.PLUGIN, keep_steps)


def _candidate_apes(table: _CrossProducts, candidate, h: int, start_one: int,
                    start_h: int) -> tuple[float, float, float]:
    """(one-step, direct, plug-in) APE of one candidate on a shared table.

    One one-step prefix stack, solved from the earlier start, gives the
    one-step APE and, sliced at ``start_h``, the plug-in APE; at h=1 it
    gives all three.  It is dropped before the direct stack is solved.
    """
    lags, width, _ = _resolve_candidate(candidate)
    offsets = tuple(lag - 1 for lag in lags)
    values, n = table.values, table.values.size
    lo = min(start_one, start_h)
    one = prefix_direct_solutions(table, offsets, 1, np.arange(lo, n))
    one_step = _ape(_errors(values, one[start_one - lo:], offsets, 1,
                            np.arange(start_one, n)))
    if h == 1:
        return one_step, one_step, one_step
    i_values = np.arange(start_h, n - h + 1)
    plugin = _plugin_errors(values, one[start_h - lo: start_h - lo + i_values.size],
                            offsets, width, h, i_values)
    del one
    solutions = prefix_direct_solutions(table, offsets, h, i_values)
    direct = _errors(values, solutions, offsets, h, i_values)
    return one_step, _ape(direct), _ape(plugin)


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
    start_one = _probe(table, 1, max_lag)
    try:
        start_h = start_one if h == 1 else _probe(table, h, max_lag)
    except NoValidStartError:
        for candidate in candidates:
            _candidate_apes(table, candidate, 1, start_one, start_one)
        raise
    return start_one, start_h, [_candidate_apes(table, c, h, start_one, start_h)
                                for c in candidates]


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
