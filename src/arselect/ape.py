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

import numpy as np
from scipy.signal import lfilter

from .errors import LengthMismatchError, NoValidStartError
from .estimation import (
    Series,
    _CrossProducts,
    _resolve_candidate,
    prefix_direct_solutions,
    prefix_plugin_solutions,
    prefix_predictions,
)
from .methods import Method
from .theory import MaCoefficients
from .tolerances import COND_GUARD

__all__ = ["ApeResult", "start_index", "ape_plugin", "ape_direct", "ape_excess"]


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
    n = series.n
    first = max(2 * max_order, 2 * max_order + h - 1)
    if first > n - h:
        raise NoValidStartError(
            f"series of length {n} cannot support horizon {h} with "
            f"max order {max_order}")
    cp = _CrossProducts(series.values, h, max_order)
    offsets = tuple(range(max_order))
    verdicts: dict[int, bool] = {}

    def usable(i: int) -> bool:
        if i not in verdicts:
            ok = True
            for hh in (1, h) if h != 1 else (1,):
                moment = cp.moment_windows(offsets, max_order,
                                           np.array([i - hh]))[0]
                with np.errstate(divide="ignore", invalid="ignore"):
                    cond = np.linalg.cond(moment)
                if not np.isfinite(cond) or cond > COND_GUARD:
                    ok = False
                    break
            verdicts[i] = ok
        return verdicts[i]

    for i in range(first, n - h + 1):
        probe = min(10, n - h - i)
        if all(usable(i + step) for step in range(probe + 1)):
            return i
    raise NoValidStartError(
        f"no time in [{first}, {n - h}] passes the well-definedness probe")


def _accumulate(series: Series, h: int, candidate, start: int,
                method: Method, keep_steps: bool) -> ApeResult:
    lags, embed_dim, label = _resolve_candidate(candidate)
    offsets = tuple(lag - 1 for lag in lags)
    n = series.n
    max_lag = lags[-1]
    if start < h + max_lag:
        raise ValueError(
            f"start {start} is before the first well-defined fit "
            f"(needs >= {h + max_lag})")
    if start > n - h:
        raise ValueError(f"start {start} leaves no targets in a series of length {n}")
    i_values = np.arange(start, n - h + 1)
    cp = _CrossProducts(series.values, h, max_lag)
    if method is Method.DIRECT:
        solutions = prefix_direct_solutions(cp, offsets, h, i_values)
        pred_offsets = offsets
    else:
        solutions = prefix_plugin_solutions(cp, offsets, h, i_values, embed_dim)
        pred_offsets = tuple(range(embed_dim))
    predictions = prefix_predictions(series.values, solutions, pred_offsets,
                                     i_values)
    errors = series.values[i_values + h - 1] - predictions
    return ApeResult(
        horizon=h,
        candidate=label,
        method=method,
        start=start,
        ape=float(np.sum(errors ** 2)),
        n=n,
        step_errors=errors if keep_steps else None,
    )


def ape_direct(series: Series, h: int, candidate, start: int,
               keep_steps: bool = False) -> ApeResult:
    """APE of the direct predictor for one order or mask."""
    return _accumulate(series, h, candidate, start, Method.DIRECT, keep_steps)


def ape_plugin(series: Series, h: int, candidate, start: int,
               keep_steps: bool = False) -> ApeResult:
    """APE of the plug-in predictor for one order or mask."""
    return _accumulate(series, h, candidate, start, Method.PLUGIN, keep_steps)


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
    eta = lfilter(ma.b[:h], [1.0], eps)
    i_values = np.arange(result.start, result.n - h + 1)
    oracle = eta[i_values + h - 1]
    return result.ape - float(np.sum(oracle ** 2))
