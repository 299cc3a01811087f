"""Least-squares fitting of multistep predictors from one observed series.

All index conventions are one-based in the math and documented per
function; internally ``values[j - 1]`` holds the j-th observation.  The
order-k regressor at time j is ``(x_j, x_{j-1}, ..., x_{j-k+1})`` and a
fit at horizon h on a prefix ``x_1..x_i`` only ever touches those i
observations, which is what makes the accumulated-prediction-error
statistics honest out-of-sample quantities.

Two layers live here.  The public batch fits (:func:`fit_one_step`,
:func:`fit_direct`, :func:`fit_plugin` and their lag-subset variants)
work on a whole series, and :func:`forecast` applies them; each is the
one-row case of a guarded fit over every row of a block of series
(:func:`_fit_rows`), which the Monte Carlo driver runs a block at a time.  The
prefix machinery (:class:`_CrossProducts` and
:func:`prefix_direct_solutions`) evaluates the same least-squares
problems for every prefix of the series at once, from one table of
cumulative cross products with a row per lag difference (K + h rows for
max lag K at horizon h) and a batched solve; :func:`sequential_fitter`
exposes it as a per-time stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    SeriesOverflowError,
    SingularMomentError,
    TooFewObservationsError,
)
from .methods import Method
from .theory import iterate_plugin_coeffs
from .tolerances import COND_GUARD, TOL_LIN

__all__ = [
    "Series",
    "LsFit",
    "sample_moment",
    "fit_one_step",
    "fit_direct",
    "fit_plugin",
    "predict_with",
    "forecast",
    "masked_fit_direct",
    "masked_fit_plugin",
    "sequential_fitter",
]


@dataclass(frozen=True)
class Series:
    """A finite, all-finite univariate time series.

    ``values[j - 1]`` is the j-th observation x_j.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if values.ndim != 1 or values.size == 0:
            raise ValueError("series must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(values)):
            raise ValueError("series contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class LsFit:
    """All least-squares quantities for one (horizon, order) pair.

    ``n_used`` counts the outer products entering the horizon-h moment
    matrix.  For horizon one the plug-in and direct coefficient vectors
    are the same object.
    """

    horizon: int
    order: int
    gamma_hat: np.ndarray
    a_one_step: np.ndarray
    a_plugin: np.ndarray
    a_direct: np.ndarray
    n_used: int


# ---------------------------------------------------------------------------
# batch (whole-series) fits


def _order_lags(k: int) -> tuple[int, ...]:
    """The lag set ``1..k`` of a dense order-k candidate."""
    if k < 1:
        raise ValueError("order must be >= 1")
    return tuple(range(1, k + 1))


def _normalize_lags(lags: Sequence[int]) -> tuple[int, ...]:
    out = tuple(sorted(set(int(v) for v in lags)))
    if not out:
        raise ValueError("lag set must be nonempty")
    if out[0] < 1:
        raise ValueError("lags are one-based and must be >= 1")
    return out


def _resolve_candidate(candidate) -> tuple[tuple[int, ...], int, int | tuple[int, ...]]:
    """(one-based lags, window width, label) of an order or a 0/1 mask."""
    if isinstance(candidate, (int, np.integer)):
        k = int(candidate)
        return _order_lags(k), k, k
    bits = tuple(int(b) for b in candidate)
    if not bits or any(b not in (0, 1) for b in bits):
        raise ValueError("mask must be a nonempty sequence of 0/1 flags")
    lags = tuple(i + 1 for i, b in enumerate(bits) if b)
    if not lags:
        raise ValueError("mask must flag at least one lag")
    return lags, len(bits), bits


def _require_windows(n: int, h: int, j0: int) -> None:
    """Raise unless n observations give a horizon-h fit with max lag j0 a window."""
    if h < 1:
        raise ValueError("horizon must be >= 1")
    if n - h - j0 + 1 < 1:
        raise TooFewObservationsError(f"need at least {h + j0} observations for "
                                      f"horizon {h} and max lag {j0}, have {n}")


def _lag_windows(block: np.ndarray, h: int, lags: tuple[int, ...]) -> np.ndarray:
    """(rows, count, m): rows ``(x_{j+1-l})_{l in lags}`` for j = max(lags)..n-h
    of each row of a (rows, n) block."""
    n = block.shape[1]
    j0 = lags[-1]
    _require_windows(n, h, j0)
    return np.stack([block[:, j0 - lag: n - h - lag + 1] for lag in lags], axis=2)


def sample_moment(series: Series, h: int, k: int) -> np.ndarray:
    """Average of ``x_j(k) x_j(k)'`` over j = k..n-h.

    Exactly ``n - h - k + 1`` outer products enter the average.
    """
    window = _lag_windows(series.values[None], h, _order_lags(k))[0]
    return window.T @ window / window.shape[0]


def _overflow_error(values: np.ndarray, what: str) -> SeriesOverflowError:
    return SeriesOverflowError(f"series overflows: values up to "
                               f"{np.max(np.abs(values)):.3e} make its {what} non-finite")


def _fit_rows(block: np.ndarray, h: int, lags: tuple[int, ...], width: int,
              plugin: bool) -> tuple[np.ndarray, dict[int, str]]:
    """Whole-series fits of every row of a (rows, n) block, on sorted one-based
    ``lags`` in a ``width``-lag window, and the guard message of each row
    whose fit failed (its coefficients are nan).

    The direct fit solves the normal equations of each row: one stacked
    condition number, one stacked solve and a residual check per row, the
    same arithmetic per row as a fit of that row alone.  See
    :func:`masked_fit_direct` and :func:`masked_fit_plugin`; an order k is
    the lag set ``1..k`` at width k.  Overflowing cross products raise for the block.
    """
    if plugin:
        one, faults = _fit_rows(block, 1, lags, width, False)
        if len(lags) != width:
            embedded = np.zeros((one.shape[0], width))
            embedded[:, [lag - 1 for lag in lags]] = one
            one = embedded
        if h == 1:
            return one, faults
        return np.array([iterate_plugin_coeffs(row, h) for row in one]), faults
    window = _lag_windows(block, h, lags)
    count = window.shape[1]
    window_t = window.transpose(0, 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        moment = window_t @ window / count
        rhs = (window_t @ block[:, lags[-1] + h - 1:, None])[..., 0] / count
    if not (np.isfinite(moment).all() and np.isfinite(rhs).all()):
        raise _overflow_error(block, "cross products")
    cond = np.linalg.cond(moment)
    bad = ~np.isfinite(cond) | (cond > COND_GUARD)
    # Named here, so that fits that succeed never format the lag set.
    what = f"direct fit h={h} lags={lags}"
    faults = {int(r): f"{what}: moment matrix condition number {cond[r]:.3e} "
              "exceeds guard" for r in np.flatnonzero(bad)}
    sol = np.full(rhs.shape, np.nan)
    good = np.flatnonzero(~bad)
    try:
        sol[good] = np.linalg.solve(moment[good], rhs[good, :, None])[..., 0]
    except np.linalg.LinAlgError:
        for r in good:
            try:
                sol[r] = np.linalg.solve(moment[r], rhs[r])
            except np.linalg.LinAlgError as exc:
                faults[int(r)] = f"{what}: {exc}"
    residual = np.abs((moment @ sol[..., None])[..., 0] - rhs).max(axis=1)
    scale = (np.abs(moment).max(axis=(1, 2)) * np.abs(sol).max(axis=1)
             + np.abs(rhs).max(axis=1))
    for r in np.flatnonzero((scale > 0.0) & (residual > TOL_LIN * scale)):
        faults[int(r)] = (f"{what}: normal-equation residual {residual[r]:.3e} "
                          "above tolerance")
    sol[list(faults)] = np.nan
    return sol, faults


def _fit(series: Series, h: int, lags: tuple[int, ...], width: int,
         plugin: bool) -> np.ndarray:
    """:func:`_fit_rows` of one series; a failed fit raises."""
    coeffs, faults = _fit_rows(series.values[None], h, lags, width, plugin)
    if faults:
        raise SingularMomentError(faults[0])
    return coeffs[0]


def fit_direct(series: Series, h: int, k: int) -> np.ndarray:
    """Direct h-step coefficients: regress ``x_{j+h}`` on ``x_j(k)``."""
    return _fit(series, h, _order_lags(k), k, False)


def fit_one_step(series: Series, k: int) -> np.ndarray:
    """One-step coefficients; identical to the direct fit at horizon one."""
    return _fit(series, 1, _order_lags(k), k, False)


def fit_plugin(series: Series, h: int, k: int) -> np.ndarray:
    """Plug-in h-step coefficients: iterate the one-step fit h-1 times."""
    return _fit(series, h, _order_lags(k), k, True)


def predict_with(series: Series, coeffs: np.ndarray) -> float:
    """Forecast from the newest lag window: ``sum_c coeffs[c] * x_{n-c}``."""
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    k = coeffs.size
    if k > series.n:
        raise TooFewObservationsError(
            f"need {k} observations for an order-{k} forecast, have {series.n}")
    lag = series.values[series.n - k:][::-1]
    return float(lag @ coeffs)


def masked_fit_direct(series: Series, h: int, lags: Sequence[int]) -> np.ndarray:
    """Direct h-step fit restricted to a subset of lags.

    Regresses ``x_{j+h}`` on ``(x_{j+1-l} : l in lags)`` with the sum
    starting at the largest requested lag, so a contiguous lag set
    ``1..k`` reproduces :func:`fit_direct` exactly.
    """
    lags = _normalize_lags(lags)
    return _fit(series, h, lags, lags[-1], False)


def masked_fit_plugin(series: Series, h: int, lags: Sequence[int],
                      window_size: int) -> np.ndarray:
    """Plug-in h-step fit on a subset of lags, embedded in a full window.

    The one-step fit on the masked lags is zero-filled into a length
    ``window_size`` coefficient vector, iterated h-1 times through the
    full companion matrix, and returned at length ``window_size`` (apply
    with the full lag window).
    """
    lags = _normalize_lags(lags)
    if window_size < lags[-1]:
        raise ValueError("window_size must cover the largest lag")
    return _fit(series, h, lags, window_size, True)


def _check_forecast(n: int, h: int, candidate, method: Method,
                    ) -> tuple[tuple[int, ...], int, int | tuple[int, ...], bool]:
    """(lags, width, label, plug-in?) of a candidate, after raising what its
    fit and forecast from n observations would raise on any data."""
    plugin = method == Method.PLUGIN
    lags, width, label = _resolve_candidate(candidate)
    if h < 1:
        raise ValueError("horizon must be >= 1")
    _require_windows(n, 1 if plugin else h, lags[-1])
    if plugin and width > n:
        raise TooFewObservationsError(
            f"need {width} observations for an order-{width} forecast, have {n}")
    return lags, width, label, plugin


def _forecast_rows(block: np.ndarray, h: int, candidate, method: Method,
                   ) -> tuple[list[float], dict[int, str]]:
    """:func:`forecast` from every row of a (rows, n) block, and the guard
    message of each row whose fit failed (its forecast is nan)."""
    n = block.shape[1]
    lags, width, label, plugin = _check_forecast(n, h, candidate, method)
    coeffs, faults = _fit_rows(block, h, lags, width, plugin)
    if plugin or isinstance(label, int):
        return [float(row[n - width:][::-1] @ c) for row, c in zip(block, coeffs)], faults
    # A gathered copy and the reversed window view round differently in
    # the dot product; orders use the view, as predict_with does.
    picks = [lag - 1 for lag in lags]
    return [float(row[::-1][picks] @ c) for row, c in zip(block, coeffs)], faults


def forecast(series: Series, h: int, candidate, method: Method) -> float:
    """Forecast ``x_{n+h}`` from a fit of one candidate on the whole series.

    ``candidate`` is an order k or a 0/1 mask over a lag window (newest
    lag first).  A plug-in mask fit is applied to the full window, a
    direct mask fit to the flagged lags only.
    """
    forecasts, faults = _forecast_rows(series.values[None], h, candidate, method)
    if faults:
        raise SingularMomentError(faults[0])
    return forecasts[0]


# ---------------------------------------------------------------------------
# prefix machinery


class _CrossProducts:
    """Cumulative lagged cross products of one series, one row per lag difference.

    Row d holds ``C_d[j] = sum_{d < i <= j} x_i x_{i-d}``, j = 0..n.  The moment
    sum of offsets (r, s) over windows j = j0..u is ``C_d[u - m] - C_d[j0 - 1 - m]``
    with d = |r - s| and m = min(r, s); the right-hand sum of offset r at
    horizon hh is row r + hh shifted by hh.  These are the products and
    additions of a from-scratch refit on each prefix, so every window is exact.
    """

    def __init__(self, values: np.ndarray, horizon: int, max_offset: int) -> None:
        n = values.size
        rows = max_offset + horizon
        self.values = values
        # lagged[d, i] is values[i - d], and zero before the series starts.
        lagged = np.lib.stride_tricks.sliding_window_view(
            np.concatenate((np.zeros(rows - 1), values)), n)[::-1]
        self._table = np.zeros((rows, n + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(values, lagged, out=self._table[:, 1:])
            np.cumsum(self._table, axis=1, out=self._table)
        # A cumulative sum that overflows stays inf (or nan) to its end;
        # rows max_offset + 1 .. horizon - 1 are never read.
        if not np.isfinite(self._table[np.r_[:max_offset + 1, horizon:rows], -1]).all():
            raise _overflow_error(values, "cumulative cross products")

    def _windows(self, first: np.ndarray, j0: int, uppers: range) -> np.ndarray:
        """Flat entries ``u + first`` less ``j0 - 1 + first``, one block per u: row t
        of a strided view starts at ``uppers[t] + first.min()``, so one gather serves all."""
        start, step = first.min(), self._table.itemsize
        view = np.ndarray((len(uppers), first.max() - start + 1), buffer=self._table,
                          offset=(uppers[0] + start) * step, strides=(step, step))
        out = view[:, first - start]
        out -= self._table.take(j0 - 1 + first)
        return out

    def moment_windows(self, offsets: Sequence[int], j0: int,
                       uppers: range) -> np.ndarray:
        """Stack of moment-sum matrices for windows j = j0..u, one per u."""
        column = np.asarray(offsets)[:, None]
        return self._windows(np.abs(column - column.T) * self._table.shape[1]
                             - np.minimum(column, column.T), j0, uppers)

    def rhs_windows(self, offsets: Sequence[int], hh: int, j0: int,
                    uppers: range) -> np.ndarray:
        """Stack of right-hand sums at horizon hh for windows j = j0..u <= n - hh."""
        return self._windows((np.asarray(offsets) + hh) * self._table.shape[1] + hh,
                             j0, uppers)


def _batched_solve(systems: np.ndarray, rhs: np.ndarray,
                   i_values: np.ndarray, what: str) -> np.ndarray:
    """Solve a stack of small normal-equation systems, naming bad steps."""
    try:
        sol = np.linalg.solve(systems, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        sol = np.empty_like(rhs)
        for t in range(rhs.shape[0]):
            try:
                sol[t] = np.linalg.solve(systems[t], rhs[t])
            except np.linalg.LinAlgError as exc:
                raise SingularMomentError(
                    f"{what}: singular moment matrix at time {int(i_values[t])}"
                ) from exc
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs(np.einsum("tij,tj->ti", systems, sol) - rhs).max(axis=1)
        scale = (np.abs(systems).max(axis=(1, 2)) * np.abs(sol).max(axis=1)
                 + np.abs(rhs).max(axis=1))
    # A solve that overflowed leaves a non-finite residual: that fails too.
    bad = np.flatnonzero(~np.isfinite(residual)
                         | ((scale > 0.0) & (residual > TOL_LIN * scale)))
    if bad.size:
        raise SingularMomentError(
            f"{what}: unreliable solve at time {int(i_values[bad[0]])} "
            f"(relative residual {residual[bad[0]] / scale[bad[0]]:.3e})")
    return sol


def prefix_direct_solutions(cp: _CrossProducts, offsets: Sequence[int],
                            horizon: int, i_values: np.ndarray) -> np.ndarray:
    """Direct-fit coefficients for each prefix ``x_1..x_i``, i in consecutive ``i_values``."""
    j0 = offsets[-1] + 1
    uppers = range(i_values[0] - horizon, i_values[-1] - horizon + 1)
    systems = cp.moment_windows(offsets, j0, uppers)
    rhs = cp.rhs_windows(offsets, horizon, j0, uppers)
    return _batched_solve(systems, rhs, i_values,
                          f"sequential direct fit h={horizon}")


# ---------------------------------------------------------------------------
# streaming interface


def sequential_fitter(series: Series, h: int, max_order: int,
                      well_defined_from: int | None = None,
                      ) -> Iterator[tuple[int, dict[int, LsFit] | None]]:
    """Yield ``(i, fits)`` with one :class:`LsFit` per order for each prefix.

    The stream starts at the smallest i where all orders up to
    ``max_order`` have at least as many usable windows as parameters and
    runs through ``n - h``.  A prefix whose moment matrix is singular is
    yielded as ``(i, None)`` while ``i`` is still below
    ``well_defined_from``; at or past that point singularity is an
    error, because the caller has certified the stream usable from there.

    Every yielded coefficient vector reproduces the batch fit on the same
    prefix (same sums, same solver).
    """
    if h < 1 or max_order < 1:
        raise ValueError("horizon and max_order must be >= 1")
    first = 2 * max_order + h - 1
    cp = _CrossProducts(series.values, h, max_order)
    for i in range(first, series.n - h + 1):
        fits: dict[int, LsFit] = {}
        try:
            for k in range(1, max_order + 1):
                offsets = tuple(range(k))
                count = i - h - k + 1
                moment = cp.moment_windows(offsets, k, range(i - h, i - h + 1))[0]
                gamma_hat = moment / count
                cond = np.linalg.cond(gamma_hat)
                if not np.isfinite(cond) or cond > COND_GUARD:
                    raise SingularMomentError(
                        f"sequential fit h={h} k={k}: condition number "
                        f"{cond:.3e} exceeds guard at time {i}")
                a_one = prefix_direct_solutions(cp, offsets, 1, np.array([i]))[0]
                a_direct = prefix_direct_solutions(cp, offsets, h, np.array([i]))[0]
                a_plugin = a_one if h == 1 else iterate_plugin_coeffs(a_one, h)
                fits[k] = LsFit(horizon=h, order=k, gamma_hat=gamma_hat,
                                a_one_step=a_one, a_plugin=a_plugin,
                                a_direct=a_direct, n_used=count)
        except SingularMomentError:
            if well_defined_from is not None and i >= well_defined_from:
                raise
            yield i, None
            continue
        yield i, fits
