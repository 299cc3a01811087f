"""Least-squares fitting of multistep predictors from one observed series.

All index conventions are one-based in the math and documented per
function; internally ``values[j - 1]`` holds the j-th observation.  The
order-k regressor at time j is ``(x_j, x_{j-1}, ..., x_{j-k+1})`` and a
fit at horizon h on a prefix ``x_1..x_i`` only ever touches those i
observations, which is what makes the accumulated-prediction-error
statistics honest out-of-sample quantities.

Two layers live here.  The public batch fits (:func:`fit_one_step`,
:func:`fit_direct`, :func:`fit_plugin` and their lag-subset variants)
work on a whole series, and :func:`forecast` applies them.  The
prefix machinery (:class:`_CrossProducts` and
:func:`prefix_direct_solutions`) evaluates the same least-squares
problems for every prefix of the series at once, via cumulative sums of
lagged cross products and a batched solve; :func:`sequential_fitter`
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


def _lag_window(series: Series, h: int, lags: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Rows ``(x_{j+1-l})_{l in lags}`` for j = max(lags)..n-h, and their count."""
    if h < 1:
        raise ValueError("horizon must be >= 1")
    values = series.values
    n = values.size
    j0 = lags[-1]
    count = n - h - j0 + 1
    if count < 1:
        raise TooFewObservationsError(f"need at least {h + j0} observations for "
                                      f"horizon {h} and max lag {j0}, have {n}")
    cols = [values[j0 - lag: n - h - lag + 1] for lag in lags]
    return np.stack(cols, axis=1), count


def sample_moment(series: Series, h: int, k: int) -> np.ndarray:
    """Average of ``x_j(k) x_j(k)'`` over j = k..n-h.

    Exactly ``n - h - k + 1`` outer products enter the average.
    """
    window, count = _lag_window(series, h, _order_lags(k))
    return window.T @ window / count


def _guarded_solve(moment: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    cond = np.linalg.cond(moment)
    if not np.isfinite(cond) or cond > COND_GUARD:
        raise SingularMomentError(
            f"moment matrix condition number {cond:.3e} exceeds guard")
    try:
        sol = np.linalg.solve(moment, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMomentError(str(exc)) from exc
    residual = np.max(np.abs(moment @ sol - rhs))
    scale = (np.max(np.abs(moment)) * np.max(np.abs(sol), initial=0.0)
             + np.max(np.abs(rhs), initial=0.0))
    if scale > 0.0 and residual > TOL_LIN * scale:
        raise SingularMomentError(
            f"normal-equation residual {residual:.3e} above tolerance")
    return np.atleast_1d(sol)


def _fit(series: Series, h: int, lags: tuple[int, ...], width: int,
         plugin: bool) -> np.ndarray:
    """Whole-series fit on sorted one-based ``lags`` in a ``width``-lag window.

    See :func:`masked_fit_direct` and :func:`masked_fit_plugin`; an order
    k is the lag set ``1..k`` at width k.
    """
    if plugin:
        one = _fit(series, 1, lags, width, False)
        if len(lags) != width:
            embedded = np.zeros(width)
            embedded[[lag - 1 for lag in lags]] = one
            one = embedded
        return one if h == 1 else iterate_plugin_coeffs(one, h)
    window, count = _lag_window(series, h, lags)
    targets = series.values[lags[-1] + h - 1:]
    moment = window.T @ window / count
    rhs = window.T @ targets / count
    try:
        return _guarded_solve(moment, rhs)
    except SingularMomentError as exc:
        # Named here, so that fits that succeed never format the lag set.
        raise SingularMomentError(f"direct fit h={h} lags={lags}: {exc}") from exc


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


def forecast(series: Series, h: int, candidate, method: Method) -> float:
    """Forecast ``x_{n+h}`` from a fit of one candidate on the whole series.

    ``candidate`` is an order k or a 0/1 mask over a lag window (newest
    lag first).  A plug-in mask fit is applied to the full window, a
    direct mask fit to the flagged lags only.
    """
    plugin = method == Method.PLUGIN
    lags, width, label = _resolve_candidate(candidate)
    coeffs = _fit(series, h, lags, width, plugin)
    if plugin or isinstance(label, int):
        return predict_with(series, coeffs)
    # A gathered copy and the reversed window view round differently in
    # the dot product; orders use the view, as predict_with does.
    return float(series.values[::-1][[lag - 1 for lag in lags]] @ coeffs)


# ---------------------------------------------------------------------------
# prefix machinery


class _CrossProducts:
    """Cumulative lagged cross products of one series at one horizon.

    ``moment_windows`` and ``rhs_windows`` reconstruct, for any subset of
    lag offsets and any collection of prefix ends, the exact sums that a
    from-scratch refit on that prefix would accumulate.  Cumulative sums
    are taken once; a window is a difference of two entries, so every
    prefix gets the same arithmetic as a full batch pass.
    """

    def __init__(self, values: np.ndarray, horizon: int, max_offset: int) -> None:
        n = values.size
        self.values = values
        self._moment: dict[tuple[int, int], np.ndarray] = {}
        self._rhs: dict[tuple[int, int], np.ndarray] = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(max_offset):
                for r in range(s + 1):
                    prod = np.zeros(n + 1)
                    prod[s + 1:] = values[s - r: n - r] * values[: n - s]
                    self._moment[(r, s)] = np.cumsum(prod)
            for hh in {1, horizon}:
                for r in range(max_offset):
                    prod = np.zeros(n + 1)
                    if n - hh - r > 0:
                        prod[r + 1: n - hh + 1] = values[: n - hh - r] * values[r + hh:]
                    self._rhs[(r, hh)] = np.cumsum(prod)
        # A cumulative sum that overflows stays inf (or nan) to its end.
        if not all(np.isfinite(col[-1]) for cols in (self._moment, self._rhs)
                   for col in cols.values()):
            raise SeriesOverflowError(
                f"series overflows: values up to {np.max(np.abs(values)):.3e} make "
                "its cumulative cross products non-finite")

    def moment_windows(self, offsets: Sequence[int], j0: int,
                       uppers: np.ndarray) -> np.ndarray:
        """Stack of moment-sum matrices for windows j = j0..u, one per u."""
        m = len(offsets)
        out = np.empty((uppers.size, m, m))
        for ai in range(m):
            for bi in range(ai, m):
                r, s = offsets[ai], offsets[bi]
                col = self._moment[(min(r, s), max(r, s))]
                vals = col[uppers] - col[j0 - 1]
                out[:, ai, bi] = vals
                out[:, bi, ai] = vals
        return out

    def rhs_windows(self, offsets: Sequence[int], hh: int, j0: int,
                    uppers: np.ndarray) -> np.ndarray:
        out = np.empty((uppers.size, len(offsets)))
        for ai, r in enumerate(offsets):
            col = self._rhs[(r, hh)]
            out[:, ai] = col[uppers] - col[j0 - 1]
        return out


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
    """Direct-fit coefficients for each prefix ``x_1..x_i``, stacked."""
    j0 = offsets[-1] + 1
    uppers = i_values - horizon
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
    n = series.n
    values = series.values
    first = 2 * max_order + h - 1
    cp = _CrossProducts(values, h, max_order)
    for i in range(first, n - h + 1):
        i_arr = np.array([i])
        fits: dict[int, LsFit] = {}
        try:
            for k in range(1, max_order + 1):
                offsets = tuple(range(k))
                count = i - h - k + 1
                moment = cp.moment_windows(offsets, k, i_arr - h)[0]
                gamma_hat = moment / count
                cond = np.linalg.cond(gamma_hat)
                if not np.isfinite(cond) or cond > COND_GUARD:
                    raise SingularMomentError(
                        f"sequential fit h={h} k={k}: condition number "
                        f"{cond:.3e} exceeds guard at time {i}")
                a_one = prefix_direct_solutions(cp, offsets, 1, i_arr)[0]
                a_direct = prefix_direct_solutions(cp, offsets, h, i_arr)[0]
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
