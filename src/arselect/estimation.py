"""Least-squares fitting of multistep predictors from one observed series.

All index conventions are one-based in the math and documented per
function; internally ``values[j - 1]`` holds the j-th observation.  The
order-k regressor at time j is ``(x_j, x_{j-1}, ..., x_{j-k+1})`` and a
fit at horizon h on a prefix ``x_1..x_i`` only ever touches those i
observations, which is what makes the accumulated-prediction-error
statistics honest out-of-sample quantities.

One guarded solver serves every fit.  :class:`_Bordering` solves the
normal equations of any lag path of a packed moment stack with one column
per system, order-recursively: a candidate's inverse Cholesky factor is its
parent's bordered by one row.  Its guards are a pivot test and a
normal-equation residual test, which a condition bound kept by the walk
skips where it cannot fire, and whole-series and streamed fits add a
floor on the least relative pivot in place of a condition-number ceiling.
The public batch fits (:func:`fit_one_step`, :func:`fit_direct`,
:func:`fit_plugin` and their lag-subset variants) work on a whole series,
and :func:`forecast` applies them; each is the one-row case of
:func:`_fit_rows`, which packs each row of a block of series as one column
and which the Monte Carlo driver runs a block at a time.  The prefix fits
read :class:`_CrossProducts`, one table of cumulative cross products with a
row per lag difference (K + h rows for max lag K at horizon h), through one
gather, :meth:`_CrossProducts.moment_rows`.  :class:`_BorderedSolver` loads
a top lag's packed moments from it, so one depth-first walk per top lag
serves every mask and both horizons, and a dense order k is the single path
(k, 1, ..., k-1).  :func:`sequential_fitter` exposes the prefix fits as a
per-time stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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

    ``values[j - 1]`` is the j-th observation x_j.  The values are held
    contiguous (a strided view is copied), since the prefix machinery reads
    lag slices as views of their buffer.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(np.atleast_1d(np.asarray(self.values, dtype=float)))
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

#: Least relative pivot ``d^2 / m_vv`` along its path that a whole-series or
#: streamed fit accepts.  ``m_vv / d^2`` is at most the condition number of
#: the moment matrix, so the floor rejects only fits that the ceiling
#: ``COND_GUARD`` on that condition number rejects.
_FLOOR = 1.0 / COND_GUARD

#: The residual screen of :meth:`_Bordering.fit` clears a fit on m lags
#: whose condition bound ``trace(M) trace(M^-1)`` is at most ``_SCREEN / m``,
#: that is ``16 m eps`` times the bound is within ``TOL_LIN``.  The relative
#: normal-equation residual of a solve through the inverse Cholesky factor
#: is a modest multiple of ``eps kappa_2(M)`` (Higham, *Accuracy and
#: Stability of Numerical Algorithms*, 2nd ed., ch. 8 and 10); the guard
#: measures it in max norms, which costs at most a factor m against the
#: 2-norm, and 16 is a margin of ten over the largest multiple measured.
_SCREEN = TOL_LIN / (16 * np.finfo(float).eps)

#: The screen also needs ``trace(M)`` and ``max |beta|`` within
#: ``[1 / _RANGE, _RANGE]``: there every product and sum of the solve and of
#: its residual stays far from overflow and from the subnormal numbers,
#: whose absolute rounding the relative bound above does not cover.
_RANGE = 1e100


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

    The direct fit packs each row's ``W'W`` and ``W'y``, lags in path order
    (top lag first), as one column of a :class:`_Bordering` and walks the
    candidate's path under the conditioning floor, so the arithmetic per row
    is that of a fit of the row alone.  See :func:`masked_fit_direct` and
    :func:`masked_fit_plugin`; an order k is the lag set ``1..k`` at width k.
    Overflowing cross products raise for the block.
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
    (rows, n), k, j0 = block.shape, len(lags), lags[-1]
    _require_windows(n, h, j0)
    if rows == 1:
        # The bordering sums over lags in one loop over two columns or more,
        # so a lone series is fit next to a copy of itself.
        block = np.repeat(block, 2, axis=0)
    # The window columns of the lags in path order (top lag first), then the
    # target's: their packed products are W'W, then W'y (y'y is not formed).
    count, starts = n - h - j0 + 1, [j0 - lag for lag in lags[-1:] + lags[:-1]] + [j0 + h - 1]
    row, col = _tril(k + 1)
    packed = np.empty((row.size - 1, block.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        for out, a, b in zip(packed, row, col):
            np.einsum("rt,rt->r", block[:, starts[a]: starts[a] + count],
                      block[:, starts[b]: starts[b] + count], out=out)
    if not np.isfinite(packed).all():
        raise _overflow_error(block, "cross products")
    solver = _Bordering(packed[:_triangle(k)], packed[None, _triangle(k):],
                        [(f"direct fit h={h} lags={lags}", None, slice(0, rows))], _FLOOR)
    solver.walk_to(tuple(range(k)))
    beta, faults = solver.fit(0)
    sol = _lags_ascending(beta)
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

    def _rows(self, first: np.ndarray, j0: int, uppers: range, out: np.ndarray) -> None:
        """Entry ``first`` of each window j0..u into ``out``: one row per entry,
        each a slice of the flat table less one entry, and one column per upper."""
        flat = self._table.reshape(-1)
        for row, entry in zip(out, first):
            np.subtract(flat[uppers[0] + entry: uppers[-1] + entry + 1],
                        flat[j0 - 1 + entry], out=row)

    def moment_rows(self, offsets: Sequence[int], j0: int, uppers: range,
                    out: np.ndarray) -> None:
        """Moment-sum matrices of ``offsets`` for windows j = j0..u into ``out``,
        one column per upper, each lower triangle packed: entry (a, b), b <= a,
        in row ``a(a+1)/2 + b`` (see :func:`_unpack`)."""
        row, col = _tril(len(offsets))
        column = np.asarray(offsets)
        self._rows(np.abs(column[row] - column[col]) * self._table.shape[1]
                   - np.minimum(column[row], column[col]), j0, uppers, out)

    def rhs_rows(self, offsets: Sequence[int], hh: int, j0: int, uppers: range,
                 out: np.ndarray) -> None:
        """Right-hand sums at horizon hh for windows j = j0..u <= n - hh into
        ``out``: one row per offset, one column per upper."""
        self._rows((np.asarray(offsets) + hh) * self._table.shape[1] + hh, j0, uppers, out)


def _triangle(m: int) -> int:
    """Entries of an m x m lower triangle: row a of a packed one starts at
    ``_triangle(a)`` and holds entries (a, 0..a)."""
    return m * (m + 1) // 2


@lru_cache(maxsize=None)
def _tril(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.tril_indices(m)``: the entry (a, b) of each packed row, in order."""
    row, col = np.tril_indices(m)
    row.flags.writeable = col.flags.writeable = False
    return row, col


@lru_cache(maxsize=None)
def _packed_index(m: int) -> np.ndarray:
    """(m, m) packed row of each entry of a symmetric m x m matrix."""
    position = np.arange(m)
    big = np.maximum.outer(position, position)
    index = big * (big + 1) // 2 + np.minimum.outer(position, position)
    index.flags.writeable = False
    return index


def _unpack(packed: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """(T, m, m) matrices of a packed (rows, T) moment stack, one per column:
    entry (a, b) of matrix t is entry (positions[a], positions[b]) of column t."""
    index = _packed_index(max(positions) + 1)[np.ix_(positions, positions)]
    return packed.T.take(index, axis=1)


def _lags_ascending(beta: np.ndarray) -> np.ndarray:
    """(columns, k) coefficients, lags ascending, of (k, columns) ones in path
    order: the top lag moves from first to last."""
    return np.concatenate((beta[1:], beta[:1])).T.copy()


class _Bordering:
    """Least squares for every path of lag positions of a packed moment stack,
    by bordering.

    ``moment`` holds one system per column: the packed lower triangle of its
    moment matrix (entry (a, b), b <= a, of positions a and b in row
    ``a(a+1)/2 + b``), and ``rhs`` (horizons, positions, columns) the
    right-hand sums of each horizon.  ``horizons`` names each horizon's fits
    as ``(name, first, columns)``: a fit reads the slice ``columns``, and its
    guard messages give column t as time ``first + t`` unless ``first`` is
    ``None``.  A positive ``floor`` is a conditioning test on every fit.

    A candidate is a path of positions ``(0, a_1 < a_2 < ...)``, and its
    parent is the path without its last position.  The inverse Cholesky
    factor U of a candidate's moment matrix (``U M U' = I``) is its
    parent's plus one row, so a depth-first walk that calls :meth:`descend`
    on each path after its parent keeps, in ``factor``, the packed rows of
    every path from the root to the current one.  The new row is
    ``[-g/d, 1/d]`` with ``c = U b``, ``g = U' c`` and ``d = sqrt(m_vv -
    c.c)`` for the new lag's cross moments ``b`` and ``m_vv``; ``z = U r``
    grows by one entry, and :meth:`fit` gives ``beta = U' z``.  The walk
    keeps, per depth, ``trace(M^-1) = |U|_F^2``, the running sum of squares
    of the factor's rows, so that ``trace(M) trace(M^-1)``, an upper bound
    on the condition number, costs :meth:`fit` one gather of the path's
    diagonal.  Under a floor it also keeps, per depth, the least relative
    pivot ``d^2 / m_vv`` along the path: ``m_vv / d^2`` is at most the
    condition number of the path's moment matrix.  Stacks are lag-major, so
    a sum over lags runs the same loop over at least two columns whatever
    the columns, horizons or walk: a path's coefficients do not depend on
    what else shares the stack.
    """

    def __init__(self, moment: np.ndarray, rhs: np.ndarray,
                 horizons: Sequence[tuple[str, int | None, slice]],
                 floor: float = 0.0) -> None:
        capacity, count = rhs.shape[1:]
        self.moment, self.rhs, self.horizons = moment, rhs, list(horizons)
        self.factor = np.empty_like(moment)
        self.z = np.empty_like(rhs)
        self.trace_inv = np.empty((capacity, count))
        self.floor = floor
        self.least = np.empty((capacity, count)) if floor else None
        # Scratch, reused by every call: beta and two row stacks.
        self.beta, self.work, self.spare = np.empty((3, capacity, count))
        self.pivot, self.span, self.scale, self.bound = np.empty((4, count))
        self.index = _packed_index(capacity)
        self.node: tuple[int, ...] = ()
        self.path = np.empty(0, dtype=np.intp)
        self.spanned = False

    def walk_to(self, path: tuple[int, ...]) -> None:
        """Descend to ``path`` from the path it shares most with the current
        one: a depth-first walk descends each path once."""
        shared, node = 0, self.node
        while shared < min(len(node), len(path) - 1) and node[shared] == path[shared]:
            shared += 1
        for depth in range(shared + 1, len(path) + 1):
            self.descend(path[:depth])

    def descend(self, path: tuple[int, ...]) -> None:
        """Border the factor of ``path[:-1]`` with the lag at ``path[-1]``."""
        k = len(path) - 1
        self.node, self.path, self.spanned = path, np.array(path), False
        factor, inv = self.factor, self.factor[_triangle(k + 1) - 1]
        pivot, least = self.pivot, self.least
        # The new lag's cross moments with its parent's lags, then its own.
        cross = self.moment.take(self.index[path[-1], self.path], axis=0,
                                 out=self.work[:k + 1], mode="clip")
        with np.errstate(all="ignore"):
            if not k:
                np.sqrt(cross[0], out=inv)
                np.copyto(pivot, cross[0])
                if least is not None:
                    np.divide(pivot, cross[0], out=least[0])  # nan for a zero moment
                np.divide(1.0, inv, out=inv)
                np.multiply(inv, inv, out=self.trace_inv[0])
                np.multiply(self.rhs[:, path[0]], inv, out=self.z[:, 0])
                return
            proj = self.spare[:k]  # c = U b
            for a in range(k):
                np.einsum("jt,jt->t", factor[_triangle(a): _triangle(a + 1)],
                          cross[:a + 1], out=proj[a])
            np.einsum("jt,jt->t", proj, proj, out=pivot)
            np.subtract(cross[k], pivot, out=pivot)
            np.sqrt(pivot, out=inv)
            if least is not None:
                np.divide(pivot, cross[k], out=least[k])
                np.minimum(least[k - 1], least[k], out=least[k])
            np.divide(1.0, inv, out=inv)
            row = factor[_triangle(k): _triangle(k + 1) - 1]
            for j in range(k):  # g = U' c, stored as -g/d
                column = factor.take(self.index[j:k, j], axis=0, out=self.beta[:k - j],
                                     mode="clip")
                np.einsum("jt,jt->t", column, proj[j:], out=row[j])
            row *= inv
            np.negative(row, out=row)
            row = factor[_triangle(k): _triangle(k + 1)]  # with its diagonal 1/d
            np.einsum("jt,jt->t", row, row, out=self.trace_inv[k])
            self.trace_inv[k] += self.trace_inv[k - 1]
            z = self.z[:, k]
            np.einsum("jt,hjt->ht", proj, self.z[:, :k], out=z)
            np.subtract(self.rhs[:, path[-1]], z, out=z)
            z *= inv

    def fit(self, horizon: int) -> tuple[np.ndarray, dict[int, str]]:
        """(depth, columns) coefficients of the path just descended to, at one
        horizon, in path order, valid until the next call, and the guard
        message of each column whose fit failed.

        A pivot that is not positive and finite at any step of the path
        (it leaves every later pivot of that column non-finite) is a
        singular moment matrix, and a least relative pivot below the floor
        an ill-conditioned one; otherwise the normal-equation residual must
        be within ``TOL_LIN`` of its scale, as for a direct solve.  Pivot
        failures come first in the messages.  The residual is formed only
        if some column fails the screen of :meth:`_cleared`, whose columns
        are within ``TOL_LIN`` by the condition bound, so the guard rejects
        what it would reject if it always formed it.
        """
        path = self.path
        k = path.size - 1
        name, first, rows = self.horizons[horizon]
        faults: dict[int, str] = {}
        pivot = self.pivot[rows]
        least = None if self.least is None else self.least[k, rows]
        if not (pivot.min() > 0.0 and pivot.max() < np.inf
                and (least is None or least.min() >= self.floor)):
            for t in np.flatnonzero(~((pivot > 0.0) & (pivot < np.inf))):
                faults[int(t)] = f"{name}: singular moment matrix{_at(first, t)}"
            for t in ([] if least is None else np.flatnonzero(~(least >= self.floor))):
                faults.setdefault(int(t), f"{name}: ill-conditioned moment matrix"
                                          f"{_at(first, t)} (least relative pivot "
                                          f"{least[t]:.3e})")
        z, rhs = self.z[horizon], self.rhs[horizon]
        beta, work, spare = self.beta[:k + 1], self.work[:k + 1], self.spare[:k + 1]
        with np.errstate(all="ignore"):
            for j in range(k + 1):
                column = self.factor.take(self.index[j:k + 1, j], axis=0,
                                          out=spare[:k + 1 - j], mode="clip")
                np.einsum("jt,jt->t", column, z[j:k + 1], out=beta[j])
            if not faults and self._cleared(k, rows):
                return beta[:, rows], faults
            np.abs(beta, out=work).max(axis=0, out=self.scale)
            rhs.take(path, axis=0, out=work, mode="clip")
            np.abs(work, out=work).max(axis=0, out=self.bound)
            if not self.spanned:  # the largest |moment entry| of the path
                self.span[:] = 0.0
            for a in range(k + 1):
                row = self.moment.take(self.index[path[a], path], axis=0, out=spare,
                                       mode="clip")
                np.einsum("jt,jt->t", row, beta, out=work[a])
                work[a] -= rhs[path[a]]
                if not self.spanned:
                    np.maximum(self.span, np.abs(row, out=row).max(axis=0), out=self.span)
            self.spanned = True
            scale = self.scale
            scale *= self.span
            scale += self.bound
            residual = np.abs(work, out=work).max(axis=0)[rows]
            scale = scale[rows]
            if not ((residual <= TOL_LIN * scale).all() and residual.max() < np.inf):
                # A solve that overflowed leaves a non-finite residual: that fails too.
                for t in np.flatnonzero(~np.isfinite(residual)
                                        | ((scale > 0.0) & (residual > TOL_LIN * scale))):
                    faults.setdefault(int(t), (
                        f"{name}: unreliable solve{_at(first, t)} "
                        f"(relative residual {residual[t] / scale[t]:.3e})"))
        return beta[:, rows], faults

    def _cleared(self, k: int, rows: slice) -> bool:
        """Whether the condition bound clears every column of ``rows`` of the
        residual guard: ``trace(M) trace(M^-1)`` within ``_SCREEN / (k + 1)``,
        and ``trace(M)`` and ``max |beta|`` finite and within ``_RANGE`` (see
        ``_SCREEN``).  Uses the fit's scratch, after ``beta``."""
        path, beta = self.path, self.beta[:k + 1]
        diagonal = self.moment.take(self.index[path, path], axis=0, out=self.work[:k + 1],
                                    mode="clip")
        trace = diagonal.sum(axis=0, out=self.bound)
        size = np.abs(beta, out=self.spare[:k + 1]).max(axis=0, out=self.scale)
        bound = np.multiply(trace, self.trace_inv[k], out=self.work[0])
        trace, size = trace[rows], size[rows]
        return bool(bound[rows].max() <= _SCREEN / (k + 1)
                    and 1.0 / _RANGE <= trace.min() and trace.max() <= _RANGE
                    and 1.0 / _RANGE <= size.min() and size.max() <= _RANGE)

    def solve(self, horizon: int) -> np.ndarray:
        """:meth:`fit`, raising the first guard message if a column failed."""
        beta, faults = self.fit(horizon)
        if faults:
            raise SingularMomentError(next(iter(faults.values())))
        return beta


def _at(first: int | None, t: int) -> str:
    """Where a guard fired: time ``first + t``, or nothing for a whole series."""
    return "" if first is None else f" at time {first + t}"


class _BorderedSolver(_Bordering):
    """Prefix least squares for every lag subset of a top lag: the bordering
    of :class:`_Bordering` over moments gathered from a :class:`_CrossProducts`.

    The solver holds the fits of one or more horizons ``(hh, first, last)``:
    the direct fit at horizon hh on each prefix ``x_1..x_i``, i = first..last.
    Its columns are the union of their window uppers (two at least), and
    :meth:`load` gathers, for a top lag L up to ``capacity``, the packed
    moment matrices of the lag order (L, 1, ..., L-1) in one (L(L+1)/2, T)
    stack and each horizon's right-hand sums in an (L, T) one (zero outside
    its own uppers).  Every buffer is sized once, for ``capacity``.
    :meth:`visit` is the one walk over a family of lag sets.
    """

    def __init__(self, table: _CrossProducts, capacity: int,
                 spans: Sequence[tuple[int, int, int]], floor: float = 0.0) -> None:
        low = min(first - hh for hh, first, _ in spans)
        high = max(last - hh for hh, _, last in spans)
        low -= low == high
        count = high - low + 1
        self.table, self.spans, self.low = table, list(spans), low
        self.lags: tuple[int, ...] = ()
        super().__init__(
            np.empty((_triangle(capacity), count)), np.zeros((len(spans), capacity, count)),
            [(f"sequential direct fit h={hh}", first,
              slice(first - hh - low, last - hh - low + 1)) for hh, first, last in spans],
            floor)

    def load(self, top: int) -> None:
        """Gather the moment and right-hand sums of top lag ``top``."""
        self.node = ()
        offsets = (top - 1,) + tuple(range(top - 1))
        uppers = range(self.low, self.low + self.moment.shape[1])
        self.table.moment_rows(offsets, top, uppers, self.moment[:_triangle(top)])
        for (hh, first, last), (_, _, rows), rhs in zip(self.spans, self.horizons, self.rhs):
            self.table.rhs_rows(offsets, hh, top, range(first - hh, last - hh + 1),
                                rhs[:top, rows])

    def visit(self, lag_sets: Sequence[tuple[int, ...]]) -> Iterator[int]:
        """Descend to each set of sorted one-based lags in ``lag_sets`` and yield
        its index, with ``lags`` its lags in coefficient-row order (top first).

        The sets are visited by top lag, each top lag loaded once, and then
        depth first, each after the paths leading to it.
        """
        # A set's path: the positions of its lags in the order (top, 1, ..., top - 1).
        paths = [(0,) + lags[:-1] for lags in lag_sets]
        top = 0
        for index in sorted(range(len(lag_sets)), key=lambda j: (lag_sets[j][-1], paths[j])):
            lags = lag_sets[index]
            if lags[-1] != top:
                top = lags[-1]
                self.load(top)
            self.walk_to(paths[index])
            self.lags = lags[-1:] + lags[:-1]
            yield index


# ---------------------------------------------------------------------------
# streaming interface

#: Prefixes whose fits :func:`sequential_fitter` solves at a time.
_STREAM_CHUNK = 256


def sequential_fitter(series: Series, h: int, max_order: int,
                      well_defined_from: int | None = None,
                      ) -> Iterator[tuple[int, dict[int, LsFit] | None]]:
    """Yield ``(i, fits)`` with one :class:`LsFit` per order for each prefix.

    The stream starts at the smallest i where all orders up to
    ``max_order`` have at least as many usable windows as parameters and
    runs through ``n - h``.  A prefix whose moment matrix is singular or
    ill-conditioned is yielded as ``(i, None)`` while ``i`` is still below
    ``well_defined_from``; at or past that point singularity is an
    error, because the caller has certified the stream usable from there.

    Every order's fits on a run of prefixes come from one bordered solver
    visiting the dense paths, under the conditioning floor of the
    whole-series fits, so every yielded coefficient vector is the one the
    APE functions use on the same prefix.
    """
    if h < 1 or max_order < 1:
        raise ValueError("horizon and max_order must be >= 1")
    first, last = 2 * max_order + h - 1, series.n - h
    cp = _CrossProducts(series.values, h, max_order)
    dense = [_order_lags(k) for k in range(1, max_order + 1)]
    for lo in range(first, last + 1, _STREAM_CHUNK):
        hi = min(lo + _STREAM_CHUNK - 1, last)
        solver = _BorderedSolver(cp, max_order, [(1, lo, hi), (h, lo, hi)], _FLOOR)
        orders = [_prefix_fits(solver, h, lo, hi) for _ in solver.visit(dense)]
        for t, i in enumerate(range(lo, hi + 1)):
            fits: dict[int, LsFit] = {}
            try:
                for k, counts, gammas, one, direct, faults in orders:
                    fault = faults[0].get(t) or faults[1].get(t)
                    if fault:
                        raise SingularMomentError(fault)
                    a_plugin = one[t] if h == 1 else iterate_plugin_coeffs(one[t], h)
                    fits[k] = LsFit(horizon=h, order=k, gamma_hat=gammas[t],
                                    a_one_step=one[t], a_plugin=a_plugin,
                                    a_direct=direct[t], n_used=int(counts[t]))
            except SingularMomentError:
                if well_defined_from is not None and i >= well_defined_from:
                    raise
                yield i, None
                continue
            yield i, fits


def _prefix_fits(solver: _BorderedSolver, h: int, lo: int, hi: int) -> tuple:
    """The fits of the dense order ``solver`` has just visited, on prefixes
    ``lo..hi``, for :func:`sequential_fitter`: (k, window counts, sample
    moments, one-step and direct coefficient rows, and each horizon's guard
    messages by row)."""
    k = len(solver.lags)
    counts = np.arange(lo, hi + 1) - h - k + 1
    # Lags 1..k-1 sit at positions 1..k-1 of the solver's lag order, lag k at 0.
    gammas = _unpack(solver.moment[:, solver.horizons[1][2]],
                     [*range(1, k), 0]) / counts[:, None, None]
    one, one_faults = solver.fit(0)
    one = _lags_ascending(one)
    direct, direct_faults = solver.fit(1)
    direct = _lags_ascending(direct)
    return k, counts, gammas, one, direct, (one_faults, direct_faults)
