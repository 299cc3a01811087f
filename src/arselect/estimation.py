"""Least-squares fitting of multistep predictors from one observed series.

All index conventions are one-based in the math and documented per
function; internally ``values[j - 1]`` holds the j-th observation.  The
order-k regressor at time j is ``(x_j, x_{j-1}, ..., x_{j-k+1})`` and a
fit at horizon h on a prefix ``x_1..x_i`` only ever touches those i
observations, which is what makes the accumulated-prediction-error
statistics honest out-of-sample quantities.

One guarded solver serves every fit.  :class:`_Bordering` solves the
normal equations of any lag path with one column per system, reading
every moment entry by one gather (:func:`_window_sums`), order-recursively:
a candidate's inverse Cholesky factor is its parent's bordered by one row,
and the factor is held dense, so each product of a step is one
contraction.  Its guards are a pivot test and a normal-equation residual
test, which a condition bound kept by the walk skips where it cannot fire,
and whole-series fits add a floor on the least relative pivot in place of
a condition-number ceiling.  The public batch fits (:func:`fit_one_step`,
:func:`fit_direct`, :func:`fit_plugin` and their lag-subset variants) work
on a whole series, and :func:`forecast` applies them as one sequential sum
over the lags; each is the one-row case of :func:`_fit_rows`, which stacks
each row of a block of series as one column and which the Monte Carlo
driver runs a block at a time.  The prefix fits read
:class:`_CrossProducts`, one table of cumulative cross products with a row
per lag difference (K + h rows for max lag K at horizon h): the window
sums of any set of entries are one gather of their slices of the flat
table less their values at the window start.  :class:`_BorderedSolver`
reads the entries each step needs from it on demand, so one depth-first
walk per top lag serves every mask and both horizons without a moment
stack, and a dense order k is the single path (k, 1, ..., k-1).  The APE
functions of ``ape`` are its only drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
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
    "fit_one_step",
    "fit_direct",
    "fit_plugin",
    "predict_with",
    "forecast",
    "masked_fit_direct",
    "masked_fit_plugin",
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


# ---------------------------------------------------------------------------
# batch (whole-series) fits

#: Least relative pivot ``d^2 / m_vv`` along its path that a whole-series fit
#: accepts.  ``m_vv / d^2`` is at most the condition number of the moment
#: matrix, so the floor rejects only fits that the ceiling ``COND_GUARD`` on
#: that condition number rejects.
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

#: The reductions of the guards, called as ufunc methods: ``_max(x)`` is
#: ``x.max()`` without the method's Python wrapper.
_min, _max = np.minimum.reduce, np.maximum.reduce


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
    bits = tuple(map(int, candidate))
    if not bits or not {*bits} <= {0, 1}:
        raise ValueError("mask must be a nonempty sequence of 0/1 flags")
    lags = tuple(compress(range(1, len(bits) + 1), bits))
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


def _overflow_error(values: np.ndarray, what: str) -> SeriesOverflowError:
    return SeriesOverflowError(f"series overflows: values up to "
                               f"{np.max(np.abs(values)):.3e} make its {what} non-finite")


def _fit_rows(block: np.ndarray, h: int, lags: tuple[int, ...], width: int,
              plugin: bool) -> tuple[np.ndarray, dict[int, str]]:
    """Whole-series fits of every row of a (rows, n) block, on sorted one-based
    ``lags`` in a ``width``-lag window, and the guard message of each row
    whose fit failed (its coefficients are nan).

    The direct fit stacks each row's ``W'W`` and ``W'y``, lags in path order
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
        return iterate_plugin_coeffs(one, h), faults
    (rows, n), k, j0 = block.shape, len(lags), lags[-1]
    _require_windows(n, h, j0)
    # The window columns of the lags in path order (top lag first), then the
    # target's: their products are W'W, then a row W'y (y'y is not formed).
    count, starts = n - h - j0 + 1, [j0 - lag for lag in lags[-1:] + lags[:-1]] + [j0 + h - 1]
    products = np.empty((k + 1, k, rows))
    with np.errstate(all="ignore"):
        for a in range(k + 1):
            for b in range(min(a + 1, k)):
                np.einsum("rt,rt->r", block[:, starts[a]: starts[a] + count],
                          block[:, starts[b]: starts[b] + count], out=products[a, b])
                if b < a < k:
                    products[b, a] = products[a, b]
        if not np.isfinite(products).all():
            raise _overflow_error(block, "cross products")
        if rows == 1:
            # The bordering sums over lags in one loop over two columns or
            # more, so a lone series is fit next to a copy of its products.
            products = np.repeat(products, 2, axis=2)
        # W'W's k * k entries are the solver's slices, read at no offset.
        solver = _Bordering(products[:k].reshape(k * k, -1), np.arange(k * k).reshape(k, k),
                            np.zeros((k, k, 1)), products[None, k],
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
    return float(_lag_sum(series.values[None], range(1, k + 1), coeffs[None])[0])


def _lag_sum(block: np.ndarray, lags: Sequence[int], coeffs: np.ndarray) -> np.ndarray:
    """(rows,) forecasts ``sum_j coeffs[:, j] x_{n+1-lags[j]}`` of each row of a
    (rows, n) block, summed from zero one lag at a time in the order of
    ``lags``: the rounding of numpy's dot over a reversed lag window, so an
    order, its full mask and a row alone or in a block agree bit for bit."""
    n = block.shape[1]
    out = np.zeros(block.shape[0])
    for lag, column in zip(lags, coeffs.T):
        out += block[:, n - lag] * column
    return out


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
                   ) -> tuple[np.ndarray, dict[int, str]]:
    """(rows,) :func:`forecast` from every row of a (rows, n) block, and the
    guard message of each row whose fit failed (its forecast is nan).  A
    plug-in fit weighs every lag of its window, a direct one its own lags."""
    lags, width, _, plugin = _check_forecast(block.shape[1], h, candidate, method)
    coeffs, faults = _fit_rows(block, h, lags, width, plugin)
    return _lag_sum(block, _order_lags(width) if plugin else lags, coeffs), faults


def forecast(series: Series, h: int, candidate, method: Method) -> float:
    """Forecast ``x_{n+h}`` from a fit of one candidate on the whole series.

    ``candidate`` is an order k or a 0/1 mask over a lag window (newest
    lag first).  A plug-in mask fit is applied to the full window, a
    direct mask fit to the flagged lags only.
    """
    forecasts, faults = _forecast_rows(series.values[None], h, candidate, method)
    if faults:
        raise SingularMomentError(faults[0])
    return float(forecasts[0])


# ---------------------------------------------------------------------------
# prefix machinery


def _slices(values: np.ndarray, count: int) -> np.ndarray:
    """(n - count + 1, count) view of a contiguous 1-D array: row e is
    ``values[e: e + count]``."""
    step = values.itemsize
    return np.ndarray((values.size - count + 1, count), buffer=values, strides=(step, step))


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
        lagged = _slices(np.concatenate((np.zeros(rows - 1), values)), n)[::-1]
        self._table = np.zeros((rows, n + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(values, lagged, out=self._table[:, 1:])
            np.cumsum(self._table, axis=1, out=self._table)
        # A cumulative sum that overflows stays inf (or nan) to its end;
        # rows max_offset + 1 .. horizon - 1 are never read.
        if not np.isfinite(self._table[np.r_[:max_offset + 1, horizon:rows], -1]).all():
            raise _overflow_error(values, "cumulative cross products")

    def pair_entries(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Flat-table entry of the moment sums of each (broadcast) offset pair
        ``(left, right)`` at upper 0: row ``|left - right|``, shifted by the
        smaller offset."""
        return np.abs(left - right) * self._table.shape[1] - np.minimum(left, right)

    def moments(self, offsets: Sequence[int], j0: int, uppers: range) -> np.ndarray:
        """(uppers, m, m) moment-sum matrices of ``offsets`` for windows j = j0..u,
        every entry of every upper gathered by one index (the stacks are short:
        a probe step's windows, or one sequential block)."""
        column = np.asarray(offsets)
        first = self.pair_entries(column[:, None], column)
        flat = self._table.reshape(-1)
        return flat[np.asarray(uppers)[:, None, None] + first] - flat[j0 - 1 + first]

    def rhs_rows(self, offsets: Sequence[int], hh: int, j0: int, uppers: range,
                 out: np.ndarray) -> None:
        """Right-hand sums at horizon hh for windows j = j0..u <= n - hh into
        ``out``: one row per offset, one column per upper."""
        self._entries((np.asarray(offsets) + hh) * self._table.shape[1] + hh, j0, uppers, out)

    def _entries(self, first: np.ndarray, j0: int, uppers: range,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Entry ``first`` of each window j0..u into ``out`` or a new array, one
        row per entry and one column per upper (see :func:`_window_sums`)."""
        return _window_sums(self.slices(len(uppers)), *self.bounds(first, j0, uppers[0]), out)

    def bounds(self, first: np.ndarray, j0: int, lower: int) -> tuple[np.ndarray, np.ndarray]:
        """For each entry ``first``: the row of :meth:`slices` holding its values
        from the upper ``lower`` on, and its value at ``j0 - 1`` (on a
        trailing axis), the two terms of :func:`_window_sums`."""
        return lower + first, self._table.reshape(-1)[j0 - 1 + first][..., None]

    def slices(self, size: int) -> np.ndarray:
        """View of the flat table whose row e is its entries e..e + size - 1."""
        return _slices(self._table.reshape(-1), size)


def _window_sums(slices: np.ndarray, starts: np.ndarray, bases: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Rows ``slices[starts]`` less ``bases`` into ``out`` or a new array: one
    gather of each entry's slice of the flat table, less the entry at j0 - 1
    (the subtractions of a loop over the entries, in one call)."""
    rows = slices[starts]
    rows -= bases
    if out is None:
        return rows
    out[...] = rows
    return out


def _lags_ascending(beta: np.ndarray) -> np.ndarray:
    """(columns, k) coefficients, lags ascending, of (k, columns) ones in path
    order: the top lag moves from first to last."""
    return np.concatenate((beta[1:], beta[:1])).T.copy()


class _Bordering:
    """Least squares for every path of lag positions of one symmetric moment
    matrix per column, by bordering.

    The entries of positions (l, r), one per column, are row ``starts[l,
    r]`` of ``slices`` less ``bases[l, r]``, so any set of them is one
    gather of :func:`_window_sums`: a whole-series fit passes its products,
    an index grid and zero bases, and :class:`_BorderedSolver` its table's
    slices and each top lag's bounds.  ``rhs`` (horizons, positions,
    columns) holds each horizon's right-hand sums, and ``horizons`` names
    its fits as ``(name, first, columns)``: a fit reads the slice
    ``columns``, and its guard messages give column t as time ``first +
    t`` unless ``first`` is ``None``.  A positive ``floor`` is a
    conditioning test on every fit; the whole-series fits pass one, and
    the prefix fits of :class:`_BorderedSolver` none.

    A candidate is a path of positions ``(0, a_1 < a_2 < ...)``, and its
    parent is the path without its last position.  The inverse Cholesky
    factor U of a candidate's moment matrix (``U M U' = I``) is its
    parent's plus one row, so a depth-first walk that calls :meth:`descend`
    on each path after its parent keeps, in the dense lower-triangular
    ``factor`` (zero above its diagonal), the rows of every path from the
    root to the current one.  The new row is ``[-g/d, 1/d]`` with ``c = U
    b``, ``g = U' c`` and ``d = sqrt(m_vv - c.c)`` for the new lag's cross
    moments ``b`` and ``m_vv``; ``z = U r`` grows by one entry, and
    :meth:`fit` gives ``beta = U' z``.  Each product is one contraction
    over the factor's leading block.  The walk keeps, per depth,
    ``trace(M)`` and ``trace(M^-1) = |U|_F^2``, whose product, an upper
    bound on the condition number, screens :meth:`fit`'s residual.  Under a
    floor it also keeps, per depth, the least relative pivot ``d^2 / m_vv``
    along the path: ``m_vv / d^2`` is at most the condition number of the
    path's moment matrix.  Stacks are lag-major, so a sum over lags runs
    the same loop over at least two columns whatever the columns, horizons
    or walk: a path's coefficients do not depend on what else shares the
    stack.

    The unit of the walk is one path: :meth:`descend` borders the factor
    with one lag in eighteen array calls over every column, twenty under a
    floor (the new lag's cross moments are one gather of four calls: the
    pairs' starts and bases, their slices and one subtraction; ``c.c``
    and each horizon's ``c.z`` are one contraction), and the guards'
    column-wide verdicts are taken once per path, for every horizon
    (:meth:`_verdict`).  :meth:`descend` and :meth:`fit` run in their
    caller's floating-point error scope: each walk (the APE family, one
    candidate's APE and the whole-series fits) opens one scope that ignores
    every error, since the guards check every pivot, coefficient and
    residual the walk makes.  The walk holds the factor, ``z``, the traces
    and one row stack of scratch, and no state of paths other than the
    current one: stacking a node's children would hold each child's factor
    row, ``z`` and traces until the walk reached it, about 1.7 MB at a
    window of 8 lags and 1000 observations, where the walk's own arrays
    take about 1 MB.
    """

    def __init__(self, slices: np.ndarray, starts: np.ndarray, bases: np.ndarray,
                 rhs: np.ndarray, horizons: Sequence[tuple[str, int | None, slice]],
                 floor: float = 0.0) -> None:
        capacity, count = rhs.shape[1:]
        self.slices, self.starts, self.bases = slices, starts, bases
        self.rhs, self.horizons = rhs, list(horizons)
        self.factor = np.zeros((capacity, capacity, count))
        # Row 0 is scratch, descend's projection c = U b and then fit's beta;
        # rows 1.. hold z, one per horizon.  descend takes c.c and every c.z
        # in one contraction, into ``sums``, whose row 0 is the pivot.
        self.stack = np.empty((1 + len(rhs), capacity, count))
        self.beta, self.z = self.stack[0], self.stack[1:]
        self.sums = np.empty((1 + len(rhs), count))
        self.pivot = self.sums[0]
        self.trace, self.trace_inv = np.empty((2, capacity, count))
        self.floor = floor
        self.least = np.empty((capacity, count)) if floor else None
        self.scale, self.bound = np.empty((2, count))
        self.node: tuple[int, ...] = ()
        self.path = np.empty(0, dtype=np.intp)
        self.verdict: tuple[bool, bool] | None = None

    def _gather(self, left: np.ndarray, right: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """Moment entries of the (broadcast) position pairs ``(left, right)``,
        one row per pair, into ``out`` or a new array (:func:`_window_sums`)."""
        return _window_sums(self.slices, self.starts[left, right], self.bases[left, right], out)

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
        self.node, self.path, self.verdict = path, np.array(path), None
        factor, inv = self.factor[:k, :k], self.factor[k, k]
        pivot, least = self.pivot, self.least
        # The new lag's cross moments with its parent's lags, then its own.
        cross = self._gather(self.path[-1], self.path)
        if not k:
            np.copyto(self.trace[0], cross[0])
            np.sqrt(cross[0], out=inv)
            np.copyto(pivot, cross[0])
            if least is not None:
                np.divide(pivot, cross[0], out=least[0])  # nan for a zero moment
            np.divide(1.0, inv, out=inv)
            np.multiply(inv, inv, out=self.trace_inv[0])
            np.multiply(self.rhs[:, path[0]], inv, out=self.z[:, 0])
            return
        np.add(cross[k], self.trace[k - 1], out=self.trace[k])
        proj = np.einsum("ajt,jt->at", factor, cross[:k], out=self.beta[:k])  # c = U b
        sums = np.einsum("jt,hjt->ht", proj, self.stack[:, :k], out=self.sums)
        np.subtract(cross[k], pivot, out=pivot)  # pivot is sums[0] = c.c
        np.sqrt(pivot, out=inv)
        if least is not None:
            np.divide(pivot, cross[k], out=least[k])
            np.minimum(least[k - 1], least[k], out=least[k])
        del cross
        np.divide(1.0, inv, out=inv)
        row = self.factor[k, :k]  # g = U' c, stored as -g/d
        np.einsum("ajt,at->jt", factor, proj, out=row)
        row *= inv
        np.negative(row, out=row)
        row = self.factor[k, :k + 1]  # with its diagonal 1/d
        np.einsum("jt,jt->t", row, row, out=self.trace_inv[k])
        self.trace_inv[k] += self.trace_inv[k - 1]
        z = self.z[:, k]
        np.subtract(self.rhs[:, path[-1]], sums[1:], out=z)
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
        rhs = self.rhs[horizon]
        if not self._verdict(k)[0]:
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
        beta = np.einsum("ijt,it->jt", self.factor[:k + 1, :k + 1], self.z[horizon, :k + 1],
                         out=self.beta[:k + 1])
        if not faults and self._cleared(k, rows):
            return beta[:, rows], faults
        work = np.abs(beta)
        work.max(axis=0, out=self.scale)
        np.abs(rhs[path], out=work).max(axis=0, out=self.bound)
        span = np.zeros_like(self.scale)  # the largest |moment entry| of the path
        for a in range(k + 1):  # the residual, one row of the path's moments at a time
            row = self._gather(path[a], path)
            np.einsum("jt,jt->t", row, beta, out=work[a])
            work[a] -= rhs[path[a]]
            np.maximum(span, np.abs(row, out=row).max(axis=0), out=span)
        scale = self.scale
        scale *= span
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

    def _verdict(self, k: int) -> tuple[bool, bool]:
        """Whether every column of the path just descended to has a positive,
        finite pivot (and a least relative pivot at the floor), and whether
        every column passes the condition-bound and ``trace(M)`` parts of the
        screen of :meth:`_cleared`.  Both are taken once per path, over all
        columns, so they hold for the columns of every horizon; where one
        does not, a fit checks its own columns."""
        if self.verdict is None:
            pivot, trace = self.pivot, self.trace[k]
            bound = np.multiply(trace, self.trace_inv[k], out=self.bound)
            self.verdict = (
                bool(_min(pivot) > 0.0 and _max(pivot) < np.inf
                     and (self.least is None or _min(self.least[k]) >= self.floor)),
                bool(_max(bound) <= _SCREEN / (k + 1)
                     and 1.0 / _RANGE <= _min(trace) and _max(trace) <= _RANGE))
        return self.verdict

    def _cleared(self, k: int, rows: slice) -> bool:
        """Whether the condition bound clears every column of ``rows`` of the
        residual guard: ``trace(M) trace(M^-1)`` within ``_SCREEN / (k + 1)``,
        and ``trace(M)`` and ``max |beta|`` finite and within ``_RANGE`` (see
        ``_SCREEN``).  The first two come from :meth:`_verdict` where it
        clears every column.  Uses the fit's scratch, after ``beta``."""
        size = _max(np.abs(self.beta[:k + 1]), axis=0, out=self.scale)[rows]
        if not (1.0 / _RANGE <= _min(size) and _max(size) <= _RANGE):
            return False
        if self._verdict(k)[1]:
            return True
        trace = self.trace[k, rows]
        bound = np.multiply(self.trace[k], self.trace_inv[k], out=self.bound)[rows]
        return bool(_max(bound) <= _SCREEN / (k + 1)
                    and 1.0 / _RANGE <= _min(trace) and _max(trace) <= _RANGE)

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
    of :class:`_Bordering` over moments read from a :class:`_CrossProducts`.

    The solver holds the fits of one or more horizons ``(hh, first, last)``:
    the direct fit at horizon hh on each prefix ``x_1..x_i``, i = first..last.
    Its columns are the union of their window uppers (two at least).  For a
    top lag L up to ``capacity``, positions are the lag order (L, 1, ...,
    L-1): :meth:`load` gathers each horizon's right-hand sums in an (L, T)
    stack (zero outside its own uppers) and the table bounds of every pair of
    its positions, and :meth:`descend` reads the moment entries it needs
    from the table in one gather, so no moment stack is held.  Every buffer
    is sized once, for ``capacity``.  :meth:`visit` is the one walk over a
    family of lag sets.
    """

    def __init__(self, table: _CrossProducts, capacity: int,
                 spans: Sequence[tuple[int, int, int]]) -> None:
        low = min(first - hh for hh, first, _ in spans)
        high = max(last - hh for hh, _, last in spans)
        low -= low == high
        self.table, self.spans, self.uppers = table, list(spans), range(low, high + 1)
        self.lags: tuple[int, ...] = ()
        self.offsets = np.empty(0, dtype=np.intp)
        super().__init__(
            table.slices(len(self.uppers)), self.offsets, self.offsets,
            np.zeros((len(spans), capacity, len(self.uppers))),
            [(f"sequential direct fit h={hh}", first,
              slice(first - hh - low, last - hh - low + 1)) for hh, first, last in spans])

    def load(self, top: int) -> None:
        """Gather the right-hand sums of top lag ``top`` and the table bounds of
        every pair of its positions."""
        self.node = ()
        self.offsets = np.array((top - 1,) + tuple(range(top - 1)))
        self.starts, self.bases = self.table.bounds(
            self.table.pair_entries(self.offsets[:, None], self.offsets), top, self.uppers[0])
        for (hh, first, last), (_, _, rows), rhs in zip(self.spans, self.horizons, self.rhs):
            self.table.rhs_rows(self.offsets, hh, top, range(first - hh, last - hh + 1),
                                rhs[:top, rows])

    def visit(self, lag_sets: Sequence[tuple[int, ...]]) -> Iterator[int]:
        """Descend to each set of sorted one-based lags in ``lag_sets`` and yield
        its index, with ``lags`` its lags in coefficient-row order (top first).

        The sets are visited by top lag, each top lag loaded once, and then
        depth first, each after the paths leading to it, one set at a time: a
        caller that raises on a set's fits raises in this visit order.
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
