"""Population-level forecasting theory for a known stationary autoregression.

Everything here is deterministic: moving-average weights and
autocovariances implied by the model, optimal h-step projection
coefficients, the asymptotic excess-MSPE constants of the plug-in and
direct predictors, and the loss tables / optimal candidate sets that the
data-driven selection procedure is trying to hit.

Conventions
-----------
A model of order p with coefficients ``a = (a_1, ..., a_p)`` generates

    x_t = a_1 x_{t-1} + ... + a_p x_{t-p} + e_t,

with i.i.d. innovations of variance ``sigma2``.  Lag vectors are ordered
newest first: the order-k regressor at time t is
``(x_t, x_{t-1}, ..., x_{t-k+1})``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Mapping

import numpy as np

from .errors import (
    DegenerateHorizonError,
    InsufficientLagsError,
    NonPositiveVarianceError,
    NonStationaryError,
    OutOfDomainError,
    SingularGammaError,
    SingularYuleWalkerError,
    SubsetTooLargeError,
    UnderspecifiedOrderError,
    ZeroLeadCoefficientError,
)
from .methods import Method
from .tolerances import (
    COND_GUARD,
    STATIONARITY_MARGIN,
    SUBSET_ORDER_CAP,
    TOL_TIE,
    TOL_ZERO,
)

__all__ = [
    "ArModel",
    "MaCoefficients",
    "AutocovarianceTable",
    "LossTable",
    "DriftResult",
    "companion_matrix",
    "spectral_radius",
    "iterate_plugin_coeffs",
    "ma_coefficients",
    "horizon_variance",
    "autocovariances",
    "optimal_direct_coeffs",
    "h_step_order",
    "plugin_excess_constant",
    "direct_excess_constant",
    "three_step_excess_ratio",
    "required_masks",
    "loss_table",
    "subset_loss_table",
    "optimal_candidates",
    "underfit_ape_drift",
]


# ---------------------------------------------------------------------------
# model


def companion_matrix(coeff_vec) -> np.ndarray:
    """Companion matrix of a coefficient vector.

    The first row holds the coefficients; the rows below shift the lag
    window down by one.  Its spectral radius is below one exactly when
    the coefficients are stationary.

    Parameters
    ----------
    coeff_vec : array_like
        Coefficients ``(a_1, ..., a_k)``, newest lag first.

    Returns
    -------
    numpy.ndarray
        A ``k x k`` matrix with ``coeff_vec`` as first row and ones on
        the subdiagonal.
    """
    a = np.atleast_1d(np.asarray(coeff_vec, dtype=float))
    if a.ndim != 1 or a.size == 0:
        raise ValueError("coefficient vector must be a nonempty 1-D sequence")
    k = a.size
    mat = np.zeros((k, k))
    mat[0] = a
    if k > 1:
        mat[np.arange(1, k), np.arange(k - 1)] = 1.0
    return mat


def spectral_radius(matrix) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(matrix, dtype=float)))))


@dataclass(frozen=True)
class ArModel:
    """A validated stationary autoregression with known coefficients.

    Parameters
    ----------
    coeffs : array_like
        ``(a_1, ..., a_p)`` with a nonzero last entry (the order is exact).
    sigma2 : float
        Innovation variance, strictly positive.

    Raises
    ------
    ZeroLeadCoefficientError
        If the last coefficient is zero.
    NonPositiveVarianceError
        If ``sigma2 <= 0``.
    NonStationaryError
        If the companion spectral radius reaches ``1 - STATIONARITY_MARGIN``.
    """

    coeffs: np.ndarray
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coeffs must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "sigma2", float(self.sigma2))
        if self.sigma2 <= 0.0 or not math.isfinite(self.sigma2):
            raise NonPositiveVarianceError(
                f"innovation variance must be positive, got {self.sigma2}")
        if coeffs[-1] == 0.0:
            raise ZeroLeadCoefficientError(
                "last coefficient is zero; drop it and declare the true order")
        radius = spectral_radius(companion_matrix(coeffs))
        if radius >= 1.0 - STATIONARITY_MARGIN:
            raise NonStationaryError(
                f"companion spectral radius {radius:.12g} is not below "
                f"{1.0 - STATIONARITY_MARGIN}")

    @property
    def order(self) -> int:
        """The autoregressive order p."""
        return int(self.coeffs.size)


# ---------------------------------------------------------------------------
# moving-average weights and autocovariances


@dataclass(frozen=True)
class MaCoefficients:
    """Leading weights ``b_0, b_1, ...`` of the model's moving-average form."""

    b: np.ndarray

    @property
    def truncation(self) -> int:
        """Index of the last stored weight."""
        return int(self.b.size - 1)


def ma_coefficients(model: ArModel, n_terms: int) -> MaCoefficients:
    """Moving-average weights of the model.

    ``b_0 = 1`` and ``b_i = sum_{j=1}^{min(i,p)} a_j b_{i-j}``; exactly
    ``b_0..b_{n_terms}`` are returned.
    """
    a = model.coeffs
    p = model.order
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    b = np.zeros(n_terms + 1)
    b[0] = 1.0
    for i in range(1, n_terms + 1):
        m = min(i, p)
        b[i] = float(np.dot(a[:m], b[i - 1::-1][:m]))
    return MaCoefficients(b)


def horizon_variance(model: ArModel, h: int) -> float:
    """Irreducible variance of an h-step-ahead forecast.

    This is ``sigma2 * (b_0^2 + ... + b_{h-1}^2)``, the error variance
    of the best possible predictor given the infinite past.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    b = ma_coefficients(model, n_terms=h - 1).b
    return float(model.sigma2 * np.dot(b, b))


@dataclass(frozen=True)
class AutocovarianceTable:
    """Autocovariances ``gamma_0 .. gamma_M`` of a stationary model."""

    gamma: np.ndarray

    @property
    def max_lag(self) -> int:
        return int(self.gamma.size - 1)

    def value(self, lag: int) -> float:
        """``gamma_lag``; symmetric in the sign of ``lag``."""
        j = abs(int(lag))
        if j > self.max_lag:
            raise InsufficientLagsError(
                f"autocovariances available only up to lag {self.max_lag}, "
                f"asked for {lag}")
        return float(self.gamma[j])

    def gamma_matrix(self, k: int) -> np.ndarray:
        """Order-k autocovariance matrix (symmetric Toeplitz)."""
        if k < 1:
            raise ValueError("matrix order must be >= 1")
        if k - 1 > self.max_lag:
            raise InsufficientLagsError(
                f"need lags up to {k - 1}, table stops at {self.max_lag}")
        return _toeplitz(self.gamma[:k])


def _toeplitz(column: np.ndarray) -> np.ndarray:
    """Symmetric Toeplitz matrix ``T[r, s] = column[|r - s|]`` (exact copies)."""
    lags = np.arange(column.size)
    return column[np.abs(lags[:, None] - lags)]


def autocovariances(model: ArModel, max_lag: int) -> AutocovarianceTable:
    """Autocovariances of the model up to ``max_lag``.

    The first ``p + 1`` values solve the Yule-Walker system; the rest
    follow from the recursion ``gamma_j = sum_i a_i gamma_{j-i}``.  A
    subnormal ``sigma2``, or one whose autocovariances overflow, raises
    ``OutOfDomainError``.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    a = model.coeffs
    p = model.order
    upto = max(max_lag, p)

    system = np.zeros((p + 1, p + 1))
    rhs = np.zeros(p + 1)
    system[0, 0] = 1.0
    for i in range(1, p + 1):
        system[0, i] -= a[i - 1]
    rhs[0] = model.sigma2
    for j in range(1, p + 1):
        system[j, j] += 1.0
        for i in range(1, p + 1):
            system[j, abs(j - i)] -= a[i - 1]
    _check_condition(system, SingularYuleWalkerError, "Yule-Walker system")
    try:
        head = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularYuleWalkerError(str(exc)) from exc

    gamma = np.zeros(upto + 1)
    gamma[: p + 1] = head
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is checked below
        for j in range(p + 1, upto + 1):
            gamma[j] = float(np.dot(a, gamma[j - p: j][::-1]))
    # The pivots of Gamma(k) are prediction-error variances, none below
    # sigma2, so a subnormal sigma2 would cost the solves their precision.
    if not (np.isfinite(gamma).all() and model.sigma2 >= np.finfo(float).tiny):
        raise OutOfDomainError(
            f"innovation variance sigma2 = {model.sigma2!r} is subnormal or "
            "overflows the autocovariances")
    return AutocovarianceTable(gamma[: max_lag + 1])


def _check_condition(mat: np.ndarray, error: type, label: str) -> None:
    """Raise ``error`` if ``mat``'s condition number is not finite or above
    ``COND_GUARD``: the one conditioning guard of the theory solves."""
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > COND_GUARD:
        raise error(f"{label} condition number {cond:.3e} exceeds guard")


def _checked_gamma(table: AutocovarianceTable, k: int) -> np.ndarray:
    """``Gamma(k)`` once its conditioning guard has passed."""
    gam = table.gamma_matrix(k)
    _check_condition(gam, SingularGammaError, "autocovariance matrix")
    return gam


# ---------------------------------------------------------------------------
# optimal projection coefficients


def optimal_direct_coeffs(table: AutocovarianceTable, h: int, k: int) -> np.ndarray:
    """Best linear predictor of ``x_{t+h}`` from the order-k lag window.

    Solves ``Gamma(k) a = (gamma_h, ..., gamma_{h+k-1})``.  The table
    must extend through lag ``h + k - 1``.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    if k < 1:
        raise ValueError("order must be >= 1")
    if h + k - 1 > table.max_lag:
        raise InsufficientLagsError(
            f"need lags up to {h + k - 1}, table stops at {table.max_lag}")
    return np.linalg.solve(_checked_gamma(table, k), table.gamma[h: h + k])


def iterate_plugin_coeffs(one_step: np.ndarray, h: int) -> np.ndarray:
    """Map one-step coefficients to their h-step plug-in iterate.

    Applies the transposed companion matrix ``h - 1`` times; for
    ``h = 1`` the input is returned unchanged.  Equivalently this is the
    first row of the h-th companion-matrix power.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    vec = np.atleast_1d(np.asarray(one_step, dtype=float))
    if h == 1:
        return vec
    comp_t = companion_matrix(vec).T
    out = vec
    for _ in range(h - 1):
        out = comp_t @ out
    return out


def h_step_order(model: ArModel, h: int,
                 table: AutocovarianceTable | None = None) -> int:
    """Order of the h-step projection on the model's own lag window.

    The order-p direct coefficient vector at horizon h can have exactly
    zero trailing entries; this returns the length once entries at or
    below ``TOL_ZERO`` are stripped from the end.  A return of 0 means
    every coefficient vanished (the best h-step predictor is the mean),
    which callers should treat as degenerate.
    """
    return max(_inputs(model, h, model.order, table)[3][Method.DIRECT], default=-1) + 1


# ---------------------------------------------------------------------------
# asymptotic excess-MSPE constants


def _require_table(model: ArModel, table: AutocovarianceTable | None,
                   max_lag: int) -> AutocovarianceTable:
    if table is None or table.max_lag < max_lag:
        return autocovariances(model, max_lag)
    return table


def required_masks(model: ArModel, h: int, window: int
                   ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimal (plug-in, direct) masks on the window a candidate must
    contain for that method's excess constant to be finite."""
    required = _inputs(model, h, window)[3]
    return tuple(tuple(int(lag in required[method]) for lag in range(window))
                 for method in Method)


def _scaled(model: ArModel, trace: float) -> float:
    """An excess constant ``sigma2 * trace``, which must be finite: the
    constants are formed with overflow warnings off."""
    value = float(model.sigma2 * trace)
    if not math.isfinite(value):
        raise OutOfDomainError(f"excess constant is not finite at sigma2 = {model.sigma2!r}")
    return value


@np.errstate(over="ignore", invalid="ignore")
def _inputs(model: ArModel, h: int, window: int, table: AutocovarianceTable | None = None
            ) -> tuple[np.ndarray, np.ndarray, AutocovarianceTable, dict]:
    """``(b, u, table, required)`` for the constants of every candidate on
    windows up to ``window``, which must reach the model order.

    ``b = (b_0..b_{h-1})`` are the MA weights and ``u_e = sum_d w_d
    gamma_{d+e}`` for ``e < window``, ``w`` the autocorrelation of ``b``;
    the table reaches lag ``h + window - 1`` (``table`` where it does).
    ``required`` maps each method to the zero-based lags a candidate must
    hold for its constant to be finite: every lag with a nonzero model
    coefficient (the rule that fixes the model's order) for the plug-in
    predictor, and every lag whose order-p h-step projection coefficient
    exceeds ``TOL_ZERO`` for the direct one.  A candidate that misses one
    converges to a worse predictor, so it has no finite asymptotic excess.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    if window < model.order:
        raise UnderspecifiedOrderError(
            f"window {window} cannot carry the order-{model.order} model")
    table = _require_table(model, table, h + window - 1)
    b = ma_coefficients(model, n_terms=h - 1).b
    w, d_vals = np.correlate(b, b, mode="full"), np.arange(1 - h, h)
    u = np.array([np.dot(w, table.gamma[np.abs(d_vals + e)]) for e in range(window)])
    projection = optimal_direct_coeffs(table, h, model.order)
    return b, u, table, {
        Method.PLUGIN: tuple(np.flatnonzero(model.coeffs).tolist()),
        Method.DIRECT: tuple(np.flatnonzero(np.abs(projection) > TOL_ZERO).tolist())}


@np.errstate(over="ignore", invalid="ignore")
def _excess_constants(model: ArModel, inputs: tuple, masks: list[tuple[int, ...]],
                      methods: tuple[Method, ...] = tuple(Method),
                      ) -> dict[Method, dict[tuple[int, ...], float]]:
    """``{method: {mask: constant}}`` for each of ``methods`` and each lag
    mask on one window w, from the :func:`_inputs` of a window at least
    w: the one place a constant is formed.

    For the lags S of a mask, the plug-in constant is
    ``sigma2 * trace(Gamma_w J_S Gamma_S^{-1} J_S')``, with ``J_S`` the
    columns at S of the Jacobian ``J = (sum_{j<h} b_j A^{h-1-j})'`` of the
    h-step plug-in coefficients in the one-step ones and ``A`` the
    companion matrix of the model's coefficients zero-padded to w.  The
    direct constant is ``sigma2 * trace(Gamma_S^{-1} V_S)``, with
    ``V_S[r, s] = u_{|l_r - l_s|}`` the covariance of
    ``sum_{j<h} b_j`` times the lag vector.  ``Gamma_S`` is gathered from
    the window's Toeplitz, whose condition guard runs once: a principal
    submatrix's condition number is no larger.  A mask that misses a lag
    its method requires gets ``math.inf``.
    """
    b, u, table, required = inputs
    window, h = len(masks[0]), b.size
    out = {method: dict.fromkeys(masks, math.inf) for method in methods}
    wanted = {mask: [method for method in methods
                     if all(lag < window and mask[lag] for lag in required[method])]
              for mask in masks}
    wanted = {mask: chosen for mask, chosen in wanted.items() if chosen}
    if not wanted:
        return out
    gam = _checked_gamma(table, window)
    if any(Method.PLUGIN in chosen for chosen in wanted.values()):
        one_step = np.zeros(window)
        one_step[: model.order] = model.coeffs
        comp = companion_matrix(one_step)
        power = np.eye(window)
        sensitivity = np.zeros((window, window))  # J'
        for exponent in range(h):
            sensitivity += b[h - 1 - exponent] * power
            if exponent < h - 1:
                power = power @ comp
    for mask, chosen in wanted.items():
        lags = np.array(mask).nonzero()[0]
        diff = np.abs(lags[:, None] - lags)
        gam_s = table.gamma[diff]
        for method in chosen:
            if method is Method.PLUGIN:
                rows = sensitivity[lags]
                trace = np.trace(gam @ rows.T @ np.linalg.solve(gam_s, rows))
            else:
                trace = np.trace(np.linalg.solve(gam_s, u[diff]))
            out[method][mask] = _scaled(model, trace)
    return out


def _order_constant(model: ArModel, h: int, k: int, table: AutocovarianceTable | None,
                    method: Method) -> float:
    """The ``method`` constant of lags ``1..k`` on window k, which must be
    finite."""
    if k < 1:
        raise ValueError("order must be >= 1")
    inputs = _inputs(model, h, max(k, model.order), table)
    value = _excess_constants(model, inputs, [(1,) * k], (method,))[method][(1,) * k]
    if value == math.inf:
        raise UnderspecifiedOrderError(
            f"{method.label} constant undefined at order {k}: the window misses "
            f"lag {inputs[3][method][-1] + 1}, which the {method.label} predictor needs")
    return value


def plugin_excess_constant(model: ArModel, h: int, k: int,
                           table: AutocovarianceTable | None = None) -> float:
    """Asymptotic excess MSPE of the order-k plug-in predictor at horizon h.

    The n-step-scaled gap between the plug-in predictor's MSPE and the
    irreducible variance converges to this constant, valid for
    ``k >= p`` only (below the true order the plug-in predictor does not
    even converge to the optimal one).  It is :func:`_excess_constants`
    on lags ``1..k`` of window k.
    """
    return _order_constant(model, h, k, table, Method.PLUGIN)


def direct_excess_constant(model: ArModel, h: int, k: int,
                           table: AutocovarianceTable | None = None) -> float:
    """Asymptotic excess MSPE of the order-k direct predictor at horizon h.

    Valid for ``k >= h_step_order(model, h)``.  ``V`` of
    :func:`_excess_constants` is the covariance of
    ``sum_{j<h} b_j (x_j, ..., x_{j-k+1})'``, the double sum expanded.
    """
    return _order_constant(model, h, k, table, Method.DIRECT)


def three_step_excess_ratio(a2: float) -> float:
    """Direct-to-plug-in excess ratio for the depth-three family.

    For models ``x_t = a_1 x_{t-1} + a_2 x_{t-2} + e_t`` with
    ``a_1 = sqrt(-a_2)`` and ``a_2`` in (-1, 0), the three-step
    comparison between the order-1 direct predictor and the order-2
    plug-in predictor collapses to the closed form

        (1 - 4 a_2 + a_2^2) / (-4 a_2 + 2 a_2^2 - 2 a_2^3 + 4 a_2^4).

    Values below one favour the direct predictor.
    """
    a2 = float(a2)
    if not (-1.0 < a2 < 0.0):
        raise OutOfDomainError(f"closed form valid for a2 in (-1, 0), got {a2}")
    num = 1.0 - 4.0 * a2 + a2 ** 2
    den = -4.0 * a2 + 2.0 * a2 ** 2 - 2.0 * a2 ** 3 + 4.0 * a2 ** 4
    return num / den


# ---------------------------------------------------------------------------
# loss tables and candidate sets


@dataclass(frozen=True)
class LossTable:
    """Excess-MSPE losses for every (candidate, method) pair at one horizon.

    A candidate is an order (:func:`loss_table`) or a lag mask's bits
    (:func:`subset_loss_table`, where ``max_order`` is the window).  An
    entry whose candidate misses a lag the method requires is
    ``math.inf``: that predictor does not converge to the optimum, so no
    finite asymptotic loss exists.
    """

    horizon: int
    max_order: int
    plugin: Mapping
    direct: Mapping

    def value(self, candidate, method: Method) -> float:
        store = self.plugin if method is Method.PLUGIN else self.direct
        return store[candidate]


def _all_masks(window: int) -> list[tuple[int, ...]]:
    """Every nonzero mask on the window, in lexicographic bit order."""
    if window > SUBSET_ORDER_CAP:
        raise SubsetTooLargeError(
            f"window {window} exceeds the exhaustive-enumeration cap "
            f"{SUBSET_ORDER_CAP}")
    return [bits for bits in product((0, 1), repeat=window) if any(bits)]


def loss_table(model: ArModel, h: int, max_order: int) -> LossTable:
    """Tabulate both predictors' asymptotic losses for orders ``1..max_order``.

    Order k is the mask of k ones on window k; one autocovariance table
    serves every order, and each entry equals the standalone
    ``plugin_excess_constant`` or ``direct_excess_constant`` value bit for
    bit.
    """
    inputs = _inputs(model, h, max_order)
    plugin, direct = {}, {}
    for k in range(1, max_order + 1):
        got = _excess_constants(model, inputs, [(1,) * k])
        plugin[k], direct[k] = got[Method.PLUGIN][(1,) * k], got[Method.DIRECT][(1,) * k]
    return LossTable(horizon=h, max_order=max_order, plugin=plugin, direct=direct)


def subset_loss_table(model: ArModel, h: int, window: int) -> LossTable:
    """Both predictors' asymptotic losses for every nonzero lag mask on
    the window, keyed by mask bits (newest lag first).

    The window is capped at ``SUBSET_ORDER_CAP`` and must reach the model
    order; the all-ones mask's entries are ``loss_table``'s at that order
    bit for bit.
    """
    masks = _all_masks(window)
    got = _excess_constants(model, _inputs(model, h, window), masks)
    return LossTable(horizon=h, max_order=window, plugin=got[Method.PLUGIN],
                     direct=got[Method.DIRECT])


def optimal_candidates(table: LossTable) -> set[tuple[object, Method]]:
    """All (candidate, method) pairs within a relative tie window of the best loss."""
    entries = [(v, k, Method.PLUGIN) for k, v in table.plugin.items()
               if math.isfinite(v)]
    entries += [(v, k, Method.DIRECT) for k, v in table.direct.items()
                if math.isfinite(v)]
    if not entries:
        raise ValueError("loss table has no finite entry")
    best = min(v for v, _, _ in entries)
    return {(k, method) for v, k, method in entries
            if v <= best * (1.0 + TOL_TIE)}


# ---------------------------------------------------------------------------
# underfitting drift


@dataclass(frozen=True)
class DriftResult:
    """Per-step drift of an APE statistic for an underfitted candidate.

    ``value`` is the asymptotic per-observation excess; ``underfit`` is
    False when the order is already large enough, in which case the
    drift is zero by definition.
    """

    value: float
    underfit: bool


def _padded_gap(table: AutocovarianceTable, h: int, k: int, order: int
                ) -> tuple[float, np.ndarray]:
    """``(gap' Gamma(order) gap, a_low)`` for the gap between the order-``order``
    and zero-padded order-k direct coefficients ``a_low`` at horizon h."""
    a_full = optimal_direct_coeffs(table, h, order)
    a_low = optimal_direct_coeffs(table, h, k)
    padded = np.zeros(order)
    padded[:k] = a_low
    gap = a_full - padded
    return float(gap @ table.gamma_matrix(order) @ gap), a_low


def underfit_ape_drift(model: ArModel, h: int, k: int, method: Method) -> DriftResult:
    """Asymptotic per-step APE excess of an underfitted candidate.

    For the plug-in predictor with ``k < p`` the drift is the sum of two
    quadratic forms: the gap between the order-p and zero-padded order-k
    direct coefficients under ``Gamma(p)``, plus the gap between the
    iterated one-step projection and the order-k direct coefficients
    under ``Gamma(k)``.  For the direct predictor with
    ``k < h_step_order`` it is a single quadratic form under
    ``Gamma(p_h)``.  At or above the respective order the drift is zero
    and the result is flagged as not underfitted.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    if k < 1:
        raise ValueError("order must be >= 1")
    p = model.order
    table = autocovariances(model, h + max(k, p) - 1)

    if method is Method.PLUGIN:
        if k >= p:
            return DriftResult(0.0, underfit=False)
        q1, a_low = _padded_gap(table, h, k, p)
        iterated = iterate_plugin_coeffs(optimal_direct_coeffs(table, 1, k), h)
        gap_low = iterated - a_low
        q2 = float(gap_low @ table.gamma_matrix(k) @ gap_low)
        return DriftResult(q1 + q2, underfit=True)

    p_h = h_step_order(model, h, table)
    if p_h == 0:
        raise DegenerateHorizonError(
            "every projection coefficient vanishes at this horizon; "
            "no direct candidate is underfitted")
    if k >= p_h:
        return DriftResult(0.0, underfit=False)
    return DriftResult(_padded_gap(table, h, k, p_h)[0], underfit=True)
