"""Population-level forecasting theory for a known stationary autoregression.

Everything here is deterministic: moving-average weights and
autocovariances implied by the model, optimal h-step projection
coefficients, the asymptotic excess-MSPE constants of the plug-in and
direct predictors, and the loss tables / optimal candidate sets that the
data-driven selection procedure is trying to hit.

A constant is formed in one of two places.  The dense orders, and a
window's all-ones mask, come from one nested pass over the model's own
Levinson factor (:func:`_order_constants`): each order adds one row's
term, so a table of K orders costs one condition number of ``Gamma(K)``
and ``O((p + h)^3 + K)`` further work, and order k's constants are the
same bits in every table.  Every other lag mask solves on its own
``Gamma_S`` (:func:`_mask_constants`).  Both, and an underfitted order's
drift (:func:`underfit_ape_drift`), read the one :func:`_inputs` of their
window (autocovariances, MA weights, required lags), after its one guard.

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
    SubsetTooLargeError,
    UnderspecifiedOrderError,
    ZeroLeadCoefficientError,
)
from .methods import Method
from .tolerances import (
    COND_GUARD,
    HORIZON_ROWS_CAP,
    STATIONARITY_MARGIN,
    SUBSET_ORDER_CAP,
    THEORY_WINDOW_CAP,
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


def _step_down(coeffs: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """``(phis, ratios)`` of the Levinson recursion run backwards: the one map
    from coefficients to second-order structure.  ``phis[k]`` is the order-k
    predictor phi_k, newest lag first (``phis[p]`` is ``coeffs``), whose last
    entry is the reflection coefficient kappa_k; ``ratios[k] = prod_{i > k}
    (1 - kappa_i^2)``, k < p, is sigma2 over the order-k prediction-error
    variance.

    Schur-Cohn: the coefficients are stationary exactly when every |kappa_k|
    is below one.  The first kappa from k = p down that is not finite or not
    below ``1 - STATIONARITY_MARGIN`` in magnitude raises
    :class:`NonStationaryError` naming it, so no divisor is below about
    ``2 * STATIONARITY_MARGIN``.
    """
    bound = 1.0 - STATIONARITY_MARGIN
    phis, gaps = [coeffs], []  # phi_p .. phi_0, and 1 - kappa_k^2 for k = p .. 1
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite kappa fails below
        for k in range(coeffs.size, 0, -1):
            phi = phis[-1]
            kappa = float(phi[-1])
            if not abs(kappa) < bound:
                raise NonStationaryError(
                    f"reflection coefficient kappa_{k} = {kappa!r} is not below "
                    f"{bound!r} in magnitude")
            gaps.append((1.0 - kappa) * (1.0 + kappa))
            phis.append((phi[:-1] + kappa * phi[-2::-1]) / gaps[-1])
    return phis[::-1], np.cumprod(gaps)[::-1]


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
        If a reflection coefficient is not finite or reaches
        ``1 - STATIONARITY_MARGIN`` in magnitude (:func:`_step_down`).
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
        _step_down(coeffs)

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


@np.errstate(over="ignore")
def horizon_variance(model: ArModel, h: int) -> float:
    """Irreducible variance of an h-step-ahead forecast.

    This is ``sigma2 * (b_0^2 + ... + b_{h-1}^2)``, the error variance of
    the best predictor given the infinite past; it must not overflow.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    b = ma_coefficients(model, n_terms=h - 1).b
    return float(_scaled(model, np.dot(b, b), "horizon variance"))


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

    From the step-down (:func:`_step_down`), ``gamma_0 = sigma2 /
    prod_k (1 - kappa_k^2)`` and ``gamma_k = phi_k . (gamma_{k-1}, ...,
    gamma_0)`` for ``k <= p``; the rest follow from the model recursion
    ``gamma_j = sum_i a_i gamma_{j-i}``.  A subnormal ``sigma2``, or one
    whose autocovariances overflow, raises ``OutOfDomainError``.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    phis, ratios = _step_down(model.coeffs)
    p = model.order
    gamma = np.zeros(max(max_lag, p) + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        gamma[0] = model.sigma2 / ratios[0]
        for j in range(1, gamma.size):
            phi = phis[min(j, p)]
            gamma[j] = float(np.dot(phi, gamma[j - phi.size: j][::-1]))
    # The pivots of Gamma(k) are prediction-error variances, none below
    # sigma2, so a subnormal sigma2 would cost the solves their precision.
    if not (np.isfinite(gamma).all() and model.sigma2 >= np.finfo(float).tiny):
        raise OutOfDomainError(
            f"innovation variance sigma2 = {model.sigma2!r} is subnormal or "
            "overflows the autocovariances")
    return AutocovarianceTable(gamma[: max_lag + 1])


def _check_condition(mat: np.ndarray, error: type, label: str) -> None:
    """Raise ``error`` if ``mat``'s condition number is not finite or above
    ``COND_GUARD``: the one conditioning guard of the theory solves.  The
    condition number is scale-free; it is taken of ``mat`` over its largest
    magnitude, so entries near the float maximum do not overflow the SVD."""
    cond = np.linalg.cond(mat / np.abs(mat).max())
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

    ``one_step`` is one vector ``(a_1, ..., a_k)`` or a ``(..., k)`` stack
    of them.  Each of the ``h - 1`` steps applies the transposed companion
    matrix as one elementwise recursion over the stack, ``b <- a b_1``
    and then ``b_c += b'_{c+1}`` for the previous iterate ``b'``: one
    product and one sum per entry, with no matrix product, so an entry's
    bits depend neither on the size of the stack nor on a BLAS kernel.
    The result is the first row of the h-th companion-matrix power; for
    ``h = 1`` the input is returned unchanged.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    coeffs = np.atleast_1d(np.asarray(one_step, dtype=float))
    out = coeffs
    for _ in range(h - 1):
        out = _companion_step(coeffs, out)
    return out


def _companion_step(coeffs: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """``prev @ A`` for the companion matrix ``A`` of ``coeffs``, each row
    ``v`` as ``coeffs * v_1`` plus ``v`` shifted one lag down: one product
    and at most one sum per entry, the nonzero terms of the matrix product."""
    out = coeffs * prev[..., :1]
    out[..., :-1] += prev[..., 1:]
    return out


def h_step_order(model: ArModel, h: int) -> int:
    """Order of the h-step projection on the model's own lag window.

    The order-p direct coefficient vector at horizon h can have exactly
    zero trailing entries; this returns the length once entries at or
    below ``TOL_ZERO`` are stripped from the end.  A return of 0 means
    every coefficient vanished (the best h-step predictor is the mean),
    which callers should treat as degenerate.
    """
    return _horizon_order(_inputs(model, h, model.order))


def _horizon_order(inputs: tuple, method: Method = Method.DIRECT) -> int:
    """The least order holding every lag ``method`` requires in any window's :func:`_inputs`."""
    return max(inputs[2][method], default=-1) + 1


# ---------------------------------------------------------------------------
# asymptotic excess-MSPE constants


def required_masks(model: ArModel, h: int, window: int
                   ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimal (plug-in, direct) masks on the window a candidate must
    contain for that method's excess constant to be finite."""
    required = _inputs(model, h, window)[2]
    return tuple(tuple(int(lag in required[method]) for lag in range(window))
                 for method in Method)


def _scaled(model: ArModel, trace, quantity: str = "excess constant"):
    """``sigma2 * trace``, which must be finite: excess constants and the
    horizon variance are formed with overflow warnings off."""
    value = model.sigma2 * trace
    if not np.isfinite(value).all():
        raise OutOfDomainError(f"{quantity} is not finite at sigma2 = {model.sigma2!r}")
    return value


def _inputs(model: ArModel, h: int, window: int
            ) -> tuple[np.ndarray, AutocovarianceTable, dict]:
    """``(b, table, required)`` for the constants of every candidate on
    windows up to ``window``, which must reach the model order.

    ``b = (b_0..b_{h-1})`` are the MA weights, and the table reaches lag
    ``h + window - 1``.
    ``required`` maps each method to the zero-based lags a candidate must
    hold for its constant to be finite: every lag with a nonzero model
    coefficient (the rule that fixes the model's order) for the plug-in
    predictor, and every lag whose order-p h-step projection coefficient
    exceeds ``TOL_ZERO`` for the direct one.  A candidate that misses one
    converges to a worse predictor, so it has no finite asymptotic excess.

    ``Gamma(window)``'s condition guard runs here, once per table: a
    principal submatrix's condition number is no larger, so it covers
    every order and mask on the window and the order-p projection solve.
    First, a horizon with ``p + h - 1`` past ``HORIZON_ROWS_CAP``, or a
    window past ``THEORY_WINDOW_CAP``, is out of domain.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    if window < model.order:
        raise UnderspecifiedOrderError(
            f"window {window} cannot carry the order-{model.order} model")
    if model.order + h - 1 > HORIZON_ROWS_CAP:
        raise OutOfDomainError(
            f"horizon {h} needs p + h - 1 = {model.order + h - 1} rows, past the "
            f"bound HORIZON_ROWS_CAP = {HORIZON_ROWS_CAP}")
    if window > THEORY_WINDOW_CAP:
        raise OutOfDomainError(
            f"window {window} is past the bound THEORY_WINDOW_CAP = {THEORY_WINDOW_CAP}")
    table = autocovariances(model, h + window - 1)
    _checked_gamma(table, window)
    b = ma_coefficients(model, n_terms=h - 1).b
    p = model.order
    projection = np.linalg.solve(table.gamma_matrix(p), table.gamma[h: h + p])
    return b, table, {
        Method.PLUGIN: tuple(np.flatnonzero(model.coeffs).tolist()),
        Method.DIRECT: tuple(np.flatnonzero(np.abs(projection) > TOL_ZERO).tolist())}


def _lagged_covariances(b: np.ndarray, table: AutocovarianceTable, count: int) -> np.ndarray:
    """``u_e = sum_d w_d gamma_{d+e}`` for ``e < count``, ``w`` the
    autocorrelation of ``b``: ``V[r, s] = u_{|r-s|}`` is the covariance of
    ``sum_{j<h} b_j (x_j, ..., x_{j-k+1})'``."""
    w, d_vals = np.correlate(b, b, mode="full"), np.arange(1 - b.size, b.size)
    return np.array([np.dot(w, table.gamma[np.abs(d_vals + e)]) for e in range(count)])


def _sensitivity(model: ArModel, b: np.ndarray, window: int) -> np.ndarray:
    """``S = sum_{e<h} b_{h-1-e} A^e``, with ``A`` the companion matrix of
    the model's coefficients zero-padded to the window: the transposed
    Jacobian of the h-step plug-in coefficients in the one-step ones.  Each
    power is the last one stepped by :func:`_companion_step`, so the sum
    takes O(h window**2) work."""
    h = b.size
    one_step = np.zeros(window)
    one_step[: model.order] = model.coeffs
    power = np.eye(window)
    sensitivity = np.zeros((window, window))
    for exponent in range(h):
        sensitivity += b[h - 1 - exponent] * power
        if exponent < h - 1:
            power = _companion_step(one_step, power)
    return sensitivity


@np.errstate(over="ignore", invalid="ignore")
def _order_constants(model: ArModel, inputs: tuple, max_order: int
                     ) -> dict[Method, list[float]]:
    """``{method: [constant at order 1, ..., order max_order]}`` from the
    :func:`_inputs` of a window that reaches ``max_order``: the dense orders
    in one nested pass over the model's own Levinson factor.

    The unit lower-triangular ``C`` with ``C Gamma(k) C' = diag(v_j)`` holds
    in row j the order-j prediction-error filter (Brockwell & Davis 1991,
    §5.2): 1 at lag j and ``-phi_{j,i}`` at lag ``j - i``, with ``phi_j``
    from :func:`_step_down` and ``v_j = sigma2 / r_j``, where ``r_j`` is
    ``prod_{i>j} (1 - kappa_i^2)`` below p and 1 from p on.  From row p on
    the filter is the model's own coefficients, so ``C`` is banded and
    ``Gamma(k)``'s factor is the leading block of every larger one's.  Each
    order then adds one row's term to each trace:

    - direct, ``trace(Gamma^{-1} V) = sum_j r_j c_j V c_j' / sigma2`` for the
      rows ``c_j`` of ``C`` and ``V`` of :func:`_lagged_covariances`;
    - plug-in, ``trace(Gamma S' Gamma^{-1} S) = sum_{j,c} N_jc^2 r_j / r_c``
      with ``N = C S C^{-1}`` and ``S`` of :func:`_sensitivity`.  For
      ``k >= p``, ``S`` of order k + 1 keeps order k's as its leading
      block, and so does ``N``.

    A band row turns the lag vector into backward innovations, white with
    variance ``sigma2``: its direct term is ``sum_i b_i^2`` exactly, and
    from row ``p + h - 1`` on, row j of ``N`` is ``b_{h-1}, ..., b_0`` at
    lags ``j - h + 1 .. j``, so its plug-in term is the same sum.  Only the
    rows above those are formed, at sizes set by p and h alone, and the
    terms are summed in order, so order k's constants do not depend on
    ``max_order``, bit for bit.  An order that misses a lag its method
    requires gets ``math.inf``.
    """
    b, table, required = inputs
    p = model.order
    phis, ratios = _step_down(model.coeffs)
    rows = p + b.size - 1
    unit = np.eye(rows)
    for j in range(1, rows):
        phi = phis[min(j, p)]
        unit[j, j - phi.size: j] = -phi[::-1]
    weight = np.ones(rows)
    weight[:p] = ratios
    inner = unit @ _sensitivity(model, b, rows) @ np.linalg.inv(unit)
    head, lags = unit[:p, :p], np.arange(p)
    cov = _lagged_covariances(b, table, p)[np.abs(lags[:, None] - lags)]
    terms = np.full((len(Method), max_order), float(np.dot(b, b)))  # a band row's term
    for row, formed in zip(terms, ((inner * inner * weight[:, None] / weight).sum(axis=1),
                                   ((head @ cov) * head).sum(axis=1) * ratios / model.sigma2)):
        row[: formed.size] = formed[:max_order]
    constants = _scaled(model, np.cumsum(terms, axis=1))
    for row, method in zip(constants, Method):
        row[: max(required[method], default=0)] = math.inf  # orders that miss a lag
    return dict(zip(Method, constants.tolist()))


@np.errstate(over="ignore", invalid="ignore")
def _mask_constants(model: ArModel, inputs: tuple, window: int,
                    masks: list[tuple[int, ...]]) -> dict[Method, dict[tuple[int, ...], float]]:
    """``{method: {mask: constant}}`` for lag masks on a window, from the
    window's :func:`_inputs`: one solve on ``Gamma_S`` per mask and method.

    For the lags S of a mask, the plug-in constant is
    ``sigma2 * trace(Gamma_w J_S Gamma_S^{-1} J_S')``, with ``J_S`` the
    columns at S of ``J = S'`` (:func:`_sensitivity` on the window w).  The
    direct constant is ``sigma2 * trace(Gamma_S^{-1} V_S)``, with
    ``V_S[r, s] = u_{|l_r - l_s|}`` (:func:`_lagged_covariances`).
    ``Gamma_S`` is gathered from the window's Toeplitz, which
    :func:`_inputs` guarded.  It is not a leading block, so these constants
    do not nest as :func:`_order_constants` do.  A mask that misses a lag
    its method requires gets ``math.inf``.
    """
    b, table, required = inputs
    out = {method: dict.fromkeys(masks, math.inf) for method in Method}
    wanted = {mask: [method for method in Method
                     if all(mask[lag] for lag in required[method])]
              for mask in masks}
    wanted = {mask: chosen for mask, chosen in wanted.items() if chosen}
    if not wanted:
        return out
    gam, u = table.gamma_matrix(window), _lagged_covariances(b, table, window)
    if any(Method.PLUGIN in chosen for chosen in wanted.values()):
        sensitivity = _sensitivity(model, b, window)
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
            out[method][mask] = float(_scaled(model, trace))
    return out


def _order_constant(model: ArModel, h: int, k: int, method: Method) -> float:
    """The ``method`` constant of order k, which must be finite."""
    if k < 1:
        raise ValueError("order must be >= 1")
    inputs = _inputs(model, h, max(k, model.order))
    value = _order_constants(model, inputs, k)[method][k - 1]
    if value == math.inf:
        raise UnderspecifiedOrderError(
            f"{method.label} constant undefined at order {k}: the window misses "
            f"lag {inputs[2][method][-1] + 1}, which the {method.label} predictor needs")
    return value


def plugin_excess_constant(model: ArModel, h: int, k: int) -> float:
    """Asymptotic excess MSPE of the order-k plug-in predictor at horizon h.

    The n-step-scaled gap between the plug-in predictor's MSPE and the
    irreducible variance converges to this constant, valid for
    ``k >= p`` only (below the true order the plug-in predictor does not
    even converge to the optimal one).  It is order k's entry of
    :func:`_order_constants`.
    """
    return _order_constant(model, h, k, Method.PLUGIN)


def direct_excess_constant(model: ArModel, h: int, k: int) -> float:
    """Asymptotic excess MSPE of the order-k direct predictor at horizon h.

    Valid for ``k >= h_step_order(model, h)``.  It is order k's entry of
    :func:`_order_constants`, where ``V`` is the covariance of
    ``sum_{j<h} b_j (x_j, ..., x_{j-k+1})'``, the double sum expanded.
    """
    return _order_constant(model, h, k, Method.DIRECT)


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
    finite asymptotic loss exists.  An order's entries, and the all-ones
    mask's, come from the nested pass :func:`_order_constants`; every other
    mask's from its own solve (:func:`_mask_constants`).  ``horizon_order``
    is :func:`h_step_order` of the model, read from the same inputs.
    """

    horizon: int
    max_order: int
    plugin: Mapping
    direct: Mapping
    horizon_order: int

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

    Order k is the mask of k ones on window k.  One condition number of
    ``Gamma(max_order)`` guards the table, and one nested pass
    (:func:`_order_constants`) forms every order: each entry equals the
    standalone ``plugin_excess_constant`` or ``direct_excess_constant`` value,
    and the same order of any larger table, bit for bit.
    """
    inputs = _inputs(model, h, max_order)
    got = _order_constants(model, inputs, max_order)
    orders = range(1, max_order + 1)
    return LossTable(horizon=h, max_order=max_order,
                     plugin=dict(zip(orders, got[Method.PLUGIN])),
                     direct=dict(zip(orders, got[Method.DIRECT])),
                     horizon_order=_horizon_order(inputs))


def subset_loss_table(model: ArModel, h: int, window: int) -> LossTable:
    """Both predictors' asymptotic losses for every nonzero lag mask on
    the window, keyed by mask bits (newest lag first).

    The window is capped at ``SUBSET_ORDER_CAP`` and must reach the model
    order.  The all-ones mask reads the nested pass at that order, so its
    entries are ``loss_table``'s bit for bit; every other mask solves on
    its own lags.
    """
    masks, inputs = _all_masks(window), _inputs(model, h, window)
    got = _mask_constants(model, inputs, window, masks[:-1])  # the last mask is all ones
    full = _order_constants(model, inputs, window)
    for method in Method:
        got[method][masks[-1]] = full[method][-1]
    return LossTable(horizon=h, max_order=window, plugin=got[Method.PLUGIN],
                     direct=got[Method.DIRECT], horizon_order=_horizon_order(inputs))


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
    """Per-step drift of an APE statistic: ``value`` is the asymptotic
    per-observation excess, zero by definition when ``underfit`` is False
    (the order is already large enough)."""

    value: float
    underfit: bool


def underfit_ape_drift(model: ArModel, h: int, k: int, method: Method) -> DriftResult:
    """Asymptotic per-step APE excess of an underfitted candidate, read from
    the model's own :func:`_inputs`.

    Let ``m`` be the order the method needs (p for the plug-in predictor,
    :func:`h_step_order` for the direct one) and ``c`` the order-m h-step
    projection.  Below m the drift is ``(c - c_k)' Gamma(m) (c - c_k)``, with
    ``c_k`` the order-k predictor's limit zero-padded to m: the order-k
    one-step projection iterated h steps (plug-in; the padding stays zero),
    or the order-k h-step projection (direct), iterated one step, which
    returns it unchanged.  At or above m the drift is zero, not underfit.
    """
    if k < 1 <= h:  # _inputs raises for a bad horizon first
        raise ValueError("order must be >= 1")
    inputs = _inputs(model, h, model.order)
    table, m = inputs[1], _horizon_order(inputs, method)
    if m == 0:
        raise DegenerateHorizonError("every projection coefficient vanishes at this "
                                     "horizon; no direct candidate is underfitted")
    if k >= m:
        return DriftResult(0.0, underfit=False)
    fit_h, steps = (1, h) if method is Method.PLUGIN else (h, 1)
    limit = np.zeros(m)
    limit[:k] = optimal_direct_coeffs(table, fit_h, k)
    gap = optimal_direct_coeffs(table, h, m) - iterate_plugin_coeffs(limit, steps)
    return DriftResult(float(gap @ table.gamma_matrix(m) @ gap), underfit=True)
