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
    UnderspecifiedOrderError,
    ZeroLeadCoefficientError,
)
from .methods import Method
from .tolerances import (
    COND_GUARD,
    STATIONARITY_MARGIN,
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
    "loss_table",
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
    follow from the recursion ``gamma_j = sum_i a_i gamma_{j-i}``.
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
    cond = np.linalg.cond(system)
    if not np.isfinite(cond) or cond > COND_GUARD:
        raise SingularYuleWalkerError(
            f"Yule-Walker system condition number {cond:.3e} exceeds guard")
    try:
        head = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularYuleWalkerError(str(exc)) from exc

    gamma = np.zeros(upto + 1)
    gamma[: p + 1] = head
    for j in range(p + 1, upto + 1):
        gamma[j] = float(np.dot(a, gamma[j - p: j][::-1]))
    return AutocovarianceTable(gamma[: max_lag + 1])


def _gamma_solver(mat: np.ndarray):
    """Factor an autocovariance matrix once; return its solve ``rhs -> mat^{-1} rhs``.

    A conditioning guard rejects numerically singular input.  The
    Cholesky factor serves every right-hand side when the matrix admits
    it, a pivoted general solve is the fallback.
    """
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > COND_GUARD:
        raise SingularGammaError(
            f"autocovariance matrix condition number {cond:.3e} exceeds guard")
    from scipy.linalg import cho_factor, cho_solve, solve  # deferred: loads SciPy on first use

    try:
        factor = cho_factor(mat, lower=True)
    except np.linalg.LinAlgError:
        return lambda rhs: solve(mat, rhs)
    return lambda rhs: cho_solve(factor, rhs)


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
    rhs = table.gamma[h: h + k].copy()
    return np.asarray(_gamma_solver(table.gamma_matrix(k))(rhs), dtype=float)


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
    if h < 1:
        raise ValueError("horizon must be >= 1")
    p = model.order
    full = optimal_direct_coeffs(_require_table(model, table, h + p - 1), h, p)
    nonzero = np.flatnonzero(np.abs(full) > TOL_ZERO)
    return int(nonzero[-1] + 1) if nonzero.size else 0


# ---------------------------------------------------------------------------
# asymptotic excess-MSPE constants


def _padded_one_step(model: ArModel, k: int) -> np.ndarray:
    """Population one-step coefficients on an order-k window, k >= p."""
    out = np.zeros(k)
    out[: model.order] = model.coeffs
    return out


def _require_table(model: ArModel, table: AutocovarianceTable | None,
                   max_lag: int) -> AutocovarianceTable:
    if table is None or table.max_lag < max_lag:
        return autocovariances(model, max_lag)
    return table


def _plugin_constant(model: ArModel, b: np.ndarray, k: int, gam: np.ndarray,
                     solve) -> float:
    """Plug-in constant at order k from the MA weights ``b_0..b_{h-1}``,
    ``Gamma(k)`` and its solve."""
    h = b.size
    comp = companion_matrix(_padded_one_step(model, k))
    power = np.eye(k)
    sensitivity = np.zeros((k, k))
    for exponent in range(h):
        # exponent e pairs with weight b_{h-1-e}
        sensitivity += b[h - 1 - exponent] * power
        if exponent < h - 1:
            power = power @ comp
    jac = sensitivity.T
    return float(model.sigma2 * np.trace(gam @ jac @ solve(jac.T)))


def _direct_constant(model: ArModel, b: np.ndarray, table: AutocovarianceTable,
                     k: int, solve) -> float:
    """Direct constant at order k from the MA weights ``b_0..b_{h-1}``, a
    table through lag ``h + k - 2`` and the solve of ``Gamma(k)``."""
    # w[d] = sum_j b_j b_{j-d}, d = -(h-1)..(h-1)
    w = np.correlate(b, b, mode="full")
    d_vals = np.arange(1 - b.size, b.size)
    u = np.empty(k)
    for e in range(k):
        u[e] = float(np.dot(w, table.gamma[np.abs(d_vals + e)]))
    return float(model.sigma2 * np.trace(solve(_toeplitz(u))))


def plugin_excess_constant(model: ArModel, h: int, k: int,
                           table: AutocovarianceTable | None = None) -> float:
    """Asymptotic excess MSPE of the order-k plug-in predictor at horizon h.

    The n-step-scaled gap between the plug-in predictor's MSPE and the
    irreducible variance converges to this constant, valid for
    ``k >= p`` only (below the true order the plug-in predictor does not
    even converge to the optimal one).

    Computed as ``trace(Gamma(k) J Gamma(k)^{-1} J') * sigma2`` where
    ``J = (sum_{j<h} b_j A(k)^{h-1-j})'`` is the Jacobian of the h-step
    coefficients with respect to the one-step ones and ``A(k)`` is the
    companion matrix of the zero-padded model coefficients.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    if k < model.order:
        raise UnderspecifiedOrderError(
            f"plug-in constant defined only for k >= {model.order}, got {k}")
    table = _require_table(model, table, max(k - 1, 0))
    b = ma_coefficients(model, n_terms=h - 1).b
    gam = table.gamma_matrix(k)
    return _plugin_constant(model, b, k, gam, _gamma_solver(gam))


def direct_excess_constant(model: ArModel, h: int, k: int,
                           table: AutocovarianceTable | None = None) -> float:
    """Asymptotic excess MSPE of the order-k direct predictor at horizon h.

    Valid for ``k >= h_step_order(model, h)``.  Computed as
    ``trace(Gamma(k)^{-1} V) * sigma2`` where ``V`` is the covariance of
    ``sum_{j<h} b_j (x_j, ..., x_{j-k+1})'``; expanding the double sum
    gives the symmetric Toeplitz matrix ``V[r, s] = u_{s-r}`` with
    ``u_e = sum_d w_d gamma_{d+e}`` and ``w`` the autocorrelation of the
    leading moving-average weights.  One table serves the projection
    order and the constant.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    table = _require_table(model, table, h + max(model.order, k - 1) - 1)
    p_h = h_step_order(model, h, table)
    if k < p_h:
        raise UnderspecifiedOrderError(
            f"direct constant defined only for k >= {p_h} at this horizon, got {k}")
    if k < 1:
        raise ValueError("order must be >= 1")
    b = ma_coefficients(model, n_terms=h - 1).b
    return _direct_constant(model, b, table, k, _gamma_solver(table.gamma_matrix(k)))


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
    """Excess-MSPE losses for every (order, method) candidate at one horizon.

    Entries below the valid order range are ``math.inf``: the
    corresponding predictor does not converge to the optimum, so no
    finite asymptotic loss exists.
    """

    horizon: int
    max_order: int
    plugin: Mapping[int, float]
    direct: Mapping[int, float]

    def value(self, k: int, method: Method) -> float:
        store = self.plugin if method is Method.PLUGIN else self.direct
        return store[k]


def loss_table(model: ArModel, h: int, max_order: int) -> LossTable:
    """Tabulate both predictors' asymptotic losses for orders ``1..max_order``.

    One autocovariance table serves every order.  ``Gamma(k)`` is built,
    checked and factored once, at the orders where either constant is
    defined, and both constants of that order share its factor; each
    entry equals the standalone ``plugin_excess_constant`` or
    ``direct_excess_constant`` value bit for bit.
    """
    if max_order < model.order:
        raise UnderspecifiedOrderError(
            f"max_order must reach the true order {model.order}, got {max_order}")
    table = autocovariances(model, h + max_order - 1)
    p_h = h_step_order(model, h, table)
    b = ma_coefficients(model, n_terms=h - 1).b
    plugin = dict.fromkeys(range(1, max_order + 1), math.inf)
    direct = dict(plugin)
    for k in range(max(p_h, 1), max_order + 1):  # p_h <= p: every defined order
        gam = table.gamma_matrix(k)
        solve = _gamma_solver(gam)
        if k >= model.order:
            plugin[k] = _plugin_constant(model, b, k, gam, solve)
        if k >= p_h:
            direct[k] = _direct_constant(model, b, table, k, solve)
    return LossTable(horizon=h, max_order=max_order, plugin=plugin, direct=direct)


def optimal_candidates(table: LossTable) -> set[tuple[int, Method]]:
    """All (order, method) pairs within a relative tie window of the best loss."""
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
