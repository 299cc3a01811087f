"""Data-driven choice of the forecasting order (or lag subset) and method.

The procedure runs in three steps.  Step 1 screens the one-step direct
APEs and keeps their minimizer as a lower bound for the plug-in search.
Step 2 minimizes the horizon-h direct APE over all orders and the
horizon-h plug-in APE over orders at or above the step-1 choice.  Step 3
keeps whichever of the two finalists has the smaller APE, with ties
going to the direct predictor.  The subset variant runs the same three
steps over every nonzero 0/1 mask on the lag window, with "at or above"
read as mask containment.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .ape import family_apes
from .errors import SeriesOverflowError, SubsetTooLargeError, UnderspecifiedOrderError
from .estimation import (
    Series,
    _lag_windows,
    _order_lags,
    _resolve_candidate,
    fit_direct,
)
from .methods import Method
from .theory import (
    ArModel,
    autocovariances,
    h_step_order,
    optimal_direct_coeffs,
)
from .tolerances import SUBSET_ORDER_CAP, TOL_ZERO

__all__ = [
    "SubsetMask",
    "SelectionAudit",
    "SelectionResult",
    "select_predictor",
    "bic_values",
    "bic_order",
    "subset_select",
    "SubsetLossEstimate",
    "theoretical_subset_losses",
]


@dataclass(frozen=True)
class SubsetMask:
    """A 0/1 flag per lag of a window; flagged lags enter the regression."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", _resolve_candidate(tuple(self.bits))[2])

    @property
    def lags(self) -> tuple[int, ...]:
        """One-based lags flagged by the mask."""
        return _resolve_candidate(self.bits)[0]


@dataclass(frozen=True)
class SelectionAudit:
    """Everything the three steps looked at, keyed by order or mask bits."""

    start_one_step: int
    start: int
    one_step_direct_ape: Mapping
    direct_ape: Mapping
    plugin_ape: Mapping
    one_step_choice: int | tuple[int, ...]
    direct_choice: int | tuple[int, ...]
    plugin_choice: int | tuple[int, ...]


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the order-and-method (or subset-and-method) selection."""

    horizon: int
    max_order: int
    method: Method
    order: int | None
    mask: SubsetMask | None
    audit: SelectionAudit


def _argmin(apes: Mapping, keys: Sequence) -> object:
    """Smallest key (in the given enumeration order) attaining the minimum."""
    best_key = None
    best = math.inf
    for key in keys:
        value = apes[key]
        if value < best:
            best = value
            best_key = key
    return best_key


def _three_steps(series: Series, h: int, width: int, candidates: list,
                 contains, audit_every_plugin: bool):
    """(method, choice, audit) of the three steps over one candidate family.

    ``contains(big, small)`` is step 2's "at or above"; the audit's plug-in
    map covers all candidates or, if not ``audit_every_plugin``, those.
    """
    start_one, start_h, apes = family_apes(series, h, candidates, width)
    one_step, direct, plugin = ({c: ape[j] for c, ape in zip(candidates, apes)}
                                for j in range(3))
    one_step_choice = _argmin(one_step, candidates)
    searched = [c for c in candidates if contains(c, one_step_choice)]
    if not audit_every_plugin:
        plugin = {c: plugin[c] for c in searched}
    direct_choice = _argmin(direct, candidates)
    plugin_choice = _argmin(plugin, searched)
    if direct[direct_choice] > plugin[plugin_choice]:
        method, chosen = Method.PLUGIN, plugin_choice
    else:
        method, chosen = Method.DIRECT, direct_choice
    return method, chosen, SelectionAudit(start_one, start_h, one_step, direct, plugin,
                                          one_step_choice, direct_choice, plugin_choice)


def select_predictor(series: Series, h: int, max_order: int) -> SelectionResult:
    """Pick the forecasting order and method for horizon h.

    Ties between orders go to the smaller order; a step-3 tie goes to
    the direct predictor.  For ``h == 1`` the two finalists coincide, so
    the direct predictor always wins.
    """
    if h < 1 or max_order < 1:
        raise ValueError("horizon and max_order must be >= 1")
    method, order, audit = _three_steps(series, h, max_order,
                                        list(range(1, max_order + 1)),
                                        operator.ge, True)
    return SelectionResult(horizon=h, max_order=max_order, method=method,
                           order=order, mask=None, audit=audit)


# ---------------------------------------------------------------------------
# penalized order choice


def bic_values(series: Series, h: int, max_order: int,
               penalty: float | None = None) -> dict[int, float]:
    """Penalized log residual variance of the direct fit, per order.

    The score is ``log(rss / n) + k * c / n`` where ``rss`` sums squared
    in-sample residuals of the full-sample direct fit over its window
    and ``c`` defaults to ``log n``; a penalty that is not finite is a
    ``ValueError``.  A zero residual sum yields ``-inf``, which still orders
    correctly; one that overflows raises :class:`SeriesOverflowError`.
    """
    if h < 1 or max_order < 1:
        raise ValueError("horizon and max_order must be >= 1")
    n = series.n
    c = math.log(n) if penalty is None else float(penalty)
    if not math.isfinite(c):
        raise ValueError(f"penalty must be finite, got {c}")
    out: dict[int, float] = {}
    for k in range(1, max_order + 1):
        coeffs = fit_direct(series, h, k)
        window = _lag_windows(series.values[None], h, _order_lags(k))[0]
        targets = series.values[k + h - 1:]
        with np.errstate(over="ignore", invalid="ignore"):
            rss = float(np.sum((targets - window @ coeffs) ** 2))
        if not math.isfinite(rss):
            raise SeriesOverflowError(f"series overflows: the order-{k} residual sum of "
                                      f"squares is {rss}")
        sigma2_hat = rss / n
        score = (-math.inf if sigma2_hat == 0.0 else math.log(sigma2_hat))
        out[k] = score + k * c / n
    return out


def bic_order(series: Series, h: int, max_order: int,
              penalty: float | None = None) -> int:
    """Order minimizing :func:`bic_values`; ties go to the smaller order."""
    return _bic_choice(bic_values(series, h, max_order, penalty))


def _bic_choice(scores: Mapping[int, float]) -> int:
    """:func:`bic_order` of the scores :func:`bic_values` returned."""
    return int(_argmin(scores, sorted(scores)))


# ---------------------------------------------------------------------------
# subset (mask) selection


def _all_masks(window: int) -> list[tuple[int, ...]]:
    """Every nonzero mask on the window, in lexicographic bit order."""
    if window > SUBSET_ORDER_CAP:
        raise SubsetTooLargeError(
            f"window {window} exceeds the exhaustive-enumeration cap "
            f"{SUBSET_ORDER_CAP}")
    return [bits for bits in product((0, 1), repeat=window) if any(bits)]


def _contains(big: tuple[int, ...], small: tuple[int, ...]) -> bool:
    """True when every lag flagged by mask ``small`` is flagged by ``big``."""
    if len(big) != len(small):
        raise ValueError("masks compare only within one window size")
    return all(x >= y for x, y in zip(big, small))


def subset_select(series: Series, h: int, window: int) -> SelectionResult:
    """Run the three-step selection over every lag subset of the window.

    Enumeration is exhaustive (``2**window - 1`` masks), so the window
    is capped.  Step 2 restricts the plug-in search to masks containing
    the step-1 mask, and the audit's plug-in map to those masks; argmin
    ties go to the lexicographically smallest mask and the step-3 tie
    to the direct predictor.  At h=1 all three maps are one-step APEs.
    """
    if h < 1 or window < 1:
        raise ValueError("horizon and window must be >= 1")
    method, chosen, audit = _three_steps(series, h, window, _all_masks(window),
                                         _contains, False)
    return SelectionResult(horizon=h, max_order=window, method=method,
                           order=None, mask=SubsetMask(chosen), audit=audit)


# ---------------------------------------------------------------------------
# population view of subset candidates


@dataclass(frozen=True)
class SubsetLossEstimate:
    """Scaled excess MSPE of one mask under both methods.

    A loss is ``math.inf`` when the mask drops a lag the corresponding
    population coefficient vector needs; standard errors are ``None``
    for infinite entries.  ``redraws`` counts the singular draws redrawn
    by the experiment that scored every mask.
    """

    plugin_loss: float
    direct_loss: float
    plugin_se: float | None
    direct_se: float | None
    redraws: int


def required_masks(model: ArModel, h: int, window: int
                   ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimal masks a candidate must contain, per method.

    The plug-in predictor needs every lag with a nonzero model
    coefficient; the direct predictor needs every lag with a nonzero
    h-step projection coefficient.
    """
    p = model.order
    if window < p:
        raise UnderspecifiedOrderError(
            f"window {window} cannot carry the order-{p} model")
    plugin_bits = [0] * window
    for i, value in enumerate(model.coeffs):
        plugin_bits[i] = int(abs(value) > TOL_ZERO)
    p_h = h_step_order(model, h)
    table = autocovariances(model, h + p - 1)
    direct_bits = [0] * window
    if p_h > 0:
        proj = optimal_direct_coeffs(table, h, p_h)
        for i in range(p_h):
            direct_bits[i] = int(abs(proj[i]) > TOL_ZERO)
    return tuple(plugin_bits), tuple(direct_bits)


def theoretical_subset_losses(model: ArModel, h: int, window: int, *,
                              n: int = 400, reps: int = 2000, seed: int = 0,
                              ) -> dict[tuple[int, ...], SubsetLossEstimate]:
    """Monte Carlo estimate of each mask's scaled excess MSPE.

    For masks containing the required lags, simulates ``reps``
    independent paths, fits on the first ``n`` observations, and scores
    the forecast of ``x_{n+h}`` against the true conditional mean of
    that value; the mean squared deviation equals the excess MSPE over
    the floor exactly (the future noise is orthogonal to any fit), so
    the report is ``n * mean`` with a matching standard error and none
    of the future-noise variance.  A path on which any fit is
    numerically singular is redrawn, at most three times.  Masks missing
    a required lag get an infinite loss outright.
    """
    from .montecarlo import _excess_deviations  # deferred: montecarlo imports this module

    masks = _all_masks(window)
    if reps < 2:
        raise ValueError("reps must be >= 2")
    plugin_req, direct_req = required_masks(model, h, window)
    pairs = [(bits, method) for bits in masks
             for method, required in ((Method.PLUGIN, plugin_req),
                                      (Method.DIRECT, direct_req))
             if _contains(bits, required)]
    squares, redraws = _excess_deviations(model, h, n, reps, (seed,), pairs)
    stats = {pair: (n * float(sq.mean()), n * float(sq.std(ddof=1)) / math.sqrt(reps))
             for pair, sq in zip(pairs, squares.T)}
    out: dict[tuple[int, ...], SubsetLossEstimate] = {}
    for bits in masks:
        plugin_loss, plugin_se = stats.get((bits, Method.PLUGIN), (math.inf, None))
        direct_loss, direct_se = stats.get((bits, Method.DIRECT), (math.inf, None))
        out[bits] = SubsetLossEstimate(plugin_loss=plugin_loss, direct_loss=direct_loss,
                                       plugin_se=plugin_se, direct_se=direct_se,
                                       redraws=redraws)
    return out
