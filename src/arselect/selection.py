"""Data-driven choice of the forecasting order (or lag subset) and method.

The procedure runs in three steps.  Step 1 screens the one-step direct
APEs and keeps their minimizer as a lower bound for the plug-in search.
Step 2 minimizes the horizon-h direct APE over all orders and the
horizon-h plug-in APE over orders at or above the step-1 choice.  Step 3
keeps whichever of the two finalists has the smaller APE, with ties
going to the direct predictor.  The subset variant runs the same three
steps over every nonzero 0/1 mask on the lag window.  "At or above" is
lag-set containment either way: for orders it is ``>=``, for masks it
holds bit by bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ape import family_apes
from .errors import SeriesOverflowError
from .estimation import Series, _lag_windows, _order_lags, fit_direct
from .methods import Method
from .theory import _all_masks

__all__ = [
    "SelectionAudit",
    "SelectionResult",
    "select_predictor",
    "bic_values",
    "bic_order",
    "subset_select",
]


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
    """Outcome of the order-and-method (or subset-and-method) selection.

    ``candidate`` is the chosen order (int) or mask bits (tuple), the label
    the audit's ``*_choice`` fields use.
    """

    horizon: int
    max_order: int
    method: Method
    candidate: int | tuple[int, ...]
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
                 audit_every_plugin: bool) -> SelectionResult:
    """The three steps over one candidate family of orders or masks.

    Step 2's "at or above" is containment of lag sets: the plug-in search
    keeps the candidates whose lags include every lag of the step-1 choice.
    The audit's plug-in map covers all candidates or, if not
    ``audit_every_plugin``, those.
    """
    start_one, start_h, lags, apes = family_apes(series, h, candidates, width)
    one_step, direct, plugin = ({c: ape[j] for c, ape in zip(candidates, apes)}
                                for j in range(3))
    one_step_choice = _argmin(one_step, candidates)
    floor = set(lags[candidates.index(one_step_choice)])
    searched = [c for c, lag in zip(candidates, lags) if floor.issubset(lag)]
    if not audit_every_plugin:
        plugin = {c: plugin[c] for c in searched}
    direct_choice = _argmin(direct, candidates)
    plugin_choice = _argmin(plugin, searched)
    if direct[direct_choice] > plugin[plugin_choice]:
        method, chosen = Method.PLUGIN, plugin_choice
    else:
        method, chosen = Method.DIRECT, direct_choice
    audit = SelectionAudit(start_one, start_h, one_step, direct, plugin,
                           one_step_choice, direct_choice, plugin_choice)
    return SelectionResult(horizon=h, max_order=width, method=method, candidate=chosen,
                           audit=audit)


def select_predictor(series: Series, h: int, max_order: int) -> SelectionResult:
    """Pick the forecasting order and method for horizon h.

    Ties between orders go to the smaller order; a step-3 tie goes to
    the direct predictor.  For ``h == 1`` the two finalists coincide, so
    the direct predictor always wins.
    """
    if h < 1 or max_order < 1:
        raise ValueError("horizon and max_order must be >= 1")
    return _three_steps(series, h, max_order, list(range(1, max_order + 1)), True)


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
    return _three_steps(series, h, window, _all_masks(window), False)
