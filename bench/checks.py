"""Checks of ``arselect`` reports against computations made here.

Nothing in this module imports ``arselect``.  Fits are plain
``numpy.linalg.lstsq`` regressions on explicitly built lag matrices,
plug-in forecasts iterate the fitted recursion step by step, and the
theory closed forms are written out by hand.  Each checker returns a
list of failure messages; an empty list means the report passed.
"""

from __future__ import annotations

import math
from itertools import product
from statistics import NormalDist, fmean

import numpy as np

from workloads import BENCHMARK_MODELS, Model

#: Relative agreement asked of forecasts and APE sums against refits.
TOL_REFIT = 1e-8
#: Absolute tolerance (scaled up for large values) of the h=2 closed forms.
TOL_CLOSED = 1e-9
#: Tolerance of the three-step direct(1)/plug-in(2) ratio.
TOL_RATIO = 1e-10
#: Relative agreement of an order and its first-k-lags mask on one seed.
TOL_PAIR = 1e-10
#: Relative tolerance of the reported floor.
TOL_FLOOR = 1e-12
#: Family-wise probability that a correct program fails the pooled z gate.
Z_GATE_ALPHA = 1e-4

_MAPS = ("one_step_direct_ape", "direct_ape", "plugin_ape")


# ---------------------------------------------------------------------------
# candidates and reference fits


def candidate_keys(max_order: int, subset: bool) -> list[str]:
    """Candidate keys as the report spells them, in tie-break order."""
    if not subset:
        return [str(k) for k in range(1, max_order + 1)]
    return ["".join(map(str, bits))
            for bits in product((0, 1), repeat=max_order) if any(bits)]


def lags_of(key: str, subset: bool) -> tuple[int, ...]:
    """One-based lags a candidate regresses on."""
    if not subset:
        return tuple(range(1, int(key) + 1))
    return tuple(i + 1 for i, b in enumerate(key) if b == "1")


def _contains(big: str, small: str, subset: bool) -> bool:
    if not subset:
        return int(big) >= int(small)
    return all(a >= b for a, b in zip(big, small))


def _key(choice) -> str:
    """Report choice (an int, or a list of bits) as a candidate key."""
    if isinstance(choice, list):
        return "".join(str(int(b)) for b in choice)
    return str(choice)


def lstsq_coeffs(values: np.ndarray, lags: tuple[int, ...], h: int, i: int) -> np.ndarray:
    """Regress ``x_{j+h}`` on ``(x_{j+1-l})_l`` over ``j = max(lags)..i-h``."""
    j = np.arange(max(lags), i - h + 1)
    design = values[j[:, None] - np.asarray(lags)[None, :]]
    return np.linalg.lstsq(design, values[j + h - 1], rcond=None)[0]


def forecast(values: np.ndarray, lags: tuple[int, ...], h: int, i: int,
             method: str) -> tuple[float, float]:
    """Forecast of ``x_{i+h}`` from ``x_1..x_i`` and the sum of the absolute
    terms it adds up (the scale a relative comparison is taken against)."""
    lag_index = np.asarray(lags)
    if method == "direct":
        coeffs = lstsq_coeffs(values, lags, h, i)
        terms = coeffs * values[i - lag_index]
        return float(np.sum(terms)), float(np.sum(np.abs(terms)))
    coeffs = lstsq_coeffs(values, lags, 1, i)
    history = list(values[i - max(lags): i])
    scale = 0.0
    for _ in range(h):
        terms = coeffs * np.asarray([history[-lag] for lag in lags])
        history.append(float(np.sum(terms)))
        scale = max(scale, float(np.sum(np.abs(terms))))
    return history[-1], scale


def naive_ape(values: np.ndarray, lags: tuple[int, ...], h: int, start: int,
              method: str) -> float:
    """Accumulated squared h-step errors with a full refit at every step."""
    total = 0.0
    for i in range(start, values.size - h + 1):
        total += (values[i + h - 1] - forecast(values, lags, h, i, method)[0]) ** 2
    return total


def _rel(got: float, want: float, scale: float | None = None) -> float:
    denom = max(abs(want), abs(got) if scale is None else scale)
    return abs(got - want) / denom if denom > 0.0 else abs(got - want)


# ---------------------------------------------------------------------------
# select reports


def _argmin(apes: dict, keys: list[str]) -> str | None:
    best, best_key = math.inf, None
    for key in keys:
        if apes[key] < best:
            best, best_key = apes[key], key
    return best_key


def check_selection(report: dict, values: np.ndarray, h: int, max_order: int,
                    subset: bool) -> list[str]:
    """The three-step rule on the audit maps, the start index, the h=1
    coincidence and the forecast against an lstsq fit."""
    fails: list[str] = []
    audit = report["audit"]
    keys = candidate_keys(max_order, subset)
    one, direct, plugin = (audit[name] for name in _MAPS)
    if set(one) != set(keys) or set(direct) != set(keys):
        return ["one-step or direct map does not cover every candidate"]
    first = _argmin(one, keys)
    eligible = [k for k in keys if _contains(k, first, subset)]
    if set(plugin) != set(eligible if subset else keys):
        return ["plug-in map does not cover the step-2 candidates"]
    d_choice = _argmin(direct, keys)
    p_choice = _argmin(plugin, eligible)
    method, chosen = (("plugin", p_choice) if direct[d_choice] > plugin[p_choice]
                      else ("direct", d_choice))
    for name, want in (("one_step_choice", first), ("direct_choice", d_choice),
                       ("plugin_choice", p_choice)):
        if _key(audit[name]) != want:
            fails.append(f"{name} {_key(audit[name])} != recomputed {want}")
    if report["method"] != method:
        fails.append(f"method {report['method']} != recomputed {method}")
    got = _key(report["mask"]) if subset else str(report["order"])
    if got != chosen:
        fails.append(f"chosen candidate {got} != recomputed {chosen}")

    n = values.size
    if report["n"] != n:
        fails.append(f"n {report['n']} != {n}")
    for name, hh in (("start_one_step", 1), ("start", h)):
        if not 2 * max_order + hh - 1 <= audit[name] <= n - hh:
            fails.append(f"{name} {audit[name]} outside "
                         f"[{2 * max_order + hh - 1}, {n - hh}]")
    if h == 1 and not (one == direct == plugin
                       and audit["start"] == audit["start_one_step"]):
        fails.append("h=1: one-step, direct and plug-in maps differ")

    want, scale = forecast(values, lags_of(got, subset), h, n, report["method"])
    if _rel(report["forecast"], want, scale) > TOL_REFIT:
        fails.append(f"forecast {report['forecast']!r} != lstsq {want!r}")
    return fails


def check_refit(report: dict, values: np.ndarray, h: int, key: str,
                which: str, subset: bool) -> list[str]:
    """One audit APE against a naive refit at every step."""
    audit = report["audit"]
    hh, start = (1, audit["start_one_step"]) if which == _MAPS[0] \
        else (h, audit["start"])
    method = "plugin" if which == "plugin_ape" else "direct"
    want = naive_ape(values, lags_of(key, subset), hh, start, method)
    got = audit[which][key]
    if _rel(got, want) > TOL_REFIT:
        return [f"{which}[{key}] {got!r} != naive refit {want!r}"]
    return []


def check_mask_dense(subset_report: dict, dense_report: dict, window: int) -> list[str]:
    """The full mask of the subset search must reproduce the dense order
    ``window`` exactly, in all three maps."""
    full, order = "1" * window, str(window)
    fails = []
    for name in _MAPS:
        got, want = subset_report["audit"][name][full], dense_report["audit"][name][order]
        if got != want:
            fails.append(f"{name}: mask {full} {got!r} != order {order} {want!r}")
    return fails


# ---------------------------------------------------------------------------
# Monte Carlo study cells


def ma_weights(coeffs: tuple[float, ...], count: int) -> list[float]:
    """``b_0..b_{count-1}`` of the moving-average expansion."""
    b = [1.0]
    for i in range(1, count):
        b.append(sum(coeffs[j - 1] * b[i - j] for j in range(1, min(i, len(coeffs)) + 1)))
    return b


def floor_of(model: Model, h: int) -> float:
    return model.sigma2 * sum(w * w for w in ma_weights(model.coeffs, h))


def closed_form_constants(model: Model, h: int, max_order: int) -> dict:
    """Excess constants known in closed form, keyed ``(order, method)``.

    Horizon two: ``(k + (k+2) a1^2) s2`` direct and
    ``((k+2) a1^2 + k - 1 + a_k^2) s2`` plug-in, for ``k >= p``.  Horizon
    three on the benchmark curve ``a1 = sqrt(-a2)``: the order-1 and order-2
    direct constants and the order-2 plug-in constant.
    """
    a, s2, p = model.coeffs, model.sigma2, model.order
    out: dict = {}
    if h == 2:
        for k in range(p, max_order + 1):
            ak = a[k - 1] if k <= p else 0.0
            out[k, "direct"] = (k + (k + 2) * a[0] ** 2) * s2
            out[k, "plugin"] = ((k + 2) * a[0] ** 2 + k - 1 + ak ** 2) * s2
    elif h == 3 and tuple(a) in BENCHMARK_MODELS and max_order >= 2:
        a2 = a[1]
        d1 = (1 - 4 * a2 + a2 ** 2) / (1 - a2) * s2
        d2 = d1 + (1 - a2 + 2 * a2 ** 2 / (1 - a2)) * s2
        out[1, "direct"] = d1
        out[2, "direct"] = d2
        out[2, "plugin"] = d2 - 2 * (1 + a2) * (1 - a2 + 2 * a2 ** 2) * s2
    return out


def three_step_ratio(a2: float) -> float:
    return (1 - 4 * a2 + a2 ** 2) / (-4 * a2 + 2 * a2 ** 2 - 2 * a2 ** 3 + 4 * a2 ** 4)


def check_theory(report: dict, model: Model, h: int, max_order: int) -> list[str]:
    """Closed forms, the three-step ratio, the floor and which constants
    must be missing (plug-in below the model order)."""
    fails = []
    want_floor = floor_of(model, h)
    if _rel(report["irreducible_variance"], want_floor) > TOL_FLOOR:
        fails.append(f"theory floor {report['irreducible_variance']!r} != {want_floor!r}")
    rows = {row["order"]: row for row in report["per_order"]}
    if sorted(rows) != list(range(1, max_order + 1)):
        return fails + ["theory rows do not cover orders 1..max_order"]
    for k, row in rows.items():
        if (row["plugin_constant"] is None) != (k < model.order):
            fails.append(f"plug-in constant at order {k}: {row['plugin_constant']!r}")
    for (k, method), want in closed_form_constants(model, h, max_order).items():
        got = rows[k][f"{method}_constant"]
        if got is None or abs(got - want) > TOL_CLOSED * max(1.0, abs(want)):
            fails.append(f"h={h} order {k} {method} constant {got!r} != {want!r}")
    if h == 3 and tuple(model.coeffs) in BENCHMARK_MODELS:
        got = rows[1]["direct_constant"] / rows[2]["plugin_constant"]
        want = three_step_ratio(model.coeffs[1])
        if abs(got - want) > TOL_RATIO:
            fails.append(f"three-step ratio {got!r} != {want!r}")
    return fails


def check_mspe(report: dict, model: Model, h: int, n: int) -> list[str]:
    fails = []
    want = floor_of(model, h)
    if _rel(report["floor"], want) > TOL_FLOOR:
        fails.append(f"mspe floor {report['floor']!r} != {want!r}")
    scaled = n * (report["mean"] - report["floor"])
    if _rel(report["scaled_excess"], scaled) > TOL_FLOOR:
        fails.append(f"scaled_excess {report['scaled_excess']!r} != {scaled!r}")
    return fails


def check_pair(order_report: dict, mask_report: dict) -> list[str]:
    """An order and its first-k-lags mask on the same seed."""
    got, want = mask_report["mean"], order_report["mean"]
    if _rel(got, want) > TOL_PAIR:
        return [f"mask mean {got!r} != order mean {want!r}"]
    return []


def z_gate(cells: list[dict]) -> list[str]:
    """Pooled ``n (mean - floor)`` of each cell against ``floor + C/n``.

    Each cell holds ``means`` (one per independent seed), ``reps``, ``n``,
    ``floor`` and ``constant``.  The standard error is the one squared
    Gaussian errors give, ``sqrt(2) (floor + C/n)`` per replication, so the
    gate does not lean on the program's own error estimate.  The critical
    value splits ``Z_GATE_ALPHA`` over the cells (two-sided).

    With a few thousand pooled replications the gate resolves a bias of
    several percent of the floor in the mean, far more than the constant
    itself moves the mean: it catches a wrong error scale, horizon or
    predictor, not a wrong constant (the constants are checked exactly in
    ``check_theory``).
    """
    if not cells:
        return []
    crit = NormalDist().inv_cdf(1.0 - Z_GATE_ALPHA / (2 * len(cells)))
    fails = []
    for cell in cells:
        n, c = cell["n"], cell["constant"]
        pooled = fmean(n * (m - cell["floor"]) for m in cell["means"])
        se = n * math.sqrt(2.0) * (cell["floor"] + c / n) \
            / math.sqrt(cell["reps"] * len(cell["means"]))
        z = abs(pooled - c) / se
        if z > crit:
            fails.append(f"cell {cell['name']}: pooled {pooled:.3f} vs constant "
                         f"{c:.3f}, |z| {z:.2f} > {crit:.2f}")
    return fails
