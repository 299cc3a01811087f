"""Simulation experiments: paths, MSPE estimates, and benchmark ratios.

A path starts from a pre-sample state drawn from the model's stationary
law, so no burn-in is needed (the default is none).  Each replication's
substream draws, in this order, the path's ``burn_in + n`` innovations and
then ``p`` standard normals for its start: the innovations do not depend on
the start.

Every experiment runs its replications through one driver,
:func:`_replicate`, which draws, filters and scores them a block at a
time: replication r draws from the substream keyed
``(*key, r, attempt)``, and a numerically singular draw is redrawn with
the next attempt, at most three times.  The key is ``(seed,)`` for
:func:`mc_mspe` and :func:`selection_frequency`, and ``(seed, index)``
for model ``index`` of :func:`replicate_table1`.  For
seeds below 2**64, ``(seed, r, 0)`` is the stream of ``(seed, r)``, as
numpy's ``SeedSequence`` pads its entropy with zeros.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import OutOfDomainError, SingularMomentError
from .estimation import Series, _check_forecast, _forecast_rows, _resolve_candidate
from .methods import Method
from .selection import select_predictor, subset_select
from .theory import (
    ArModel,
    companion_matrix,
    horizon_variance,
    loss_table,
    optimal_candidates,
    subset_loss_table,
    three_step_excess_ratio,
)
from .tolerances import DEFAULT_BURN_IN

__all__ = ["SimPath", "simulate", "MspeEstimate", "mc_mspe", "ThreeStepRatio",
           "BENCHMARK_MODELS", "REFERENCE_RATIOS", "replicate_table1",
           "FrequencyResult", "selection_frequency"]

#: The four second-order benchmark models ``a_1 = sqrt(-a_2)``, newest first.
BENCHMARK_MODELS: tuple[tuple[float, float], ...] = (
    (0.9, -0.81),
    (0.8, -0.64),
    (0.6, -0.36),
    (0.5, -0.25),
)

#: Previously reported three-step ratio estimates for the benchmark
#: models at selected sample sizes, used by the ``--check`` gate.
REFERENCE_RATIOS: dict[int, tuple[float, float, float, float]] = {
    150: (0.700, 0.891, 1.398, 1.719),
    300: (0.688, 0.843, 1.365, 1.782),
    500: (0.649, 0.879, 1.365, 1.762),
    1000: (0.673, 0.872, 1.379, 1.761),
}


@dataclass(frozen=True)
class SimPath:
    """A simulated path with the innovations that generated it.

    The path starts from a stationary pre-sample state, so ``x_1`` already
    has the model's stationary law; ``burn_in`` steps after that start are
    discarded from both the path and the innovations.  The kept window
    satisfies the model recursion against the kept innovations exactly,
    given the ``p`` values before it.
    """

    series: Series
    innovations: np.ndarray
    seed: object
    burn_in: int


def _draw_innovations(seed, size: int, start: int, sigma2: float, dist: str,
                      df: float | None) -> np.ndarray:
    """One replication's draw from the substream ``seed``: ``size``
    innovations, then ``start`` standard normals for the pre-sample state.

    The innovations come first, so they do not depend on ``start``.  A zero
    ``sigma2`` draws nothing and returns zeros.
    """
    if sigma2 == 0.0:
        return np.zeros(size + start)
    rng = np.random.default_rng(seed)
    scale = math.sqrt(sigma2)
    if dist == "normal":
        # One call: numpy's normals do not depend on how a run is split.
        out = rng.standard_normal(size + start)
        out[:size] *= scale
        return out
    if dist == "uniform":
        # sqrt(3 sigma2), which 3 sigma2 would overflow near the float maximum;
        # the two forms agree bit for bit wherever 0.75 sigma2 is normal.
        half_width = (2.0 * math.sqrt(0.75 * sigma2) if sigma2 > 1.0
                      else math.sqrt(3.0 * sigma2))
        eps = rng.uniform(-half_width, half_width, size)
    elif dist == "student-t":
        dof = 12.0 if df is None else float(df)
        if not 8.0 < dof < math.inf:
            raise OutOfDomainError("student-t innovations need finite degrees "
                                   f"of freedom above 8, got {dof}")
        eps = scale * math.sqrt((dof - 2.0) / dof) * rng.standard_t(dof, size)
    else:
        raise ValueError(f"unknown innovation distribution {dist!r}")
    return np.concatenate((eps, rng.standard_normal(start)))


#: Largest reflection coefficient a start is drawn with, in magnitude: a model
#: at the edge of stationarity can round to one on or past +-1.
_KAPPA_MAX = float(np.nextafter(1.0, 0.0))


def _stationary_root(coeffs: np.ndarray) -> np.ndarray:
    """(p, p) S with ``S' S = Gamma_p / sigma2``: ``z @ S``, for p standard
    normals z, is a pre-sample ``(x_0, ..., x_{1-p})``, newest first, drawn
    from the stationary law at unit innovation variance.

    The Levinson recursion run backwards gives the order-k predictors phi_k
    and reflection coefficients kappa_k of the coefficients.  The pre-sample
    is drawn oldest first: each value is its order-k prediction from the k
    values before it plus an innovation of variance
    ``1 / prod_{i > k} (1 - kappa_i^2)``.  So no Yule-Walker solve, and no
    guard on one, stands between an accepted model and its start.  A kappa
    that rounding puts on or past +-1 is drawn as the nearest float inside.
    """
    p = coeffs.size
    phis, gaps = [coeffs], []  # phi_p .. phi_0, and 1 - kappa_k^2 for k = p .. 1
    for _ in range(p):
        phi = phis[-1]
        kappa = min(max(float(phi[-1]), -_KAPPA_MAX), _KAPPA_MAX)
        gaps.append((1.0 - kappa) * (1.0 + kappa))
        phis.append((phi[:-1] + kappa * phi[-2::-1]) / gaps[-1])
    scales = 1.0 / np.sqrt(np.cumprod(gaps)[::-1])
    root = np.zeros((p, p))  # oldest first until the last line
    for k in range(p):
        if k:
            root[:, k] = root[:, k - 1::-1] @ phis[p - k]
        root[k, k] = scales[k]
    return root[:, ::-1]


def _start_factor(model: ArModel, sigma2: float) -> np.ndarray:
    """(p, p) F such that ``z @ F``, for p standard normals z, is the
    ``lfilter`` state of a pre-sample drawn from N(0, Gamma_p): the
    pre-sample :func:`_stationary_root` draws, scaled by ``sqrt(sigma2)``,
    times the Hankel matrix ``H[m, i] = a_{i+m+1}`` (zero past a_p).
    """
    coeffs = model.coeffs
    p = coeffs.size
    hankel = np.concatenate((coeffs, np.zeros(p)))[np.add.outer(np.arange(p), np.arange(p))]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        factor = math.sqrt(sigma2) * (_stationary_root(coeffs) @ hankel)
    if not np.isfinite(factor).all():
        raise OutOfDomainError("the stationary law of the model is out of "
                               f"floating-point range at sigma2 = {sigma2!r}")
    return factor


def _draw_rows(model: ArModel, n: int, seeds: Sequence, burn_in: int,
               dist: str, df: float | None, sigma2: float | None = None,
               factor: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(paths, innovations), each (len(seeds), n): one path per seed, from a
    stationary start, filtered as one block, with the burn-in dropped.

    Seed ``s`` draws ``burn_in + n`` innovations, then ``p`` standard normals
    for its start (see :func:`_draw_innovations`).  ``factor`` is
    :func:`_start_factor` of the model and variance, if already known.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    variance = model.sigma2 if sigma2 is None else float(sigma2)
    if variance < 0.0:
        raise ValueError("sigma2 override must be >= 0")
    if factor is None:
        factor = _start_factor(model, variance)
    from scipy.signal import lfilter  # deferred: loads SciPy on first use

    size, p = burn_in + n, model.order
    draws = np.empty((len(seeds), size + p))
    for row, seed in zip(draws, seeds):
        row[:] = _draw_innovations(seed, size, p, variance, dist, df)
    eps, start = draws[:, :size], draws[:, size:]
    denom = np.concatenate(([1.0], -model.coeffs))
    # zi = start @ factor, one term at a time: a matrix product could round
    # a row differently with the number of rows, and a block must give what
    # one row gives.
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        zi = start[:, :1] * factor[0]
        for j in range(1, p):
            zi += start[:, j:j + 1] * factor[j]
        paths = lfilter([1.0], denom, eps, axis=1, zi=zi)[0][:, burn_in:]
    if not np.isfinite(paths).all():
        raise ValueError("series contains non-finite values")
    return paths, eps[:, burn_in:]


def simulate(model: ArModel, n: int, seed, burn_in: int = DEFAULT_BURN_IN,
             dist: str = "normal", df: float | None = None,
             sigma2: float | None = None) -> SimPath:
    """Simulate ``n`` observations of the stationary model.

    The pre-sample state ``(x_0, ..., x_{1-p})`` is drawn from N(0, Gamma_p),
    so the path is stationary from its first value: exactly for Gaussian
    innovations, to second order for uniform and t ones.  ``burn_in``
    further steps are drawn and dropped (none by default).  ``sigma2``
    overrides the model's innovation variance (zero gives the zero path).
    Identical arguments give identical paths.
    """
    paths, eps = _draw_rows(model, n, [seed], burn_in, dist, df, sigma2)
    return SimPath(series=Series(paths[0]), innovations=eps[0].copy(),
                   seed=seed, burn_in=burn_in)


# ---------------------------------------------------------------------------
# the replication driver

#: Path elements (burn-in included) one block of replications may hold:
#: 128 KiB of float64 per block array, whatever the number of replications
#: (32 rows at n = 500 without burn-in, 16 with a 500-step one).  With the
#: 500-step burn-in, blocks of twice this size ran the ``mc-study``
#: benchmark 5% faster but raised its peak RSS by 2% (2-core x86-64 Linux,
#: numpy 2.4, scipy 1.17).
_BLOCK_ELEMENTS = 1 << 14


def _replicate(model: ArModel, length: int, reps: int, key: tuple, score,
               burn_in: int = DEFAULT_BURN_IN, dist: str = "normal",
               df: float | None = None) -> Iterator[tuple[list, int]]:
    """Yield ``(scores, redraws)`` of each block of the ``reps`` paths of
    ``length``, in replication order.

    ``score`` takes a (rows, length) block of paths and returns one score
    per row, or a :class:`SingularMomentError` for a row whose fit was
    singular.  Replication r draws from ``(*key, r, attempt)``.  Only the
    singular rows are redrawn, each from its next attempt, at most three
    times; any other error propagates at once.  Only one block is held at
    a time, so memory does not grow with ``reps``.  The start factor is
    computed once for all blocks.
    """
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    rows = max(1, _BLOCK_ELEMENTS // (burn_in + length))
    factor = _start_factor(model, model.sigma2)
    for lo in range(0, reps, rows):
        block = range(lo, min(lo + rows, reps))
        got, todo, redraws = {}, list(block), 0
        for attempt in range(4):
            if attempt:
                redraws += len(todo)
            # No reference outlives the scoring, so one block's arrays are
            # freed before the next block is drawn.
            got.update(zip(todo, score(_draw_rows(
                model, length, [(*key, rep, attempt) for rep in todo], burn_in, dist, df,
                factor=factor)[0])))
            todo = [rep for rep in todo if isinstance(got[rep], SingularMomentError)]
            if not todo:
                break
        else:
            raise got[todo[0]]
        yield [got[rep] for rep in block], redraws


def _squared_errors(model: ArModel, h: int, n: int, reps: int, key: tuple,
                    pairs: Sequence, target, burn_in: int = DEFAULT_BURN_IN,
                    dist: str = "normal", df: float | None = None,
                    ) -> tuple[np.ndarray, int]:
    """(reps, len(pairs)) squared errors of each (candidate, method) forecast
    of ``x_{n+h}``, fitted on the first ``n`` observations of a path, from
    ``target(path)``, and the redraw count.  A path fails on its first
    failed pair.  Each square is a scalar power in the type of its error,
    which can round differently from numpy's array ``x * x``.

    A configuration that no path could score (too few observations for a
    pair) raises before anything is drawn.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for candidate, method in pairs:
        _check_forecast(n, h, candidate, method)

    def score(block: np.ndarray) -> list:
        forecasts, faults = [], {}
        for candidate, method in pairs:
            got, failed = _forecast_rows(block[:, :n], h, candidate, method)
            forecasts.append(got)
            faults = {**failed, **faults}
        out = []
        for r, path in enumerate(block):
            if r in faults:
                out.append(SingularMomentError(faults[r]))
            else:
                ref = target(path)
                out.append([(got[r] - ref) ** 2 for got in forecasts])
        return out

    squares, redraws = [], 0
    for block, block_redraws in _replicate(model, n + h, reps, key, score, burn_in,
                                           dist, df):
        squares.append(np.array(block))
        redraws += block_redraws
    return np.concatenate(squares), redraws


def _excess_deviations(model: ArModel, h: int, n: int, reps: int, key: tuple,
                       pairs: Sequence, burn_in: int = DEFAULT_BURN_IN,
                       ) -> tuple[np.ndarray, int]:
    """:func:`_squared_errors` from ``E[x_{n+h} | x_1..x_n]``; their mean is
    the excess MSPE over the floor.  The conditional mean is a Python
    float, so the squares are Python-float powers.
    """
    p = model.order
    cond_coeffs = np.linalg.matrix_power(companion_matrix(model.coeffs), h)[0, :]
    return _squared_errors(model, h, n, reps, key, pairs,
                           lambda path: float(cond_coeffs @ path[n - p: n][::-1]),
                           burn_in)


# ---------------------------------------------------------------------------
# MSPE of a fixed candidate


@dataclass(frozen=True)
class MspeEstimate:
    """Monte Carlo mean squared prediction error of one candidate."""

    horizon: int
    candidate: int | tuple[int, ...]
    method: Method
    n: int
    reps: int
    mean: float
    std_error: float
    redraws: int


def mc_mspe(model: ArModel, h: int, candidate, method: Method, n: int,
            reps: int, seed, burn_in: int = DEFAULT_BURN_IN,
            dist: str = "normal", df: float | None = None) -> MspeEstimate:
    """Estimate the h-step MSPE of one (candidate, method) pair.

    Each replication simulates ``n + h`` observations, fits on the first
    ``n``, and scores the forecast of the last one.  A replication whose
    fit is numerically singular is redrawn from a fresh substream at
    most three times before giving up; a series too short for the
    candidate is a configuration error and raises before any draw.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    method = Method(method)
    squares, redraws = _squared_errors(model, h, n, reps, (seed,), [(candidate, method)],
                                       lambda path: path[n + h - 1], burn_in, dist, df)
    sq = squares[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mean = float(sq.mean())
        std_error = float(sq.std(ddof=1)) / math.sqrt(reps)
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise OutOfDomainError(f"MSPE estimate is not finite at sigma2 = {model.sigma2!r}")
    return MspeEstimate(horizon=h, candidate=_resolve_candidate(candidate)[2],
                        method=method, n=n, reps=reps, mean=mean,
                        std_error=std_error, redraws=redraws)


# ---------------------------------------------------------------------------
# benchmark ratio experiment


@dataclass(frozen=True)
class ThreeStepRatio:
    """Excess-MSPE ratio of the order-1 direct to order-2 plug-in
    three-step predictor for one benchmark model, with the number of
    singular draws its replications redrew."""

    coeffs: tuple[float, float]
    n: int
    reps: int
    direct_mspe: float
    plugin_mspe: float
    floor: float
    ratio: float
    std_error: float
    limit: float
    redraws: int


def replicate_table1(n: int = 300, reps: int = 20000, seed: int = 0,
                     burn_in: int = DEFAULT_BURN_IN,
                     models: Sequence[tuple[float, float]] = BENCHMARK_MODELS,
                     ) -> list[ThreeStepRatio]:
    """Re-run the benchmark comparing direct and plug-in three-step forecasts.

    For each model, both predictors are scored on the same simulated
    paths.  The excess mean-squared prediction error over the exact
    three-step floor equals the mean squared deviation of the forecast
    from the true conditional mean (the irreducible future noise is
    orthogonal to both forecasts), so each replication scores the
    forecasts against that conditional mean directly.  Subtracting the
    realized future value instead would leave the shared future-noise
    variance in both averages and drown the excess, which is O(1/n), in
    Monte Carlo error.  The reported ratio is the direct excess over the
    plug-in excess, with a delta-method standard error that accounts for
    the pairing.  The accompanying limit is the exact asymptotic value
    of the same ratio.  A path on which either fit is numerically
    singular is redrawn, at most three times.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    h = 3
    pairs = ((1, Method.DIRECT), (2, Method.PLUGIN))
    out = []
    for index, coeffs in enumerate(models):
        model = ArModel(coeffs, 1.0)
        floor = horizon_variance(model, h)
        squares, redraws = _excess_deviations(model, h, n, reps, (seed, index),
                                              pairs, burn_in)
        direct_sq, plugin_sq = squares.T
        dx = float(direct_sq.mean())
        dy = float(plugin_sq.mean())
        ratio = dx / dy
        cov = np.cov(direct_sq, plugin_sq, ddof=1) / reps
        var = (cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio ** 2 * cov[1, 1]) \
            / dy ** 2
        out.append(ThreeStepRatio(
            coeffs=tuple(coeffs), n=n, reps=reps, direct_mspe=floor + dx,
            plugin_mspe=floor + dy, floor=floor, ratio=ratio,
            std_error=math.sqrt(max(var, 0.0)), limit=three_step_excess_ratio(coeffs[1]),
            redraws=redraws))
    return out


def check_ratios(rows: Sequence[ThreeStepRatio], *,
                 widen: float = 1.0) -> list[str]:
    """Compare replicated ratios to the stored references and exact limits.

    Returns a list of human-readable failures (empty means all within
    tolerance).  The reference comparison applies only at sample sizes
    with stored values; the limit comparison always applies.
    """
    failures = []
    for pos, row in enumerate(rows):
        reference_row = REFERENCE_RATIOS.get(row.n)
        if reference_row is not None and pos < len(reference_row):
            tol = max(0.06, 3.0 * row.std_error) * widen
            gap = abs(row.ratio - reference_row[pos])
            if gap > tol:
                failures.append(
                    f"model {row.coeffs}: ratio {row.ratio:.4f} vs reference "
                    f"{reference_row[pos]:.3f} (|gap| {gap:.4f} > tol {tol:.4f})")
        gap = abs(row.ratio - row.limit)
        tol = 0.08 * widen
        if gap > tol:
            failures.append(
                f"model {row.coeffs}: ratio {row.ratio:.4f} vs limit "
                f"{row.limit:.4f} (|gap| {gap:.4f} > tol {tol:.4f})")
    return failures


# ---------------------------------------------------------------------------
# selection frequencies


@dataclass(frozen=True)
class FrequencyResult:
    """How often each (candidate, method) pair was selected, and how many
    singular draws were redrawn."""

    horizon: int
    max_order: int
    n: int
    reps: int
    counts: dict
    #: asymptotically optimal (candidate, method) pairs; None below the model order
    optimal: set | None
    redraws: int


def selection_frequency(model: ArModel, h: int, max_order: int, n: int,
                        reps: int, seed, subset: bool = False,
                        burn_in: int = DEFAULT_BURN_IN) -> FrequencyResult:
    """Selection frequencies over independent simulated paths.

    A path on which the selection hits a numerically singular fit is
    redrawn, at most three times.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")

    def score(block: np.ndarray) -> list:
        out = []
        for values in block:
            try:
                result = (subset_select if subset else select_predictor)(
                    Series(values), h, max_order)
            except SingularMomentError as exc:
                out.append(exc)
            else:
                out.append((result.candidate, result.method))
        return out

    counts, redraws = Counter(), 0
    for choices, block_redraws in _replicate(model, n, reps, (seed,), score, burn_in):
        counts.update(choices)
        redraws += block_redraws
    counts = dict(counts)
    optimal = None
    if max_order >= model.order:
        table = (subset_loss_table if subset else loss_table)(model, h, max_order)
        optimal = optimal_candidates(table)
    return FrequencyResult(horizon=h, max_order=max_order, n=n, reps=reps,
                           counts=counts, optimal=optimal, redraws=redraws)
