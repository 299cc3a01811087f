"""Simulation experiments: paths, MSPE estimates, and benchmark ratios.

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

    The retained window satisfies the model recursion against the
    retained innovations exactly (the burn-in is discarded from both).
    """

    series: Series
    innovations: np.ndarray
    seed: object
    burn_in: int


def _draw_innovations(seed, size: int, sigma2: float, dist: str,
                      df: float | None) -> np.ndarray:
    """``size`` innovations from the substream ``seed``: one replication's draw."""
    if sigma2 == 0.0:
        return np.zeros(size)
    rng = np.random.default_rng(seed)
    scale = math.sqrt(sigma2)
    if dist == "normal":
        return scale * rng.standard_normal(size)
    if dist == "uniform":
        # sqrt(3 sigma2), which 3 sigma2 would overflow near the float maximum;
        # the two forms agree bit for bit wherever 0.75 sigma2 is normal.
        half_width = (2.0 * math.sqrt(0.75 * sigma2) if sigma2 > 1.0
                      else math.sqrt(3.0 * sigma2))
        return rng.uniform(-half_width, half_width, size)
    if dist == "student-t":
        dof = 12.0 if df is None else float(df)
        if not 8.0 < dof < math.inf:
            raise OutOfDomainError("student-t innovations need finite degrees "
                                   f"of freedom above 8, got {dof}")
        return scale * math.sqrt((dof - 2.0) / dof) * rng.standard_t(dof, size)
    raise ValueError(f"unknown innovation distribution {dist!r}")


def _draw_rows(model: ArModel, n: int, seeds: Sequence, burn_in: int,
               dist: str, df: float | None, sigma2: float | None = None,
               ) -> tuple[np.ndarray, np.ndarray]:
    """(paths, innovations), each (len(seeds), n): one path per seed, drawn
    from a zero state, filtered as one block, with the burn-in dropped."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    variance = model.sigma2 if sigma2 is None else float(sigma2)
    if variance < 0.0:
        raise ValueError("sigma2 override must be >= 0")
    from scipy.signal import lfilter  # deferred: loads SciPy on first use

    eps = np.empty((len(seeds), burn_in + n))
    for row, seed in zip(eps, seeds):
        row[:] = _draw_innovations(seed, burn_in + n, variance, dist, df)
    denom = np.concatenate(([1.0], -model.coeffs))
    paths = lfilter([1.0], denom, eps, axis=1)[:, burn_in:]
    if not np.isfinite(paths).all():
        raise ValueError("series contains non-finite values")
    return paths, eps[:, burn_in:]


def simulate(model: ArModel, n: int, seed, burn_in: int = DEFAULT_BURN_IN,
             dist: str = "normal", df: float | None = None,
             sigma2: float | None = None) -> SimPath:
    """Simulate ``n`` observations of the model after a warm-up period.

    The recursion starts from a zero state and the first ``burn_in``
    observations are dropped.  ``sigma2`` overrides the model's
    innovation variance (zero gives the deterministic skeleton, useful
    for noiseless checks).  Identical arguments give identical paths.
    """
    paths, eps = _draw_rows(model, n, [seed], burn_in, dist, df, sigma2)
    return SimPath(series=Series(paths[0]), innovations=eps[0].copy(),
                   seed=seed, burn_in=burn_in)


# ---------------------------------------------------------------------------
# the replication driver

#: Path elements (burn-in included) one block of replications may hold:
#: 128 KiB of float64 per block array, whatever the number of replications.
#: Blocks of twice this size ran the ``mc-study`` benchmark 5% faster but
#: raised its peak RSS by 2% (2-core x86-64 Linux, numpy 2.4, scipy 1.17).
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
    a time, so memory does not grow with ``reps``.
    """
    rows = max(1, _BLOCK_ELEMENTS // (burn_in + length))
    for lo in range(0, reps, rows):
        block = range(lo, min(lo + rows, reps))
        got, todo, redraws = {}, list(block), 0
        for attempt in range(4):
            if attempt:
                redraws += len(todo)
            paths, _ = _draw_rows(model, length, [(*key, rep, attempt) for rep in todo],
                                  burn_in, dist, df)
            got.update(zip(todo, score(paths)))
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
