"""Simulation experiments: paths, MSPE estimates, and benchmark ratios.

A path starts from a pre-sample state drawn from the model's stationary
law, factored from the same Levinson step-down that validates the model,
so no burn-in is needed (the default is none).  Each replication's
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

A substream is the stream of ``np.random.default_rng`` of its key, bit for
bit, but no ``SeedSequence`` is built per replication: a block's keys are
hashed at once, by numpy's ``SeedSequence`` algorithm run over arrays, and
each row's PCG64 generator seeds itself from its row of the hash.
:func:`_replicate` forms a block's entropy from the key's words and columns
for the replication and the attempt (:class:`_BlockKeys`); the hash serves
only those blocks.  A single path, :func:`simulate`, seeds numpy's own
``np.random.PCG64(seed)``, the generator of ``np.random.default_rng(seed)``.
A block is scored as arrays: each squared error is
``np.float_power(error, 2.0)``, which rounds as a scalar ``error ** 2``.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError, SingularMomentError
from .estimation import (
    Series,
    _check_forecast,
    _forecast_rows,
    _lag_sum,
    _resolve_candidate,
)
from .methods import Method
from .selection import select_predictor, subset_select
from .theory import (
    ArModel,
    _step_down,
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


# numpy's SeedSequence (a pool of four 32-bit words) hashing constants
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _entropy_words(seed) -> list[int]:
    """The 32-bit words numpy's ``SeedSequence`` takes from ``seed``: each
    non-negative integer little-endian, 0 as one word, sequences flattened."""
    if isinstance(seed, (int, np.integer)):
        seed = int(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        return [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    if isinstance(seed, (float, np.inexact, str)):
        raise TypeError(f"seed must be integer, not {seed!r}")
    words = []
    for part in seed:
        if type(part) is int and 0 <= part <= _MASK32:  # one word, inline: the usual part
            words.append(part)
        else:
            words += _entropy_words(part)
    return words


class _BlockKeys(Sequence):
    """The keys ``(*key, rep, attempt)`` of one draw of a block's rows.

    To a reader it is the sequence of those tuples.  Its :meth:`entropy`
    is formed as arrays: the key's ``words`` (validated once, by
    :func:`_entropy_words`) in every row, then the word or two of the
    row's ``rep`` (below 2**64) and the one word of ``attempt``.
    """

    def __init__(self, key: tuple, words: Sequence[int], reps: np.ndarray,
                 attempt: int) -> None:
        self.key, self.words, self.reps, self.attempt = key, words, reps, attempt

    def __len__(self) -> int:
        return len(self.reps)

    def __getitem__(self, row: int) -> tuple:
        return (*self.key, int(self.reps[row]), self.attempt)

    def entropy(self) -> tuple[np.ndarray, np.ndarray]:
        """(width, rows) 32-bit entropy words of the keys, each row's
        zero-padded to the widest (four at least: ``SeedSequence``'s pool),
        and each row's word count.  A ``rep`` of 2**32 or more takes two
        words, which moves its row's ``attempt`` one word on."""
        k, reps = len(self.words), np.asarray(self.reps, dtype=np.uint64)
        wide = reps > _MASK32
        lengths = k + 2 + wide
        entropy = np.zeros((max(4, k + 2 + bool(wide.any())), reps.size), dtype=np.uint32)
        entropy[:k] = np.array(self.words, dtype=np.uint32)[:, None]
        entropy[k] = reps & _MASK32
        entropy[k + 1] = np.where(wide, reps >> np.uint64(32), self.attempt)
        if wide.any():
            entropy[k + 2] = np.where(wide, self.attempt, 0)
        return entropy, lengths


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """(count + 1, 1) successive hash multipliers ``init * mult**k`` mod 2**32,
    read-only, since every caller shares them."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    out = np.array(out, dtype=np.uint32)[:, None]
    out.flags.writeable = False
    return out


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``value`` under each of ``len(consts) - 1``
    successive multipliers, one row each."""
    value = (value ^ consts[:-1]) * consts[1:]
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of ``x`` and ``y``, elementwise."""
    value = _MIX_MULT_L * x
    value -= _MIX_MULT_R * y
    value ^= value >> 16
    return value


@functools.cache
def _cascade_constants() -> np.ndarray:
    """(4, 2, 4, 1) read-only: for each source pool word, the xor and the
    multiply constant of its ``hashmix`` into each other pool word, in
    SeedSequence's order (zero at the source itself, which is kept)."""
    consts = _hash_constants(_INIT_A, _MULT_A, 16)[:, 0]
    out = np.zeros((4, 2, 4, 1), dtype=np.uint32)
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        out[src, 0, dst, 0] = consts[4 + 3 * src: 7 + 3 * src]
        out[src, 1, dst, 0] = consts[5 + 3 * src: 8 + 3 * src]
    out.flags.writeable = False
    return out


def _seed_words(keys: _BlockKeys) -> np.ndarray:
    """(keys, 4) C-contiguous: the 64-bit words
    ``SeedSequence(key).generate_state(4, np.uint64)`` of each key of a
    block, which PCG64 seeds itself from, hashed as one block.

    This is numpy's documented ``SeedSequence`` mix run over every key at
    once: the hash multipliers depend only on a word's position, so each
    step is one array operation over the keys.  A pool word is mixed into
    the three others in one step over the whole pool, which then keeps the
    source word.  Words past the pool are mixed only into the keys that
    have them (a zero word past a key's own is not padding).
    """
    entropy, lengths = keys.entropy()
    width = len(entropy)
    consts = _hash_constants(_INIT_A, _MULT_A, 4 * width)
    pool = _hashmix(entropy[:4], consts[:5])
    for src, (xor, mult) in enumerate(_cascade_constants()):  # each pool word into the others
        value = (pool[src] ^ xor) * mult
        value ^= value >> 16
        mixed = _mix(pool, value)
        mixed[src] = pool[src]
        pool = mixed
    for src in range(4, width):  # words past the pool into every pool word
        mixed = _mix(pool, _hashmix(entropy[src], consts[4 * src: 4 * src + 5]))
        pool = np.where(lengths > src, mixed, pool)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(_INIT_B, _MULT_B, 8))
    # Pairs of 32-bit words, little-endian first, as SeedSequence forms them.
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _hashed_seed() -> type:
    """The seed sequence of one row of :func:`_seed_words`: it hands PCG64
    the four words it asks for, so the generator seeds itself (in C) as it
    would from ``SeedSequence(seed)``.  Built on first use, since importing
    ``numpy.random`` takes about 9 ms that a run drawing nothing should not
    pay."""
    from numpy.random.bit_generator import ISeedSequence

    class HashedSeed(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("a hashed seed holds the four 64-bit words of a PCG64 seed")
            return self.words

    return HashedSeed


def _bit_generators(seeds: Sequence) -> list:
    """One ``np.random.PCG64`` per seed, in the state of
    ``np.random.default_rng(seed)``'s: a block's keys (:class:`_BlockKeys`)
    seed theirs from their rows of :func:`_seed_words`, and any other seed
    (a lone path's) is numpy's own ``np.random.PCG64(seed)``."""
    if not isinstance(seeds, _BlockKeys):
        return [np.random.PCG64(seed) for seed in seeds]
    hashed_seed = _hashed_seed()
    return [np.random.PCG64(hashed_seed(words)) for words in _seed_words(seeds)]


def _draw_innovations(seeds: Sequence, size: int, start: int, sigma2: float, dist: str,
                      df: float | None) -> np.ndarray:
    """(len(seeds), size + start) draws, row r from the substream ``seeds[r]``:
    ``size`` innovations of variance ``sigma2``, then ``start`` standard
    normals for the pre-sample state.

    The innovations come first, so they do not depend on ``start``.  Each
    row draws from its own generator (:func:`_bit_generators`), so the rows
    are those of ``np.random.default_rng(seed)``.  ``df`` is the student-t
    degrees of freedom, which no other law takes.
    """
    bit_generators = _bit_generators(seeds)
    scale = math.sqrt(sigma2)
    if dist == "uniform":
        # sqrt(3 sigma2), which 3 sigma2 would overflow near the float maximum;
        # the two forms agree bit for bit wherever 0.75 sigma2 is normal.
        half_width = (2.0 * math.sqrt(0.75 * sigma2) if sigma2 > 1.0
                      else math.sqrt(3.0 * sigma2))
        scale = 1.0  # the draws are at scale already
    elif dist == "student-t":
        dof = 12.0 if df is None else float(df)
        if not 8.0 < dof < math.inf:
            raise OutOfDomainError("student-t innovations need finite degrees "
                                   f"of freedom above 8, got {dof}")
        scale *= math.sqrt((dof - 2.0) / dof)
    elif dist != "normal":
        raise ValueError(f"unknown innovation distribution {dist!r}")
    if df is not None and dist != "student-t":
        raise OutOfDomainError(f"{dist} innovations take no degrees of freedom, got df = {df}")
    draws = np.empty((len(seeds), size + start))
    for row, bit_generator in zip(draws, bit_generators):
        rng = np.random.Generator(bit_generator)
        if dist == "normal":
            # One call: numpy's normals do not depend on how a run is split.
            rng.standard_normal(out=row)
            continue
        row[:size] = (rng.uniform(-half_width, half_width, size) if dist == "uniform"
                      else rng.standard_t(dof, size))
        rng.standard_normal(out=row[size:])
    if scale != 1.0:  # a product by 1 changes no bit
        draws[:, :size] *= scale
    return draws


def _stationary_root(coeffs: np.ndarray) -> np.ndarray:
    """(p, p) S with ``S' S = Gamma_p / sigma2``: ``z @ S``, for p standard
    normals z, is a pre-sample ``(x_0, ..., x_{1-p})``, newest first, drawn
    from the stationary law at unit innovation variance.

    The pre-sample is drawn oldest first from the model's step-down
    (:func:`~arselect.theory._step_down`), which ``ArModel`` ran to accept
    the model: each value is its order-k prediction phi_k from the k values
    before it plus an innovation of variance ``1 / prod_{i > k} (1 -
    kappa_i^2)``.
    """
    phis, ratios = _step_down(coeffs)
    p = coeffs.size
    scales = 1.0 / np.sqrt(ratios)
    root = np.zeros((p, p))  # oldest first until the last line
    for k in range(p):
        if k:
            root[:, k] = root[:, k - 1::-1] @ phis[k]
        root[k, k] = scales[k]
    return root[:, ::-1]


@functools.lru_cache(maxsize=64)
def _unit_start_factor(coeffs: bytes) -> np.ndarray:
    """:func:`_start_factor` at unit variance of the coefficients whose bytes
    are ``coeffs``, read-only: it is formed once per coefficient vector,
    whatever the variance."""
    coeffs = np.frombuffer(coeffs)
    p = coeffs.size
    hankel = np.concatenate((coeffs, np.zeros(p)))[np.add.outer(np.arange(p), np.arange(p))]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked by the caller
        factor = _stationary_root(coeffs) @ hankel
    factor.flags.writeable = False
    return factor


def _start_factor(model: ArModel) -> np.ndarray:
    """(p, p) F such that ``z @ F``, for p standard normals z, is the
    ``lfilter`` state of a pre-sample drawn from N(0, Gamma_p): the
    pre-sample :func:`_stationary_root` draws, scaled by the model's
    ``sqrt(sigma2)``, times the Hankel matrix ``H[m, i] = a_{i+m+1}`` (zero
    past a_p).  The product of the last two is cached by the coefficients'
    bytes (:func:`_unit_start_factor`), and each call scales it by
    ``sqrt(sigma2)``, the last operation of forming it anew.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        factor = math.sqrt(model.sigma2) * _unit_start_factor(model.coeffs.tobytes())
    if not np.isfinite(factor).all():
        raise OutOfDomainError("the stationary law of the model is out of "
                               f"floating-point range at sigma2 = {model.sigma2!r}")
    return factor


def _draw_rows(model: ArModel, n: int, seeds: Sequence, burn_in: int,
               dist: str, df: float | None,
               factor: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(paths, innovations), each (len(seeds), n): one path per seed, from a
    stationary start, filtered as one block, with the burn-in dropped.

    Seed ``s`` draws ``burn_in + n`` innovations of the model's variance,
    then ``p`` standard normals for its start, from its own generator (see
    :func:`_draw_innovations`).  ``factor`` is :func:`_start_factor` of the
    model, if already known.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if factor is None:
        factor = _start_factor(model)
    from scipy.signal import lfilter  # deferred: loads SciPy on first use

    size, p = burn_in + n, model.order
    draws = _draw_innovations(seeds, size, p, model.sigma2, dist, df)
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
             dist: str = "normal", df: float | None = None) -> SimPath:
    """Simulate ``n`` observations of the stationary model.

    The pre-sample state ``(x_0, ..., x_{1-p})`` is drawn from N(0, Gamma_p),
    so the path is stationary from its first value: exactly for Gaussian
    innovations, to second order for uniform and t ones.  ``burn_in``
    further steps are drawn and dropped (none by default).  The draws are
    those of ``np.random.default_rng(seed)``, so ``seed`` is any seed numpy
    takes, and identical arguments give identical paths; ``df`` is for
    ``dist="student-t"`` only.
    """
    paths, eps = _draw_rows(model, n, [seed], burn_in, dist, df)
    return SimPath(series=Series(paths[0]), innovations=eps[0].copy(),
                   seed=seed, burn_in=burn_in)


# ---------------------------------------------------------------------------
# the replication driver

#: Path elements (burn-in included) one block of replications may hold:
#: 512 KiB of float64 per block array, whatever the number of replications
#: (130 rows at n = 500 without burn-in, 65 with a 500-step one).  A block
#: is fitted, iterated and forecast as arrays over its rows, so most of its
#: scoring cost is fixed per block.  On the ``mc-study`` benchmark (2-core
#: x86-64 Linux, numpy 2.4, scipy 1.17) this size ran about 105 operations
#: per second against 89 at 1 << 15, at the same peak RSS; 1 << 17 was
#: slower in-process.
_BLOCK_ELEMENTS = 1 << 16


def _replicate(model: ArModel, length: int, reps: int, key: tuple, score,
               burn_in: int = DEFAULT_BURN_IN, dist: str = "normal",
               df: float | None = None) -> Iterator[tuple[np.ndarray, int]]:
    """Yield ``(scores, redraws)`` of each block of the ``reps`` paths of
    ``length``, in replication order.

    ``score`` takes a (rows, length) block of paths and returns its scores,
    an array with one entry per row along its first axis, and the
    :class:`SingularMomentError` of each row (by position in the block)
    whose fit was singular.  Replication r draws from ``(*key, r,
    attempt)``; ``key`` is checked once, and each draw's keys are formed as
    arrays (:class:`_BlockKeys`).  Only the singular rows are redrawn, each
    from its next attempt, at most three times; any other error propagates
    at once.  Only one block is held at a time, so memory does not grow
    with ``reps``.  The start factor is computed once for all blocks.
    """
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    rows = max(1, _BLOCK_ELEMENTS // (burn_in + length))
    factor = _start_factor(model)
    words = _entropy_words(key)
    for lo in range(0, reps, rows):
        todo, redraws = np.arange(lo, min(lo + rows, reps)), 0
        for attempt in range(4):
            # No reference outlives the scoring, so one block's arrays are
            # freed before the next block is drawn.
            got, faults = score(_draw_rows(model, length, _BlockKeys(key, words, todo, attempt),
                                           burn_in, dist, df, factor=factor)[0])
            if attempt:
                redraws += len(todo)
                scores[todo - lo] = got
            else:
                scores = got
            if not faults:
                break
            failed = sorted(faults)
            todo = todo[failed]
        else:
            raise faults[failed[0]]
        yield scores, redraws


def _squared_errors(model: ArModel, h: int, n: int, reps: int, key: tuple,
                    pairs: Sequence, target, burn_in: int = DEFAULT_BURN_IN,
                    dist: str = "normal", df: float | None = None,
                    ) -> tuple[np.ndarray, int]:
    """(reps, len(pairs)) squared errors of each (candidate, method) forecast
    of ``x_{n+h}``, fitted on the first ``n`` observations of a path, from
    ``target(block)``, one target per row of a block of paths, and the
    redraw count.  A path fails on its first failed pair.  Each square is
    ``np.float_power(error, 2.0)``: libm's ``pow``, the rounding of a
    scalar ``error ** 2``, which differs from numpy's ``x * x`` (and
    ``np.power(x, 2.0)``) on about one error in 1,200.

    A configuration that no path could score (too few observations for a
    pair) raises before anything is drawn.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for candidate, method in pairs:
        _check_forecast(n, h, candidate, method)

    def score(block: np.ndarray) -> tuple[np.ndarray, dict]:
        errors, faults = np.empty((len(pairs), len(block))), {}
        for row, (candidate, method) in zip(errors, pairs):
            forecasts, failed = _forecast_rows(block[:, :n], h, candidate, method)
            row[...] = forecasts
            faults = {**failed, **faults}
        errors -= target(block)
        return (np.float_power(errors.T, 2.0),
                {row: SingularMomentError(message) for row, message in faults.items()})

    squares, redraws = [], 0
    for block, block_redraws in _replicate(model, n + h, reps, key, score, burn_in,
                                           dist, df):
        squares.append(block)
        redraws += block_redraws
    return np.concatenate(squares), redraws


def _excess_deviations(model: ArModel, h: int, n: int, reps: int, key: tuple,
                       pairs: Sequence, burn_in: int = DEFAULT_BURN_IN,
                       ) -> tuple[np.ndarray, int]:
    """:func:`_squared_errors` from ``E[x_{n+h} | x_1..x_n]``; their mean is
    the excess MSPE over the floor.  The conditional mean is the sequential
    lag sum of :func:`~arselect.estimation._lag_sum`, the rounding of a
    dot product of the coefficients with the path's last ``p`` values,
    newest first.
    """
    cond_coeffs = np.linalg.matrix_power(companion_matrix(model.coeffs), h)[:1, :]
    lags = range(1, model.order + 1)
    return _squared_errors(model, h, n, reps, key, pairs,
                           lambda block: _lag_sum(block[:, :n], lags, cond_coeffs), burn_in)


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
                                       lambda block: block[:, n + h - 1], burn_in, dist, df)
    # The moments of the squares in units of the power of two 2^e <= sigma2,
    # scaled back: the spread of squares near the float maximum overflows,
    # and a power of two divides and multiplies every rounding step exactly.
    unit = math.ldexp(1.0, math.frexp(model.sigma2)[1] - 1)
    sq = squares[:, 0] / unit
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mean = float(sq.mean()) * unit
        std_error = float(sq.std(ddof=1)) * unit / math.sqrt(reps)
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

    def score(block: np.ndarray) -> tuple[np.ndarray, dict]:
        choices, faults = np.empty(len(block), dtype=object), {}
        for row, values in enumerate(block):
            try:
                result = (subset_select if subset else select_predictor)(
                    Series(values), h, max_order)
            except SingularMomentError as exc:
                faults[row] = exc
            else:
                choices[row] = (result.candidate, result.method)
        return choices, faults

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
