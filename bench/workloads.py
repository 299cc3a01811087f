"""Seeded inputs and the operations of one round, per workload.

Every input series comes from the benchmark's own AR recursion (a numpy
``Generator`` and a long warm-up), never from ``arselect.simulate``, so a
change to the package's simulator leaves the ``select`` inputs unchanged.
The shape of a round (sizes, horizons, orders, model orders) is fixed per
workload; the seed changes only coefficient values and noise, so every
seed asks for the same amount of work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: The four AR(2) benchmark models ``a_1 = sqrt(-a_2)``, newest lag first.
BENCHMARK_MODELS = ((0.9, -0.81), (0.8, -0.64), (0.6, -0.36), (0.5, -0.25))

#: Warm-up steps dropped from every generated series.
WARMUP = 2000

#: Replications per ``arselect mspe`` call and its sample size.
MSPE_REPS = 200
MSPE_N = 500

#: Row number (1-based) that loses its ``x`` field in the malformed file.
MALFORMED_ROW = 250

# Stream keys, so that two workloads never share a noise stream.
_STREAM = {"select-dense": 1, "select-subset": 2, "mc-study": 3}


@dataclass(frozen=True)
class Model:
    coeffs: tuple[float, ...]
    sigma2: float

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def cli_args(self) -> list[str]:
        # "--coeffs=-0.5,0.2": with a space, argparse reads a leading
        # minus sign as the start of an option.
        return ["--coeffs=" + ",".join(repr(float(a)) for a in self.coeffs),
                f"--sigma2={float(self.sigma2)!r}"]


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: one or more ``arselect`` command lines.

    ``slot`` is the operation's position in its round; ``meta`` carries
    what the checks need to recompute the answer outside the program.
    """

    kind: str
    slot: int
    argvs: tuple[tuple[str, ...], ...]
    meta: dict = field(default_factory=dict)


def random_stationary(rng: np.random.Generator, p: int,
                      max_modulus: float = 0.92) -> tuple[float, ...]:
    """AR(p) coefficients whose characteristic roots have modulus 0.15 to
    ``max_modulus``; complex pairs are allowed."""
    while True:
        roots: list[complex] = []
        while len(roots) < p:
            if p - len(roots) >= 2 and rng.random() < 0.5:
                r = rng.uniform(0.15, max_modulus)
                ang = rng.uniform(0.1, math.pi - 0.1)
                roots += [r * complex(math.cos(ang), math.sin(ang)),
                          r * complex(math.cos(ang), -math.sin(ang))]
            else:
                roots.append(complex(rng.uniform(0.15, max_modulus)
                                     * rng.choice([-1.0, 1.0])))
        poly = np.array([1.0 + 0j])
        for lam in roots:
            poly = np.convolve(poly, np.array([1.0, -lam]))
        coeffs = tuple(float(c) for c in -np.real(poly[1:]))
        if abs(coeffs[-1]) > 1e-6:
            return coeffs


def ar_series(rng: np.random.Generator, model: Model, n: int) -> np.ndarray:
    """``n`` observations of the model after ``WARMUP`` dropped steps."""
    a = np.asarray(model.coeffs, dtype=float)
    p = a.size
    eps = math.sqrt(model.sigma2) * rng.standard_normal(WARMUP + n)
    x = np.zeros(p + WARMUP + n)
    for t in range(WARMUP + n):
        # x[t:p + t] reversed is (lag 1, ..., lag p) of the new value x[p + t].
        x[p + t] = a @ x[t:p + t][::-1] + eps[t]
    return x[p + WARMUP:]


def write_series(path: Path, values: np.ndarray, drop_x_at: int | None = None) -> None:
    """Write ``index,x`` rows with 17 significant digits; optionally make
    one row lack its ``x`` field."""
    lines = ["index,x"]
    for i, v in enumerate(values, start=1):
        lines.append(str(i) if i == drop_x_at else f"{i},{v:.17g}")
    path.write_text("\n".join(lines) + "\n")


def _model(rng: np.random.Generator, slot_kind: int, p: int) -> Model:
    """A benchmark model for ``slot_kind`` 0..3, else a random AR(p)."""
    if slot_kind < 4:
        return Model(BENCHMARK_MODELS[slot_kind], 1.0)
    return Model(random_stationary(rng, p), float(rng.uniform(0.5, 2.0)))


class Plan:
    """The inputs of one workload at one seed, and its round of operations.

    Every round holds 15 operations that succeed (``select-dense`` adds
    the malformed one): with whole rounds, the median then falls in the
    middle of the 8th-fastest kind of operation and the 90th percentile
    in the middle of the 14th, not on the edge between two kinds whose
    times differ, where run-to-run noise would move it most.  The subset
    round has 5 operations, which places both the same way.
    """

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        if workload not in _STREAM:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.series: dict[int, np.ndarray] = {}
        rng = np.random.default_rng((seed, _STREAM[workload]))
        workdir.mkdir(parents=True, exist_ok=True)
        self._ops: list[Op] = getattr(self, "_" + workload.replace("-", "_"))(rng)

    def round(self, r: int) -> list[Op]:
        """Operations of round ``r``; only ``mc-study`` varies them by round."""
        if self.workload != "mc-study":
            return self._ops
        return [Op(op.kind, op.slot, op.argvs[:1] + (
                    op.argvs[1] + ("--seed", str(self.mspe_seed(r, op.meta["cell"]))),),
                   {**op.meta, "round": r})
                for op in self._ops]

    def mspe_seed(self, r: int, cell: int) -> int:
        return (self.seed * 1_000_003 + r * 64 + cell) % 2 ** 31

    def _write(self, slot: int, model: Model, n: int, rng) -> str:
        values = ar_series(rng, model, n)
        path = self.workdir / f"series-{slot}.csv"
        write_series(path, values)
        self.series[slot] = values
        return str(path)

    # -- workloads ---------------------------------------------------------

    def _select_dense(self, rng) -> list[Op]:
        """15 (n, h, max order) configurations and one malformed file.

        Sizes {500, 2000, 4000} x (h, max order) in {(1, 4), (1, 8), (3, 4),
        (3, 8), (5, 8)}; model slots cycle through the four benchmark models
        and two random stationary models of fixed orders.  The malformed
        file does not depend on the seed, so its share of operations is
        fixed.
        """
        ops = []
        for slot, (n, (h, kmax)) in enumerate(
                (n, hk) for n in (500, 2000, 4000)
                for hk in ((1, 4), (1, 8), (3, 4), (3, 8), (5, 8))):
            model = _model(rng, slot % 6, 1 + slot % 4)
            path = self._write(slot, model, n, rng)
            ops.append(Op("select", slot, (
                ("select", "--input", path, "--horizon", str(h),
                 "--max-order", str(kmax)),),
                {"h": h, "max_order": kmax, "subset": False, "model": model}))
        bad = self.workdir / "malformed.csv"
        fixed = np.random.default_rng(0)
        write_series(bad, ar_series(fixed, Model((0.5,), 1.0), 500),
                     drop_x_at=MALFORMED_ROW)
        ops.append(Op("malformed", len(ops), (
            ("select", "--input", str(bad), "--horizon", "3",
             "--max-order", "4"),)))
        return ops

    def _select_subset(self, rng) -> list[Op]:
        """Windows {6, 8} x horizons {2, 3} at n = 1000, window 6 once more.

        Only benchmark models: the plug-in search covers the masks that
        contain the step-1 mask, so its size follows the model, and a
        random model would change the work from seed to seed.
        """
        ops = []
        for slot, (window, h) in enumerate(((6, 2), (6, 3), (8, 2), (8, 3), (6, 3))):
            model = _model(rng, slot % 4, 2)
            path = self._write(slot, model, 1000, rng)
            ops.append(Op("select", slot, (
                ("select", "--input", path, "--horizon", str(h),
                 "--max-order", str(window), "--subset"),),
                {"h": h, "max_order": window, "subset": True, "model": model}))
        return ops

    def _mc_study(self, rng) -> list[Op]:
        """Five study cells, each run as an order and as two masks.

        A cell is ``theory`` then ``mspe`` for one candidate.  Cells 0-2 use
        benchmark models, cells 3-4 random stationary AR(3) and AR(2)
        models.  The three operations of a cell share the ``mspe`` seed, so
        the order k, the mask of its k lags and that mask with one more
        (unflagged) lag must all give the same estimate.
        """
        cells = (
            # (horizon, theory max order, candidate order k, method)
            (3, 8, 1, "direct"),
            (3, 4, 2, "plugin"),
            (2, 6, 3, "direct"),
            (2, 6, 4, "plugin"),
            (5, 8, 3, "direct"),
        )
        ops = []
        for cell, (h, kmax, k, method) in enumerate(cells):
            model = _model(rng, cell if cell < 3 else 4, 6 - cell)
            theory = ("theory", *model.cli_args(), "--horizon", str(h),
                      "--max-order", str(kmax))
            for variant, candidate in (("order", ["--order", str(k)]),
                                       ("mask", ["--mask", "1" * k]),
                                       ("mask0", ["--mask", "1" * k + "0"])):
                mspe = ("mspe", *model.cli_args(), "--horizon", str(h),
                        *candidate, "--method", method, "--n", str(MSPE_N),
                        "--reps", str(MSPE_REPS))
                ops.append(Op("cell", len(ops), (theory, mspe),
                              {"cell": cell, "variant": variant, "h": h,
                               "max_order": kmax, "k": k, "method": method,
                               "model": model}))
        return ops
