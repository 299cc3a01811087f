"""End-to-end benchmark of the ``arselect`` command line.

Run from the repository root:

    python3 bench/run.py --workload select-dense --seed 1 --seconds 15 --trace 0

Each workload is a closed loop in this one process: an operation calls
``arselect.cli.main(argv)`` in-process and the next one starts when it
returns.  A run measures whole rounds of the workload's operations until
``--seconds`` have passed, checks every output against computations made
outside the package (``checks.py``), and prints one JSON object as the
last line of standard output.  With ``--trace 0`` it holds the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run
(``tracing.py``).  Result files go to ``bench/results/``; the generated
series live in ``bench/work/`` for the length of the run.
"""

from __future__ import annotations

import os

# One thread, BLAS included; set before numpy is imported.
_PINNED = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(_PINNED)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from tracing import Tracer, import_times, layer_metrics, unit_of  # noqa: E402
from workloads import MSPE_N, MSPE_REPS, Plan  # noqa: E402

WORKLOADS = ("select-dense", "select-subset", "mc-study")

#: Fresh interpreters timed per run for ``setup_s``: half of them before the
#: timed loop and half after it.
SETUP_REPEATS = 4
#: Audit APEs per run recomputed by a naive refit at every step.
REFIT_CANDIDATES = 3
#: Largest series a naive refit check is drawn from (its cost is O(n^2)).
REFIT_MAX_N = 2000
#: Nominal reference time (ms) that calibrated timings are scaled to.
REF_MS = 2.0

SETUP_CODE = ("import sys; from arselect.cli import main; "
              "sys.exit(main(['--version']))")
#: The reference interpreter for ``setup_s``: it imports the libraries the
#: package imports today, and nothing of the package.
SETUP_REF_CODE = "import numpy, scipy.signal"
#: Nominal time (s) of the reference interpreter; setup times are scaled to it.
SETUP_REF_S = 1.2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def interpreter_s(code: str) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                   stdout=subprocess.DEVNULL, check=True, timeout=120)
    return perf_counter() - t0


def time_setup(repeats: int) -> list[tuple[float, float, float]]:
    """``repeats`` fresh interpreters that import the package and answer
    ``arselect --version``, each between two reference interpreters:
    (setup s, reference s before, reference s after).

    A fresh interpreter's time does not follow the in-process
    :class:`Reference`, but it does follow another fresh interpreter that
    does the same kind of work, so that is its reference."""
    refs = [interpreter_s(SETUP_REF_CODE)]
    setups = []
    for _ in range(repeats):
        setups.append(interpreter_s(SETUP_CODE))
        refs.append(interpreter_s(SETUP_REF_CODE))
    return [(s, refs[i], refs[i + 1]) for i, s in enumerate(setups)]


def invoke(cli, argv) -> tuple[int, str]:
    """One in-process ``arselect`` call: exit code and standard output."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class Reference:
    """A fixed computation, timed before every operation.

    A shared machine can switch between a fast and a slow state (about
    1.75 times slower on the 2-core machine of the README's figures) from
    one operation to the next, and spend minutes at a time mostly in one
    of them; every timing drifts with it, and a longer run does not
    average it away.  Each operation is therefore reported in calibrated
    time: its wall time scaled by ``REF_MS`` over the mean of the reference
    times taken just before and just after it, which is its wall time on a
    machine where the reference takes ``REF_MS``.  The reference mixes
    stacked 4x4 solves, array reductions and interpreter work, as the
    package does.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.systems = rng.standard_normal((64, 4, 4)) + 4.0 * np.eye(4)
        self.rhs = rng.standard_normal((64, 4, 1))
        self.table = {j: 0.5 * j for j in range(30)}
        # Bound now, so that a traced round neither counts nor slows it.
        self.solve = np.linalg.solve

    def time(self) -> float:
        t0 = perf_counter()
        acc = 0.0
        for _ in range(40):
            acc += float(np.cumsum(self.solve(self.systems, self.rhs)).sum())
            acc += sum(self.table.get(j, 0.0) for j in range(30))
        return perf_counter() - t0


class Loop:
    """The closed loop, and what each operation returned."""

    def __init__(self, cli, plan: Plan) -> None:
        self.cli = cli
        self.plan = plan
        self.reference = Reference()
        # round, operation s, reference s just before it, ok
        self.timings: list[tuple[int, float, float, bool]] = []
        self.final_ref = 0.0
        self.traced_rounds: set[int] = set()
        self.traced_ops = 0
        self.results: list[tuple] = []   # (op, codes, outputs) of successes
        self.failures: dict[str, int] = {}
        self.unexpected: set[str] = set()

    def run_op(self, op) -> bool:
        codes, outputs = [], []
        try:
            for argv in op.argvs:
                code, text = invoke(self.cli, argv)
                codes.append(code)
                outputs.append(text)
        except Exception as exc:  # an operation that dies is counted, not fatal
            kind = f"{op.kind} slot {op.slot}: {type(exc).__name__}: {exc}"
            if kind not in self.failures:
                traceback.print_exc(file=sys.stderr)
            self.failures[kind] = self.failures.get(kind, 0) + 1
            if op.kind != "malformed":
                # Only the malformed file is expected to fail; any other
                # operation that dies makes the run incorrect.
                self.unexpected.add(kind)
            return False
        self.results.append((op, codes, outputs))
        return True

    def run(self, seconds: float, tracer: Tracer | None) -> tuple[int, int]:
        """Whole rounds until ``seconds`` have passed: (rounds, operations).

        With a tracer, even rounds are traced and odd rounds are not, so
        the tracing overhead is measured under the same machine load as
        the traced figures.
        """
        rounds = 0
        t0 = perf_counter()
        while perf_counter() - t0 < seconds:
            traced = tracer is not None and rounds % 2 == 0
            if traced:
                self.traced_rounds.add(rounds)
                tracer.install()
            try:
                for op in self.plan.round(rounds):
                    ref = self.reference.time()
                    if traced:
                        tracer.op = self.traced_ops
                        self.traced_ops += 1
                    t_op = perf_counter()
                    ok = self.run_op(op)
                    self.timings.append((rounds, perf_counter() - t_op, ref, ok))
            finally:
                if traced:
                    tracer.remove()
            rounds += 1
        self.final_ref = self.reference.time()
        return rounds, len(self.timings)

    def calibrated(self) -> list[tuple[float, bool]]:
        """(calibrated seconds, ok) per operation; see :class:`Reference`."""
        refs = [ref for _, _, ref, _ in self.timings] + [self.final_ref]
        return [(wall * REF_MS / 1e3 / (0.5 * (refs[i] + refs[i + 1])), ok)
                for i, (_, wall, _, ok) in enumerate(self.timings)]

    def round_seconds(self, traced: bool) -> list[float]:
        """Summed calibrated operation time of each (un)traced round."""
        sums: dict[int, float] = {}
        for (r, *_), (cal, _) in zip(self.timings, self.calibrated()):
            if (r in self.traced_rounds) == traced:
                sums[r] = sums.get(r, 0.0) + cal
        return list(sums.values())


# ---------------------------------------------------------------------------
# checks of one run's outputs


def check_run(cli, plan: Plan, results: list[tuple], seed: int) -> list[str]:
    fails: list[str] = []
    seen: set = set()
    cells: dict[int, dict] = {}
    reports: dict[int, dict] = {}
    for op, codes, outputs in results:
        if op.kind == "malformed":
            if codes != [2]:
                fails.append(f"malformed row: exit {codes}, documented exit 2")
            continue
        if codes != [0] * len(codes):
            fails.append(f"{op.kind} slot {op.slot}: exit codes {codes}")
            continue
        if (op.slot, tuple(outputs)) in seen:
            continue
        seen.add((op.slot, tuple(outputs)))
        parsed = [json.loads(text) for text in outputs]
        meta = op.meta
        where = f"{plan.workload} slot {op.slot}"
        if op.kind == "select":
            reports.setdefault(op.slot, parsed[0])
            fails += [f"{where}: {f}" for f in checks.check_selection(
                parsed[0], plan.series[op.slot], meta["h"], meta["max_order"],
                meta["subset"])]
            continue
        theory, mspe = parsed
        model, h = meta["model"], meta["h"]
        fails += [f"{where}: {f}" for f in
                  checks.check_theory(theory, model, h, meta["max_order"])
                  + checks.check_mspe(mspe, model, h, MSPE_N)]
        cell = cells.setdefault(meta["cell"], {"name": meta["cell"], "order": {}, "mask": {},
                                               "mask0": {}, "theory": theory, "meta": meta})
        cell[meta["variant"]][meta["round"]] = mspe
    if plan.workload == "mc-study":
        fails += check_cells(cells)
    else:
        fails += check_refits(plan, reports, seed)
    if plan.workload == "select-subset" and reports:
        fails += check_full_mask(cli, plan, reports)
    return fails


def check_refits(plan: Plan, reports: dict, seed: int) -> list[str]:
    """A few seeded audit APEs against a naive refit at every step."""
    rng = np.random.default_rng((seed, 99))
    slots = [s for s in sorted(reports) if plan.series[s].size <= REFIT_MAX_N]
    fails = []
    for _ in range(REFIT_CANDIDATES if slots else 0):
        slot = slots[int(rng.integers(len(slots)))]
        report = reports[slot]
        which = ("one_step_direct_ape", "direct_ape", "plugin_ape")[int(rng.integers(3))]
        keys = sorted(report["audit"][which])
        key = keys[int(rng.integers(len(keys)))]
        meta = next(op.meta for op in plan.round(0) if op.slot == slot)
        fails += [f"refit slot {slot}: {f}" for f in checks.check_refit(
            report, plan.series[slot], meta["h"], key, which, meta["subset"])]
    return fails


def check_full_mask(cli, plan: Plan, reports: dict) -> list[str]:
    """Once per run: the full mask of a subset search against the dense
    search at the same window, outside the timed loop."""
    op = next(op for op in plan.round(0) if op.slot in reports)
    argv = [a for a in op.argvs[0] if a != "--subset"]
    code, text = invoke(cli, argv)
    if code != 0:
        return [f"dense select for the full-mask check: exit {code}"]
    return checks.check_mask_dense(reports[op.slot], json.loads(text),
                                   op.meta["max_order"])


def check_cells(cells: dict) -> list[str]:
    fails = []
    gated = []
    for cell in cells.values():
        meta = cell["meta"]
        for r, mspe in cell["order"].items():
            for variant in ("mask", "mask0"):
                if r in cell[variant]:
                    fails += [f"cell {cell['name']} round {r} {variant}: {f}"
                              for f in checks.check_pair(mspe, cell[variant][r])]
        k, method = meta["k"], meta["method"]
        exact = checks.closed_form_constants(meta["model"], meta["h"], meta["max_order"])
        if (k, method) in exact:
            constant = exact[k, method]
        else:  # no closed form here; the theory report's constant is used
            constant = cell["theory"]["per_order"][k - 1][f"{method}_constant"]
        means = [m["mean"] for m in cell["order"].values()]
        if means:
            gated.append({"name": cell["name"], "means": means, "reps": MSPE_REPS,
                          "n": MSPE_N, "floor": checks.floor_of(meta["model"], meta["h"]),
                          "constant": constant})
    return fails + checks.z_gate(gated)


# ---------------------------------------------------------------------------
# metrics


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def setup_seconds(setup: list[tuple[float, float, float]]) -> float:
    """Median setup time scaled by the reference interpreters around it:
    its time on a machine where the reference takes ``SETUP_REF_S``."""
    return SETUP_REF_S * statistics.median(
        s / (0.5 * (before + after)) for s, before, after in setup)


def end_to_end(loop: Loop, setup: list[tuple[float, float, float]]) -> dict:
    """Calibrated throughput and latency percentiles (successful operations),
    set-up time scaled by its reference interpreters, and peak resident
    memory."""
    calibrated = loop.calibrated()
    times = sorted(t for t, ok in calibrated if ok)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_seconds(setup), "s"),
        "ops_per_s": (len(times) / sum(t for t, _ in calibrated), "ops/s"),
        "op_ms_p50": (1e3 * statistics.median(times), "ms"),
        "op_ms_p90": (1e3 * nearest_rank(times, 0.9), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def wall_clock(loop: Loop) -> dict:
    """The same figures in uncalibrated wall time, for the result file."""
    times = sorted(wall for _, wall, _, ok in loop.timings if ok)
    return {
        "ops_per_s": len(times) / sum(wall for _, wall, _, _ in loop.timings),
        "op_ms_p50": 1e3 * statistics.median(times),
        "op_ms_p90": 1e3 * nearest_rank(times, 0.9),
        "reference_ms_median": 1e3 * statistics.median(ref for *_, ref, _ in loop.timings),
    }


def per_layer(tracer: Tracer, attempted: int) -> dict:
    metrics = layer_metrics(tracer.spans, attempted)
    metrics.update(import_times(ROOT, child_env()))
    return {name: (value, unit_of(name)) for name, value in sorted(metrics.items())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "arselect" / "__init__.py").is_file():
        print(f"error: no arselect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import arselect.cli as cli
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "arselect":
        print(f"error: imported arselect from {cli.__file__}", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    setup = [] if traced else time_setup(SETUP_REPEATS // 2)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = BENCH / "work" / f"{label}-{os.getpid()}"
    try:
        plan = Plan(args.workload, args.seed, workdir)
        warm = Loop(cli, plan)
        for op in plan.round(0):
            warm.run_op(op)
        loop = Loop(cli, plan)
        tracer = Tracer() if traced else None
        rounds, attempted = loop.run(args.seconds, tracer)
        if not loop.results:  # no times to report; the failures are on stderr
            print(f"error: all {attempted} operations failed", file=sys.stderr)
            return 1
        if not traced:
            setup += time_setup(SETUP_REPEATS - len(setup))
        metrics = per_layer(tracer, loop.traced_ops) if traced \
            else end_to_end(loop, setup)
        fails = [f"{kind} ({loop.failures[kind]} times)" for kind in sorted(loop.unexpected)]
        fails += check_run(cli, plan, loop.results, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = attempted - len(loop.results)
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "attempted": attempted,
        "failed": failed, "failures": loop.failures, "check_failures": fails,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "wall_clock": wall_clock(loop),
        "setup": setup,
        "timings": loop.timings,
    }
    print(f"{args.workload}: {rounds} rounds, {attempted} operations, {failed} failed, "
          f"{summary['wall_clock']['ops_per_s']:.3f} ops/s wall clock", file=sys.stderr)
    if traced and len(loop.traced_rounds) < rounds:
        summary["trace_overhead"] = (statistics.median(loop.round_seconds(True))
                                     / statistics.median(loop.round_seconds(False)) - 1)
        print(f"tracing overhead: {100 * summary['trace_overhead']:+.1f}% median "
              f"calibrated round time, traced rounds against the untraced rounds "
              f"between them", file=sys.stderr)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{label}.json").write_text(json.dumps(summary) + "\n")
    if tracer is not None:
        tracer.write(results / f"{label}-spans.jsonl.gz")
    for line in fails[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
