"""Spans recorded from outside the package, and the per-layer metrics.

:class:`Tracer` replaces public ``arselect`` functions with timing
wrappers at every module attribute that holds them (the names callers
look them up through, such as ``arselect.selection.ape_direct`` and
``arselect.cli.select_predictor``), and counts ``numpy.linalg.solve`` and
``numpy.linalg.cond`` calls against the innermost open span.  Spans stay
in memory as ``[name, layer, start, end, parent, op, stacks, systems,
conds, extra]`` records (tuples once closed) and are written out once,
when the run ends.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import gzip
import inspect
import json
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "selection", "ape", "estimation", "montecarlo", "theory")

#: Wrapped functions per layer (module).
TRACED = {
    "cli": ("main", "read_series_csv"),
    "selection": ("select_predictor", "subset_select"),
    "ape": ("start_index", "ape_direct", "ape_plugin"),
    "estimation": ("fit_direct", "fit_one_step", "fit_plugin",
                   "masked_fit_direct", "masked_fit_plugin"),
    "montecarlo": ("mc_mspe", "simulate"),
    "theory": ("loss_table", "plugin_excess_constant", "direct_excess_constant",
               "h_step_order", "horizon_variance", "optimal_candidates"),
}

NAME, LAYER, START, END, PARENT, OP, STACKS, SYSTEMS, CONDS, EXTRA = range(10)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    """In-memory span recorder; ``install`` patches, ``remove`` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, func, extra=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, layer, perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.op, 0, 0, 0, extra(args, kwargs) if extra else None]
            idx = len(spans)
            stack.append(idx)
            spans.append(rec)
            try:
                return func(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                # A closed span becomes a tuple of atoms, which the garbage
                # collector stops tracking; a growing list of lists would be
                # traversed by every full collection and slow the run down.
                spans[idx] = tuple(rec)

        traced.__wrapped__ = func
        return traced

    def _count(self, func, field: int, systems: bool):
        spans, stack = self.spans, self._stack

        def counted(a, *args, **kwargs):
            if stack:
                rec = spans[stack[-1]]
                rec[field] += 1
                if systems:
                    shape = np.shape(a)
                    rec[SYSTEMS] += int(np.prod(shape[:-2])) if len(shape) > 2 else 1
            return func(a, *args, **kwargs)

        return counted

    def _extra(self, layer: str, name: str, func):
        """Arguments a metric needs, read without binding the signature."""
        if layer == "ape" and name != "start_index":
            method = "direct" if name == "ape_direct" else "plugin"
            return lambda a, k: (_arg(a, k, 1, "h"), _candidate(_arg(a, k, 2, "candidate")),
                                 _arg(a, k, 3, "start"), method)
        if (layer, name) == ("montecarlo", "simulate"):
            burn_in = inspect.signature(func).parameters["burn_in"].default
            return lambda a, k: (_arg(a, k, 1, "n"), _arg(a, k, 3, "burn_in", burn_in))
        if (layer, name) == ("montecarlo", "mc_mspe"):
            return lambda a, k: _arg(a, k, 5, "reps")
        return None

    def install(self) -> None:
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules.get(f"arselect.{layer}")
            for name in names:
                func = getattr(module, name, None)
                if func is None:
                    # A metric of a function that is gone would read 0, which
                    # looks like a gain: ``TRACED`` must follow the package.
                    raise LookupError(f"arselect.{layer}.{name} is not there to trace; "
                                      "update TRACED in bench/tracing.py")
                wrappers[id(func)] = (func, self._wrap(
                    layer, name, func, self._extra(layer, name, func)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "arselect" and not mod_name.startswith("arselect."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for attr, field, systems in (("solve", STACKS, True), ("cond", CONDS, False)):
            func = getattr(np.linalg, attr)
            self._patched.append((np.linalg, attr, func))
            setattr(np.linalg, attr, self._count(func, field, systems))

    def remove(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """One JSON line per span: name, layer, start, end, parent, op, and
        the solve-stack, system and cond counts made while it was innermost."""
        with gzip.open(path, "wt") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec[:EXTRA]) + "\n")


def _candidate(candidate):
    return candidate if isinstance(candidate, int) else tuple(int(b) for b in candidate)


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``ops`` operations.

    Totals are divided by ``ops`` (never multiplied by ``1 / ops``), so a
    count per operation reads exactly the same for any number of whole
    rounds.
    """
    self_s = defaultdict(float)
    child_s = defaultdict(float)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_s[rec[PARENT]] += rec[END] - rec[START]
    for idx, rec in enumerate(spans):
        self_s[rec[LAYER]] += rec[END] - rec[START] - child_s[idx]

    def where(pred):
        return [rec for rec in spans if pred(rec)]

    def total_ms(recs):
        return 1e3 * sum(r[END] - r[START] for r in recs)

    def ratio(num, den):
        return num / den if den else 0.0

    def entry(rec):
        """A span called from another layer (or from the benchmark)."""
        return rec[PARENT] < 0 or spans[rec[PARENT]][LAYER] != rec[LAYER]

    out = {f"{layer}.self_ms_per_op": 1e3 * self_s[layer] / ops for layer in LAYERS}

    reads = where(lambda r: r[NAME] == "read_series_csv")
    out["cli.read_series_csv_ms_per_op"] = total_ms(reads) / ops

    starts = where(lambda r: r[NAME] == "start_index")
    out["ape.start_index_calls_per_op"] = len(starts) / ops
    out["ape.start_index_ms_per_call"] = ratio(total_ms(starts), len(starts))
    evals = where(lambda r: r[NAME] in ("ape_direct", "ape_plugin"))
    out["ape.evaluations_per_op"] = len(evals) / ops
    out["ape.ms_per_evaluation"] = ratio(total_ms(evals), len(evals))
    # (horizon, candidate, start, method), with the method dropped at h=1
    # where the plug-in and direct predictors coincide.
    distinct = {(r[OP], *r[EXTRA][:3], r[EXTRA][3] if r[EXTRA][0] != 1 else None)
                for r in evals}
    out["ape.useful_share"] = ratio(len(distinct), len(evals))

    for layer in ("ape", "estimation"):
        recs = where(lambda r: r[LAYER] == layer)
        out[f"{layer}.solve_stacks_per_op"] = sum(r[STACKS] for r in recs) / ops
        out[f"{layer}.cond_calls_per_op"] = sum(r[CONDS] for r in recs) / ops
        if layer == "ape":
            out["ape.systems_solved_per_op"] = sum(r[SYSTEMS] for r in recs) / ops

    fits = where(lambda r: r[LAYER] == "estimation" and entry(r))
    out["estimation.fit_calls_per_op"] = len(fits) / ops
    out["estimation.ms_per_fit"] = ratio(total_ms(fits), len(fits))

    sims = where(lambda r: r[NAME] == "simulate")
    drawn = sum(r[EXTRA][0] + r[EXTRA][1] for r in sims)
    kept = sum(r[EXTRA][0] for r in sims)
    mspe = where(lambda r: r[NAME] == "mc_mspe")
    in_mspe = sum(1 for r in sims if r[PARENT] >= 0 and spans[r[PARENT]][NAME] == "mc_mspe")
    out["montecarlo.simulate_calls_per_op"] = len(sims) / ops
    out["montecarlo.ms_per_simulate"] = ratio(total_ms(sims), len(sims))
    out["montecarlo.draws_per_op"] = drawn / ops
    out["montecarlo.kept_draw_share"] = ratio(kept, drawn)
    out["montecarlo.redraws_per_op"] = (in_mspe - sum(r[EXTRA] for r in mspe)) / ops

    out["theory.calls_per_op"] = len(where(lambda r: r[LAYER] == "theory" and entry(r))) / ops
    return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    tail = name.split(".", 1)[1]
    if "ms" in tail.split("_"):
        return "ms"
    return "ratio" if tail.endswith("share") else "count"


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")


def import_times(root: Path, env: dict) -> dict[str, float]:
    """Cumulative import time (ms) of each layer's module, from a fresh
    ``python -X importtime -c "import arselect.cli"``.  A module's figure
    includes whatever it was first to import (``arselect.ape`` carries
    ``scipy.signal``)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import arselect.cli"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            cumulative[match.group(2)] = int(match.group(1)) / 1e3
    return {f"{layer}.import_ms": cumulative.get(f"arselect.{layer}", 0.0)
            for layer in LAYERS}
