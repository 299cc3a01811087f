"""Command-line front end.

Subcommands cover the main library surfaces: exact theory tables,
path simulation, predictor selection on a stored series, multistep BIC,
single-candidate MSPE estimation, and the four-model benchmark ratio
table.  Series travel as CSV (``index,x`` with an optional ``eps``
column, 17 significant digits so float64 values round-trip exactly);
reports are JSON and always embed the fully resolved configuration,
including the seed, needed to reproduce them.

Exit codes: 0 success; 2 invalid configuration or model; 3 numerical
failure on otherwise valid input (singular moments, series too short);
4 benchmark check failure under ``replicate-table1 --check``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
import warnings

import numpy as np

from . import __version__
from .errors import NumericalError, ValidationError
from .estimation import Series, _resolve_candidate, forecast
from .methods import Method
from .montecarlo import (
    REFERENCE_RATIOS,
    check_ratios,
    mc_mspe,
    replicate_table1,
    simulate,
)
from .selection import _bic_choice, bic_values, select_predictor, subset_select
from .theory import ArModel, h_step_order, horizon_variance, loss_table, optimal_candidates

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_CHECK = 4


# ---------------------------------------------------------------------------
# argument helpers

def _parse_coeffs(text: str) -> tuple[float, ...]:
    try:
        coeffs = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}")
    if not coeffs:
        raise argparse.ArgumentTypeError("empty coefficient list")
    return coeffs


def _parse_mask(text: str) -> tuple[int, ...]:
    flags = tuple("01".find(ch) for ch in text.replace(",", ""))  # -1: not a bit
    try:
        return _resolve_candidate(flags)[2]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None


def _join_coeffs(argv: list[str]) -> list[str]:
    """Read ``--coeffs -0.5,0.2`` as ``--coeffs=-0.5,0.2``.

    argparse takes a value that starts with '-' and is not a single
    number for an option.  A number list after ``--coeffs`` is attached
    to it; anything else is left for argparse to judge.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--coeffs" and arg.startswith("-"):
            try:
                _parse_coeffs(arg)
            except argparse.ArgumentTypeError:
                pass
            else:
                out[-1] = f"--coeffs={arg}"
                continue
        out.append(arg)
    return out


def _model_from(args: argparse.Namespace) -> ArModel:
    return ArModel(tuple(args.coeffs), args.sigma2)


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--coeffs", type=_parse_coeffs, required=True,
                        help="lag coefficients, newest first, e.g. 0.9,-0.81")
    parser.add_argument("--sigma2", type=float, default=1.0,
                        help="innovation variance (default 1.0)")


# ---------------------------------------------------------------------------
# series files

def write_series_csv(path: str, values: np.ndarray,
                     innovations: np.ndarray | None = None) -> None:
    """Write ``index,x[,eps]`` rows with round-trip-exact floats."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        columns = [values] if innovations is None else [values, innovations]
        writer.writerow(["index", "x", "eps"][:1 + len(columns)])
        for i, row in enumerate(zip(*columns), start=1):
            writer.writerow([i, *(f"{v:.17g}" for v in row)])


#: The characters of a series body that ``np.loadtxt`` reads as the row loop
#: does: printable ASCII but the quote, which the csv module reads and numpy
#: does not, and tab and line ends.  Elsewhere their number syntax differs.
_LOADTXT_BYTES = bytes(b for b in range(128)
                       if chr(b) in "\t\n\r" or (" " <= chr(b) <= "~" and chr(b) != '"'))


def read_series_csv(path: str) -> tuple[Series, np.ndarray | None]:
    """Read a series CSV; returns the series and innovations if present.

    Each row's index is an integer one more than the previous row's.  A
    byte-order mark before the header is skipped.  The body is parsed by
    ``np.loadtxt`` where that reads it as the row loop :func:`_parse_rows`
    would, and by the row loop otherwise, which also words every error.
    """
    with open(path, newline="") as handle:
        if handle.read(1) != "\ufeff":
            handle.seek(0)
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
        except csv.Error as err:
            raise ValueError(f"{path}: line {reader.line_num}: {err}") from None
        if header is None or [c.strip() for c in header[:2]] != ["index", "x"]:
            raise ValueError(f"{path}: expected header 'index,x[,eps]'")
        width = 3 if len(header) >= 3 and header[2].strip() == "eps" else 2
        lines, body = reader.line_num, handle.read()
    columns = _parse_body(body, width)
    if columns is None:
        columns = _parse_rows(path, header, csv.reader(io.StringIO(body, newline="")),
                              lines, width)
    return Series(columns[0]), columns[1]


def _parse_body(body: str, width: int) -> tuple[np.ndarray, np.ndarray | None] | None:
    """The x (and eps) columns of a series body read by ``np.loadtxt``, or
    ``None`` where the row loop must read it: a character outside
    ``_LOADTXT_BYTES``, a line longer than the csv module's field limit, a
    parse error or warning, or indexes that do not count up by one."""
    limit = csv.field_size_limit()
    if (not body.isascii() or body.encode("ascii").translate(None, _LOADTXT_BYTES)
            or len(body) > limit and max(map(len, body.splitlines())) > limit):
        return None
    dtype = np.dtype([("index", np.int64), ("x", float), ("eps", float)][:width])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(io.StringIO(body), dtype=dtype, delimiter=",", comments=None,
                              usecols=range(width), ndmin=1)
    except (ValueError, Warning):
        return None
    index = rows["index"]
    # index[0] + arange does not wrap past the largest int64.
    if (index[0] > np.iinfo(np.int64).max - index.size
            or not np.array_equal(index, index[0] + np.arange(index.size))):
        return None
    return rows["x"], (np.ascontiguousarray(rows["eps"]) if width == 3 else None)


def _parse_rows(path: str, header: list[str], reader, lines: int, width: int,
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """The x (and eps) columns of a series body, row by row from ``reader``,
    whose line ``j`` is line ``lines + j`` of the file."""
    has_eps = width == 3
    xs: list[float] = []
    eps: list[float] = []
    try:
        for row in reader:
            line = lines + reader.line_num
            if not row:
                continue
            if len(row) < width:
                raise ValueError(f"{path}: line {line}: expected {width} fields")
            try:
                index = int(row[0])
            except ValueError:
                index = None
            if index is None or (xs and index != last + 1):
                raise ValueError(f"{path}: line {line}: index {row[0]!r} is "
                                 "not an integer one more than the previous row's")
            last = index
            try:
                xs.append(float(row[1]))
                if has_eps:
                    eps.append(float(row[2]))
            except ValueError:
                col = 2 if has_eps and len(xs) > len(eps) else 1
                raise ValueError(f"{path}: line {line}: {header[col].strip()} "
                                 f"{row[col]!r} is not a number") from None
    except csv.Error as err:
        raise ValueError(f"{path}: line {lines + reader.line_num}: {err}") from None
    return np.asarray(xs, dtype=float), (np.asarray(eps, dtype=float) if has_eps else None)


# ---------------------------------------------------------------------------
# report plumbing

def _jsonable(value):
    """Make report values JSON-clean: finite floats, string keys, labels."""
    if isinstance(value, Method):
        return value.label
    if isinstance(value, float):
        return str(value) if math.isinf(value) else value
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())
    if isinstance(value, dict):
        return {_key(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _key(key) -> str:
    if isinstance(key, tuple):
        return "".join(str(int(b)) for b in key)
    return str(key)


def _emit(report: dict, args: argparse.Namespace) -> None:
    text = json.dumps(_jsonable(report), indent=2)
    if getattr(args, "output", None):
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_theory(args: argparse.Namespace) -> int:
    model = _model_from(args)
    h, kmax = args.horizon, args.max_order
    table = loss_table(model, h, kmax)
    p_h = h_step_order(model, h)
    # The excess constants only exist at orders rich enough to hold the
    # corresponding true prediction model; report null below that.
    per_order = [{
        "order": k,
        "plugin_constant": table.plugin[k] if k >= model.order else None,
        "direct_constant": table.direct[k] if k >= p_h else None,
        "plugin_loss": table.plugin[k],
        "direct_loss": table.direct[k],
    } for k in range(1, kmax + 1)]
    report = {
        "command": "theory",
        "config": {"coeffs": list(model.coeffs), "sigma2": model.sigma2,
                   "horizon": h, "max_order": kmax},
        "model_order": model.order,
        "horizon_order": p_h,
        "irreducible_variance": horizon_variance(model, h),
        "per_order": per_order,
        "optimal": [[k, method] for k, method in sorted(optimal_candidates(table))],
    }
    _emit(report, args)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    model = _model_from(args)
    path = simulate(model, args.n, seed=args.seed, burn_in=args.burn_in,
                    dist=args.dist, df=args.df)
    innovations = path.innovations if args.include_innovations else None
    write_series_csv(args.output, path.series.values, innovations)
    sidecar = {
        "command": "simulate",
        "config": {"coeffs": list(model.coeffs), "sigma2": model.sigma2,
                   "n": args.n, "seed": args.seed, "burn_in": args.burn_in,
                   "dist": args.dist, "df": args.df},
        "csv": args.output,
        "includes_innovations": bool(args.include_innovations),
    }
    with open(args.output + ".json", "w") as handle:
        handle.write(json.dumps(_jsonable(sidecar), indent=2) + "\n")
    print(f"wrote {len(path.series.values)} observations to {args.output}")
    return EXIT_OK


def cmd_select(args: argparse.Namespace) -> int:
    series, _ = read_series_csv(args.input)
    h, kmax = args.horizon, args.max_order
    select = subset_select if args.subset else select_predictor
    result = select(series, h, kmax)
    candidate = result.order if result.mask is None else result.mask.bits
    report = {
        "command": "select",
        "config": {"input": args.input, "horizon": h, "max_order": kmax,
                   "subset": bool(args.subset)},
        "n": len(series.values),
        "method": result.method,
        "order": result.order,
        "mask": list(result.mask.bits) if result.mask is not None else None,
        "forecast": forecast(series, h, candidate, result.method),
        "audit": dataclasses.asdict(result.audit),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_bic(args: argparse.Namespace) -> int:
    series, _ = read_series_csv(args.input)
    h, kmax = args.horizon, args.max_order
    values = bic_values(series, h, kmax, penalty=args.penalty)
    chosen = _bic_choice(values)
    n = len(series.values)
    report = {
        "command": "bic",
        "config": {"input": args.input, "horizon": h, "max_order": kmax,
                   "penalty": args.penalty if args.penalty is not None
                   else math.log(n)},
        "n": n,
        "values": [{"order": k, "bic": v} for k, v in sorted(values.items())],
        "chosen": chosen,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_mspe(args: argparse.Namespace) -> int:
    model = _model_from(args)
    if (args.order is None) == (args.mask is None):
        print("error: exactly one of --order/--mask is required",
              file=sys.stderr)
        return EXIT_VALIDATION
    candidate = args.order if args.order is not None else args.mask
    method = Method.from_label(args.method)
    estimate = mc_mspe(model, args.horizon, candidate, method, args.n,
                       args.reps, seed=args.seed, burn_in=args.burn_in,
                       dist=args.dist, df=args.df)
    floor = horizon_variance(model, args.horizon)
    report = {
        "command": "mspe",
        "config": {"coeffs": list(model.coeffs), "sigma2": model.sigma2,
                   "horizon": args.horizon, "candidate": _key(candidate),
                   "method": method, "n": args.n, "reps": args.reps,
                   "seed": args.seed, "burn_in": args.burn_in,
                   "dist": args.dist, "df": args.df},
        "mean": estimate.mean,
        "std_error": estimate.std_error,
        "floor": floor,
        "scaled_excess": args.n * (estimate.mean - floor),
        "redraws": estimate.redraws,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_replicate_table1(args: argparse.Namespace) -> int:
    rows = replicate_table1(n=args.n, reps=args.reps, seed=args.seed)
    refs = REFERENCE_RATIOS.get(args.n)
    report_rows = []
    for index, row in enumerate(rows):
        entry = {
            "coeffs": list(row.coeffs),
            "n": row.n,
            "reps": row.reps,
            "ratio": row.ratio,
            "std_error": row.std_error,
            "limit": row.limit,
            "redraws": row.redraws,
        }
        if refs is not None:
            entry["reference"] = refs[index]
        report_rows.append(entry)
    widen = 1.0 if args.reps >= 20000 else 1.6
    failures = check_ratios(rows, widen=widen)
    report = {
        "command": "replicate-table1",
        "config": {"n": args.n, "reps": args.reps, "seed": args.seed,
                   "check": bool(args.check), "widen": widen},
        "rows": report_rows,
        "failures": failures,
    }
    _emit(report, args)
    if args.check and failures:
        return EXIT_CHECK
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arselect",
        description="Order and method selection for multistep "
                    "autoregressive prediction.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theory", help="exact loss constants for one model")
    _add_model_args(p)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--output", help="write the JSON report here")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("simulate", help="simulate a path to CSV")
    _add_model_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=500)
    p.add_argument("--dist", choices=("normal", "uniform", "student-t"),
                   default="normal")
    p.add_argument("--df", type=float, default=None,
                   help="degrees of freedom for --dist student-t")
    p.add_argument("--include-innovations", action="store_true")
    p.add_argument("--output", required=True, help="CSV path to write")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("select", help="run predictor selection on a CSV series")
    p.add_argument("--input", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--subset", action="store_true",
                   help="search all lag subsets instead of contiguous orders")
    p.add_argument("--output", help="write the JSON report here")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("bic", help="multistep BIC order selection on a CSV series")
    p.add_argument("--input", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--penalty", type=float, default=None,
                   help="per-parameter penalty (default: log n)")
    p.add_argument("--output", help="write the JSON report here")
    p.set_defaults(func=cmd_bic)

    p = sub.add_parser("mspe", help="Monte Carlo MSPE of one candidate")
    _add_model_args(p)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--mask", type=_parse_mask, default=None,
                   help="lag bit mask such as 101 (alternative to --order)")
    p.add_argument("--method", choices=("plugin", "direct"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=500)
    p.add_argument("--dist", choices=("normal", "uniform", "student-t"),
                   default="normal")
    p.add_argument("--df", type=float, default=None)
    p.add_argument("--output", help="write the JSON report here")
    p.set_defaults(func=cmd_mspe)

    p = sub.add_parser("replicate-table1",
                       help="benchmark ratio table for the four test models")
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--reps", type=int, default=20000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="exit 4 unless ratios are within tolerance")
    p.add_argument("--output", help="write the JSON report here")
    p.set_defaults(func=cmd_replicate_table1)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(_join_coeffs(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ValidationError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
