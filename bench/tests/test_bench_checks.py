"""The benchmark's checkers accept real reports and reject corrupted ones.

Run from the repository root:

    python3 -m pytest bench/tests -q

The repository's own test command collects only ``tests/``, so these
stay out of it.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import arselect.cli as cli  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import Model, Op, ar_series, write_series  # noqa: E402

BENCH_MODEL = Model((0.9, -0.81), 1.0)
RANDOM_MODEL = Model((0.5, -0.3, 0.1), 1.3)


def run_cli(tmp: Path, name: str, *argv: str) -> dict:
    out = tmp / f"{name}.json"
    assert cli.main([*argv, "--output", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reports")
    values = ar_series(np.random.default_rng(7), BENCH_MODEL, 300)
    series = tmp / "series.csv"
    write_series(series, values)
    select = ("select", "--input", str(series))
    mspe = ("mspe", *RANDOM_MODEL.cli_args(), "--horizon", "2", "--method", "plugin",
            "--n", "100", "--reps", "20", "--seed", "5")
    return {
        "values": values,
        "dense_h3": run_cli(tmp, "d3", *select, "--horizon", "3", "--max-order", "3"),
        "dense_h1": run_cli(tmp, "d1", *select, "--horizon", "1", "--max-order", "3"),
        "dense_h2": run_cli(tmp, "d2", *select, "--horizon", "2", "--max-order", "3"),
        "subset_h2": run_cli(tmp, "s2", *select, "--horizon", "2", "--max-order", "3",
                             "--subset"),
        "theory_h3": run_cli(tmp, "t3", "theory", *BENCH_MODEL.cli_args(),
                             "--horizon", "3", "--max-order", "4"),
        "theory_h2": run_cli(tmp, "t2", "theory", *RANDOM_MODEL.cli_args(),
                             "--horizon", "2", "--max-order", "5"),
        "mspe_order": run_cli(tmp, "mo", *mspe, "--order", "3"),
        "mspe_mask": run_cli(tmp, "mm", *mspe, "--mask", "1110"),
    }


def test_clean_reports_pass(reports):
    values = reports["values"]
    for name, h, subset in (("dense_h3", 3, False), ("dense_h1", 1, False),
                            ("dense_h2", 2, False), ("subset_h2", 2, True)):
        assert checks.check_selection(reports[name], values, h, 3, subset) == [], name
    assert checks.check_refit(reports["dense_h3"], values, 3, "2", "plugin_ape", False) == []
    assert checks.check_refit(reports["subset_h2"], values, 2, "101", "direct_ape", True) == []
    assert checks.check_mask_dense(reports["subset_h2"], reports["dense_h2"], 3) == []
    assert checks.check_theory(reports["theory_h3"], BENCH_MODEL, 3, 4) == []
    assert checks.check_theory(reports["theory_h2"], RANDOM_MODEL, 2, 5) == []
    assert checks.check_mspe(reports["mspe_order"], RANDOM_MODEL, 2, 100) == []
    assert checks.check_pair(reports["mspe_order"], reports["mspe_mask"]) == []


@pytest.mark.parametrize("name, h, subset", [("dense_h3", 3, False),
                                             ("subset_h2", 2, True)])
def test_swapped_method_is_rejected(reports, name, h, subset):
    bad = copy.deepcopy(reports[name])
    bad["method"] = "plugin" if bad["method"] == "direct" else "direct"
    assert checks.check_selection(bad, reports["values"], h, 3, subset)


@pytest.mark.parametrize("which", ["one_step_direct_ape", "direct_ape", "plugin_ape"])
def test_ape_off_by_one_in_a_million_is_rejected(reports, which):
    bad = copy.deepcopy(reports["dense_h3"])
    bad["audit"][which]["2"] *= 1 + 1e-6
    assert checks.check_refit(bad, reports["values"], 3, "2", which, False)


def test_wrong_floor_is_rejected(reports):
    bad = copy.deepcopy(reports["mspe_order"])
    bad["floor"] = checks.floor_of(RANDOM_MODEL, 1)  # the one-step floor at h=2
    assert checks.check_mspe(bad, RANDOM_MODEL, 2, 100)
    bad_theory = copy.deepcopy(reports["theory_h2"])
    bad_theory["irreducible_variance"] *= 1 + 1e-9
    assert checks.check_theory(bad_theory, RANDOM_MODEL, 2, 5)


def test_mask_dense_mismatch_is_rejected(reports):
    bad = copy.deepcopy(reports["subset_h2"])
    value = bad["audit"]["direct_ape"]["111"]
    bad["audit"]["direct_ape"]["111"] = float(np.nextafter(value, np.inf))
    assert checks.check_mask_dense(bad, reports["dense_h2"], 3)


def test_theory_constants_and_pairs_are_held_tight(reports):
    bad = copy.deepcopy(reports["theory_h3"])
    bad["per_order"][0]["direct_constant"] *= 1 + 1e-8
    assert checks.check_theory(bad, BENCH_MODEL, 3, 4)
    bad_mask = copy.deepcopy(reports["mspe_mask"])
    bad_mask["mean"] *= 1 + 1e-9
    assert checks.check_pair(reports["mspe_order"], bad_mask)


def test_z_gate_rejects_a_biased_cell():
    floor, constant, n, reps = 1.81, 4.0, 500, 200
    se_mean = np.sqrt(2.0) * floor / np.sqrt(reps * 10)
    cell = {"name": 0, "reps": reps, "n": n, "floor": floor, "constant": constant}
    centred = [floor + constant / n] * 10
    biased = [floor + constant / n + 8 * se_mean] * 10
    assert checks.z_gate([{**cell, "means": centred}]) == []
    assert checks.z_gate([{**cell, "means": biased}])
    assert checks.z_gate([]) == []


def test_only_the_malformed_operation_may_raise():
    class Raising:
        @staticmethod
        def main(argv):
            raise IndexError("list index out of range")

    loop = run.Loop(Raising, plan=None)
    assert not loop.run_op(Op("malformed", 15, (("select",),)))
    assert loop.unexpected == set()
    assert not loop.run_op(Op("select", 3, (("select",),)))
    assert loop.unexpected == {"select slot 3: IndexError: list index out of range"}


def test_tracer_refuses_a_function_it_cannot_find(monkeypatch):
    import arselect.ape
    monkeypatch.delattr(arselect.ape, "ape_plugin")
    tracer = Tracer()
    with pytest.raises(LookupError, match="ape_plugin"):
        tracer.install()
    assert tracer._patched == []


def test_layer_self_time_subtracts_children():
    spans = [None] * 3
    spans[0] = ("main", "cli", 0.0, 10.0, -1, 0, 0, 0, 0, None)
    spans[1] = ("select_predictor", "selection", 1.0, 9.0, 0, 0, 0, 0, 0, None)
    spans[2] = ("start_index", "ape", 2.0, 5.0, 1, 0, 1, 4, 11, None)
    out = layer_metrics(spans, ops=2)
    assert out["cli.self_ms_per_op"] == pytest.approx(1e3 * 2.0 / 2)
    assert out["selection.self_ms_per_op"] == pytest.approx(1e3 * 5.0 / 2)
    assert out["ape.self_ms_per_op"] == pytest.approx(1e3 * 3.0 / 2)
    assert out["ape.start_index_calls_per_op"] == 0.5
    assert out["ape.cond_calls_per_op"] == 5.5
    assert out["ape.systems_solved_per_op"] == 2.0
