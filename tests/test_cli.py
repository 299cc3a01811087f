"""End-to-end tests for the command-line interface.

Every test drives ``arselect.cli.main`` in process with an argv list,
so exit codes and report contents are checked exactly as a shell user
would see them.  Series files written by ``simulate`` must round-trip
bit-for-bit: a selection run on the CSV has to agree with the same run
on the in-memory array, down to the last ulp of the forecast.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import arselect
from arselect import cli, errors
from arselect.cli import main, read_series_csv, write_series_csv
from arselect.estimation import Series, fit_direct, fit_plugin, forecast, predict_with
from arselect.methods import Method
from arselect.montecarlo import simulate
from arselect.selection import bic_order, bic_values, select_predictor
from arselect.theory import ArModel

MODEL = ArModel((0.9, -0.81), 1.0)


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def series_csv(tmp_path_factory):
    """A 400-observation benchmark path stored the way the CLI stores it."""
    path = tmp_path_factory.mktemp("series") / "bench.csv"
    sim = simulate(MODEL, 400, seed=42)
    write_series_csv(str(path), sim.series.values, sim.innovations)
    return str(path), sim


class TestSeriesFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        sim = simulate(MODEL, 250, seed=7)
        target = tmp_path / "path.csv"
        write_series_csv(str(target), sim.series.values, sim.innovations)
        series, eps = read_series_csv(str(target))
        assert np.array_equal(series.values, sim.series.values)
        assert np.array_equal(eps, sim.innovations)

    def test_simulate_command_matches_library(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code = run_cli("simulate", "--coeffs", "0.9,-0.81", "--n", "150",
                       "--seed", "11", "--include-innovations",
                       "--output", str(target))
        assert code == 0
        assert "150 observations" in capsys.readouterr().out
        series, eps = read_series_csv(str(target))
        sim = simulate(MODEL, 150, seed=11)
        assert np.array_equal(series.values, sim.series.values)
        assert np.array_equal(eps, sim.innovations)
        sidecar = json.loads((tmp_path / "out.csv.json").read_text())
        assert sidecar["config"]["seed"] == 11
        assert sidecar["includes_innovations"] is True

    def test_innovations_column_is_optional(self, tmp_path):
        target = tmp_path / "bare.csv"
        run_cli("simulate", "--coeffs", "0.5,-0.25", "--n", "40",
                "--seed", "3", "--output", str(target))
        series, eps = read_series_csv(str(target))
        assert eps is None
        assert len(series.values) == 40

    def test_malformed_header_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,value\n1,0.5\n2,0.25\n")
        code = run_cli("select", "--input", str(bad),
                       "--horizon", "1", "--max-order", "2")
        assert code == 2
        assert "header" in capsys.readouterr().err

    def test_short_row_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "short.csv"
        bad.write_text("index,x\n1,0.5\n2\n3,0.25\n")
        with pytest.raises(ValueError, match="line 3"):
            read_series_csv(str(bad))
        code = run_cli("select", "--input", str(bad),
                       "--horizon", "1", "--max-order", "1")
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", ["foo,0.5\n2,0.25\n3,0.125\n",
                                      "1,0.5\n1,0.25\n2,0.125\n",
                                      "1,0.5\n3,0.25\n4,0.125\n"])
    def test_index_must_count_up_by_one(self, tmp_path, capsys, rows):
        bad = tmp_path / "index.csv"
        bad.write_text("index,x\n" + rows)
        line = 2 if rows.startswith("foo") else 3
        with pytest.raises(ValueError, match=f"line {line}: index"):
            read_series_csv(str(bad))
        code = run_cli("select", "--input", str(bad),
                       "--horizon", "1", "--max-order", "1")
        assert code == 2
        assert f"line {line}: index" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["1,0.5\r\n2,0.25\r\n3,0.125\r\n",
                                      '"1","0.5"\r\n"2","0.25"\r\n"3","0.125"\r\n'])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, body):
        # A spreadsheet's "CSV UTF-8" export, read by np.loadtxt or, quoted,
        # by the row loop.
        marked = tmp_path / "marked.csv"
        marked.write_bytes(("\ufeffindex,x\r\n" + body).encode("utf-8"))
        series, eps = read_series_csv(str(marked))
        assert series.values.tolist() == [0.5, 0.25, 0.125] and eps is None
        assert run_cli("bic", "--input", str(marked), "--horizon", "1",
                       "--max-order", "1") == 0

    def test_oversized_field_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "wide.csv"
        bad.write_text("index,x\n1,0.5\n2," + "1" * 200_000 + "\n")
        code = run_cli("select", "--input", str(bad), "--horizon", "1", "--max-order", "1")
        assert code == 2
        assert "line 3: field larger than field limit" in capsys.readouterr().err

    @pytest.mark.parametrize("column, row", [("x", "2,abc,0.1"), ("eps", "2,0.25,abc")])
    def test_non_numeric_field_names_file_and_line(self, tmp_path, capsys, column, row):
        bad = tmp_path / "field.csv"
        bad.write_text(f"index,x,eps\n1,0.5,0.1\n{row}\n3,0.125,0.1\n")
        message = f"{bad}: line 3: {column} 'abc' is not a number"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_series_csv(str(bad))
        code = run_cli("select", "--input", str(bad),
                       "--horizon", "1", "--max-order", "1")
        assert code == 2
        assert message in capsys.readouterr().err


class TestTheoryReport:
    def test_benchmark_model_report(self, tmp_path):
        out = tmp_path / "theory.json"
        code = run_cli("theory", "--coeffs", "0.9,-0.81", "--horizon", "3",
                       "--max-order", "4", "--output", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["model_order"] == 2
        assert report["horizon_order"] == 1
        assert report["irreducible_variance"] == 1.81
        assert report["optimal"] == [[1, "direct"]]
        by_order = {row["order"]: row for row in report["per_order"]}
        # Below the full model order the plug-in route has no finite loss
        # and no excess constant; the direct route is already valid.
        assert by_order[1]["plugin_constant"] is None
        assert by_order[1]["plugin_loss"] == "inf"
        a2 = -0.81
        assert by_order[1]["direct_loss"] == pytest.approx(
            (1 - 4 * a2 + a2 * a2) / (1 - a2), abs=1e-12)
        assert by_order[2]["plugin_loss"] < by_order[3]["plugin_loss"]
        assert by_order[2]["direct_constant"] > by_order[1]["direct_constant"]

    def test_plugin_favoured_model_report(self, capsys):
        code = run_cli("theory", "--coeffs", "0.5,-0.25", "--horizon", "3",
                       "--max-order", "4")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["optimal"] == [[2, "plugin"]]

    def test_negative_first_coefficient_parses_with_a_space(self, capsys):
        reports = []
        for coeffs in (["--coeffs", "-0.5,0.2"], ["--coeffs=-0.5,0.2"]):
            assert run_cli("theory", *coeffs, "--horizon", "2", "--max-order", "3") == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["config"]["coeffs"] == [-0.5, 0.2]

    def test_missing_coefficients_stay_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("theory", "--coeffs", "--horizon", "2", "--max-order", "3")
        assert exc.value.code == 2
        assert "--coeffs: expected one argument" in capsys.readouterr().err


class TestParserReuse:
    """One parser serves every call of a process, and no call leaves
    state behind for the next."""

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    def test_subset_and_output_do_not_carry_over(self, series_csv, tmp_path, capsys):
        path, _ = series_csv
        out = tmp_path / "subset.json"
        assert run_cli("select", "--input", path, "--horizon", "3", "--max-order", "4",
                       "--subset", "--output", str(out)) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["config"]["subset"] is True
        assert run_cli("select", "--input", path, "--horizon", "3", "--max-order", "4") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["subset"] is False
        assert report["mask"] is None

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("theory", "--coeffs", "0.5", "--horizon", "x", "--max-order", "3")
        assert exc.value.code == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err
        assert run_cli("theory", "--coeffs", "0.5", "--horizon", "2", "--max-order", "3") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"] == {"coeffs": [0.5], "sigma2": 1.0, "horizon": 2,
                                    "max_order": 3}


class TestSelectReport:
    def test_matches_in_memory_selection(self, series_csv, tmp_path):
        path, sim = series_csv
        out = tmp_path / "select.json"
        code = run_cli("select", "--input", path, "--horizon", "3",
                       "--max-order", "4", "--output", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        result = select_predictor(sim.series, 3, 4)
        assert report["method"] == result.method.label == "plugin"
        assert report["order"] == result.order == 2
        assert report["forecast"] == predict_with(sim.series,
                                                  fit_plugin(sim.series, 3, 2))
        audit = report["audit"]
        assert audit["one_step_choice"] == 2
        assert audit["direct_choice"] == 1
        assert audit["plugin_choice"] == 2
        assert audit["direct_ape"]["1"] == result.audit.direct_ape[1]

    def test_one_step_horizon_reports_direct(self, series_csv, capsys):
        path, _ = series_csv
        code = run_cli("select", "--input", path, "--horizon", "1",
                       "--max-order", "4")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "direct"

    def test_subset_mode(self, series_csv, capsys):
        path, _ = series_csv
        code = run_cli("select", "--input", path, "--horizon", "3",
                       "--max-order", "4", "--subset")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mask"] == [1, 0, 0, 1]
        assert report["method"] == "direct"
        assert report["order"] is None
        assert report["audit"]["one_step_choice"] == [1, 1, 0, 0]
        # Mask-keyed tables are serialised with bit-string keys.
        assert "1001" in report["audit"]["direct_ape"]
        assert len(report["audit"]["direct_ape"]) == 15


class TestBicReport:
    def test_matches_library(self, series_csv, capsys):
        path, sim = series_csv
        code = run_cli("bic", "--input", path, "--horizon", "1",
                       "--max-order", "4")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["chosen"] == 2
        expected = bic_values(sim.series, 1, 4)
        got = {row["order"]: row["bic"] for row in report["values"]}
        assert got == expected
        assert report["config"]["penalty"] == pytest.approx(np.log(400))

    def test_negative_infinity_keeps_its_sign(self, tmp_path, capsys):
        # x_i = 0.5**(i-1) is fit without residual at order 1: log(0) = -inf.
        path = tmp_path / "halving.csv"
        write_series_csv(str(path), 0.5 ** np.arange(40))
        code = run_cli("bic", "--input", str(path), "--horizon", "1", "--max-order", "1")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["values"] == [{"order": 1, "bic": "-inf"}]
        assert report["chosen"] == 1

    def test_fits_each_order_once(self, series_csv, monkeypatch, capsys):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[1:])
            return bic_values(*args, **kwargs)

        monkeypatch.setattr(cli, "bic_values", spy)
        monkeypatch.setattr(arselect.selection, "bic_values", spy)
        code = run_cli("bic", "--input", series_csv[0], "--horizon", "2", "--max-order", "4")
        assert code == 0
        assert calls == [(2, 4)]
        assert json.loads(capsys.readouterr().out)["chosen"] == bic_order(
            series_csv[1].series, 2, 4)


class TestMspeCommand:
    def test_report_fields(self, capsys):
        code = run_cli("mspe", "--coeffs", "0.9,-0.81", "--horizon", "3",
                       "--order", "1", "--method", "direct",
                       "--n", "200", "--reps", "50", "--seed", "5")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["floor"] == 1.81
        assert report["mean"] > 0.0
        assert report["scaled_excess"] == pytest.approx(
            200 * (report["mean"] - 1.81), rel=1e-12)
        assert report["config"]["candidate"] == "1"

    @pytest.mark.parametrize("mask, message", [("000", "flag at least one lag"),
                                               ("", "be a nonempty sequence of 0/1"),
                                               ("102", "be a nonempty sequence of 0/1")])
    def test_bad_mask_is_a_usage_error(self, capsys, mask, message):
        with pytest.raises(SystemExit) as exc:
            run_cli("mspe", "--coeffs", "0.5", "--horizon", "2", "--mask", mask,
                    "--method", "direct", "--n", "60", "--reps", "5", "--seed", "1")
        assert exc.value.code == 2
        assert f"argument --mask: mask must {message}" in capsys.readouterr().err

    def test_zero_n_names_the_option(self, capsys):
        code = run_cli("mspe", "--coeffs", "0.5", "--horizon", "1", "--order", "1",
                       "--method", "direct", "--n", "0", "--reps", "5", "--seed", "1")
        assert code == 2
        assert capsys.readouterr().err == "error: n must be >= 1\n"

    def test_candidate_flags_are_exclusive(self, capsys):
        both = run_cli("mspe", "--coeffs", "0.9,-0.81", "--horizon", "2",
                       "--order", "1", "--mask", "101", "--method", "direct",
                       "--n", "100", "--reps", "10", "--seed", "1")
        capsys.readouterr()
        neither = run_cli("mspe", "--coeffs", "0.9,-0.81", "--horizon", "2",
                          "--method", "direct",
                          "--n", "100", "--reps", "10", "--seed", "1")
        assert both == 2
        assert neither == 2


class TestExitCodes:
    """Invalid requests exit 2, defeated-by-data requests exit 3."""

    def test_every_error_derives_from_one_exit_base(self):
        validation = {"NonStationaryError", "ZeroLeadCoefficientError",
                      "NonPositiveVarianceError", "OutOfDomainError",
                      "UnderspecifiedOrderError", "SubsetTooLargeError",
                      "DegenerateHorizonError"}
        bases = (errors.ArSelectError, errors.ValidationError,
                 errors.NumericalError)
        leaves = {name: cls for name, cls in vars(errors).items()
                  if isinstance(cls, type) and issubclass(cls, bases[0])
                  and cls not in bases}
        assert len(leaves) == 15
        for name, cls in leaves.items():
            is_validation = issubclass(cls, errors.ValidationError)
            assert is_validation != issubclass(cls, errors.NumericalError), name
            assert is_validation == (name in validation), name

    def test_nonstationary_model(self, capsys):
        code = run_cli("theory", "--coeffs", "1.5,0.9",
                       "--horizon", "2", "--max-order", "3")
        assert code == 2
        assert "NonStationary" in capsys.readouterr().err

    def test_series_too_short_for_selection(self, tmp_path, capsys):
        tiny = tmp_path / "tiny.csv"
        sim = simulate(MODEL, 11, seed=1)
        write_series_csv(str(tiny), sim.series.values)
        code = run_cli("select", "--input", str(tiny),
                       "--horizon", "3", "--max-order", "4")
        assert code == 3

    @pytest.mark.parametrize("scale", [1e153, 1e160])
    @pytest.mark.parametrize("subset", [[], ["--subset"]])
    def test_overflowing_series_is_numerical(self, tmp_path, capsys, scale, subset):
        big = tmp_path / "big.csv"
        write_series_csv(str(big), simulate(MODEL, 800, seed=1).series.values * scale)
        code = run_cli("select", "--input", str(big), "--horizon", "3",
                       "--max-order", "4", *subset)
        assert code == 3
        assert "SeriesOverflowError: series overflows" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e153, 1e160, 1e200])
    def test_overflowing_series_is_numerical_for_bic(self, tmp_path, capsys, scale):
        big = tmp_path / "big.csv"
        write_series_csv(str(big), simulate(MODEL, 800, seed=1).series.values * scale)
        code = run_cli("bic", "--input", str(big), "--horizon", "3", "--max-order", "4")
        assert code == 3
        assert "SeriesOverflowError: series overflows" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_residuals_are_numerical_for_bic(self, tmp_path, capsys):
        # Finite cross products, but one spike's in-sample residuals overflow
        # when squared: every order's BIC would be infinite.
        rng = np.random.default_rng(50)
        values = rng.standard_normal(60) * 1e152
        values[rng.integers(0, 60)] *= 10.0 ** rng.uniform(0, 3)
        path = tmp_path / "spike.csv"
        write_series_csv(str(path), values)
        code = run_cli("bic", "--input", str(path), "--horizon", "2", "--max-order", "3")
        assert code == 3
        assert "SeriesOverflowError: series overflows" in capsys.readouterr().err

    # Rank-one moment matrices: a constant series, and a series with one
    # window for two lags.  The rounded pivots of the bordered walk stay
    # positive on these cases, so the floor on the least relative pivot is
    # what rejects them, as the condition-number ceiling did before it.
    @pytest.mark.parametrize("values, h, k", [
        (np.full(50, 0.7), 2, 2), (np.full(50, 0.7), 2, 3),
        (np.random.default_rng(6).normal(size=4), 2, 2)],
        ids=["constant", "constant-three-lags", "one-window"])
    def test_rank_one_moments_are_singular(self, tmp_path, capsys, values, h, k):
        series = Series(values)
        with pytest.raises(errors.SingularMomentError):
            fit_direct(series, h, k)
        with pytest.raises(errors.SingularMomentError):
            forecast(series, h, k, Method.DIRECT)
        path = tmp_path / "rank-one.csv"
        write_series_csv(str(path), values)
        code = run_cli("bic", "--input", str(path), "--horizon", str(h), "--max-order", str(k))
        assert code == 3
        assert "SingularMomentError" in capsys.readouterr().err

    def test_subset_window_cap(self, series_csv, capsys):
        path, _ = series_csv
        code = run_cli("select", "--input", path, "--horizon", "2",
                       "--max-order", "13", "--subset")
        assert code == 2
        assert "SubsetTooLarge" in capsys.readouterr().err

    @pytest.mark.parametrize("penalty", ["nan", "inf", "-inf"])
    def test_non_finite_penalty(self, series_csv, capsys, penalty):
        code = run_cli("bic", "--input", series_csv[0], "--horizon", "2",
                       "--max-order", "3", f"--penalty={penalty}")
        assert code == 2
        assert f"penalty must be finite, got {penalty}" in capsys.readouterr().err

    @pytest.mark.parametrize("df", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["simulate", "mspe"])
    def test_non_finite_degrees_of_freedom(self, tmp_path, capsys, df,
                                           command):
        args = {"simulate": ("--output", str(tmp_path / "x.csv")),
                "mspe": ("--horizon", "2", "--order", "1", "--method",
                         "direct", "--reps", "5")}[command]
        code = run_cli(command, "--coeffs", "0.5", "--n", "60", "--seed", "1",
                       "--dist", "student-t", "--df", df, *args)
        assert code == 2
        assert "degrees of freedom" in capsys.readouterr().err

    def test_missing_seed_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--coeffs", "0.5", "--n", "50",
                    "--output", str(tmp_path / "x.csv"))
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert arselect.__version__ in capsys.readouterr().out


class TestReplicateCommand:
    def test_small_run_reports_and_checks(self, tmp_path):
        out = tmp_path / "table.json"
        code = run_cli("replicate-table1", "--n", "300", "--reps", "200",
                       "--seed", "4", "--check", "--output", str(out))
        report = json.loads(out.read_text())
        assert len(report["rows"]) == 4
        assert report["config"]["widen"] == 1.6
        for row in report["rows"]:
            assert row["reference"] > 0.0
            assert row["std_error"] > 0.0
        # 200 replications is far below benchmark precision: the check
        # must flag at least one ratio and the command must exit 4.
        assert report["failures"]
        assert code == 4

    def test_without_check_flag_reports_but_passes(self, capsys):
        code = run_cli("replicate-table1", "--n", "300", "--reps", "200",
                       "--seed", "4")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["failures"]


class TestColdStart:
    """Selection and BIC never load SciPy; the commands that need it load
    it on first use.  Each case runs in a fresh interpreter."""

    @staticmethod
    def run_python(code, *args):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(arselect.__file__)))
        done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_select_and_bic_never_import_scipy(self, series_csv, tmp_path):
        code = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import arselect
print(scipy_modules())
import arselect.cli
print(scipy_modules())
try:
    arselect.cli.main(["--version"])
except SystemExit as exc:
    assert exc.code == 0
print(scipy_modules())
path, out = sys.argv[1:]
for argv in (["select", "--input", path, "--horizon", "3", "--max-order", "4"],
             ["select", "--input", path, "--horizon", "3", "--max-order", "3", "--subset"],
             ["bic", "--input", path, "--horizon", "2", "--max-order", "4"]):
    assert arselect.cli.main(argv + ["--output", out]) == 0
    print(scipy_modules())
"""
        lines = self.run_python(code, series_csv[0], str(tmp_path / "r.json")).splitlines()
        assert lines == ["[]", "[]", arselect.__version__, "[]", "[]", "[]", "[]"]

    def test_theory_and_mspe_load_scipy_when_they_run(self):
        code = """
import sys
import arselect.cli
for argv in (["theory", "--coeffs", "0.9,-0.81", "--horizon", "3", "--max-order", "3"],
             ["mspe", "--coeffs", "0.9,-0.81", "--horizon", "2", "--order", "2",
              "--method", "plugin", "--n", "100", "--reps", "5", "--seed", "1"]):
    assert arselect.cli.main(argv) == 0
print("scipy.linalg" in sys.modules, "scipy.signal" in sys.modules)
"""
        assert self.run_python(code).splitlines()[-1] == "True True"
