"""Release acceptance gate: nine numbered criteria, one verdict line each.

Each test prints exactly one line of the form

    ACCEPTANCE <n> <name>: PASS|FAIL - <detail>

outside pytest's capture (so it is visible in a plain ``pytest -v``
run) and then asserts on the same condition.  Tolerances and Monte
Carlo scales are pinned here and must not be loosened to make a
criterion pass; a red criterion is information, not noise.

The Monte Carlo criteria (3, 4, 6, 7, 9) run at full scale by default,
about two minutes in total.  Setting ``ARSELECT_ACCEPTANCE=reduced``
shrinks criterion 3 to 4000 replications with its matching 1.6x
tolerance widening; the other criteria have no sanctioned reduction.

Criterion 6's three-step floor is derived from its replication count
in the test's docstring; README.md ("Acceptance status") gives the
analysis and the sample-size trend behind it.
"""

import math
import os

import numpy as np

from arselect import (
    ApeResult,
    ArModel,
    Series,
    ape_direct,
    ape_excess,
    ape_plugin,
    autocovariances,
    bic_order,
    check_ratios,
    companion_matrix,
    direct_excess_constant,
    forecast,
    h_step_order,
    horizon_variance,
    loss_table,
    ma_coefficients,
    mc_mspe,
    optimal_candidates,
    plugin_excess_constant,
    replicate_table1,
    select_predictor,
    selection_frequency,
    simulate,
    start_index,
    three_step_excess_ratio,
)
from arselect.methods import Method
from arselect.montecarlo import BENCHMARK_MODELS, REFERENCE_RATIOS

from conftest import curve_model, random_stationary_model
from test_ape import naive_ape

REDUCED = os.environ.get("ARSELECT_ACCEPTANCE", "").lower() == "reduced"

BENCH = ArModel((0.9, -0.81), 1.0)


def announce(capsys, number: int, name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    return line


def _pct(rates) -> str:
    return "/".join(f"{100.0 * r:.1f}" for r in rates) + "%"


def _multistep_sensitivity(model: ArModel, h: int, k: int) -> np.ndarray:
    """Weighted sum of companion powers driving the plug-in excess.

    Independent re-derivation for the gap-recursion oracle: the same
    matrix the plug-in constant integrates over, rebuilt here so the
    recursion check does not share code with the quantities it links.
    """
    b = ma_coefficients(model, n_terms=h - 1).b
    padded = np.zeros(k)
    padded[: model.order] = model.coeffs
    comp = companion_matrix(padded)
    power = np.eye(k)
    out = np.zeros((k, k))
    for exponent in range(h):
        out += b[h - 1 - exponent] * power
        if exponent < h - 1:
            power = power @ comp
    return out


def test_criterion_1_closed_form_excess_constants(capsys):
    """Generic excess constants against hand closed forms, |err| < 1e-9."""
    rng = np.random.default_rng(101)
    worst = 0.0
    checks = 0
    # two-step closed forms over random stationary models, k up to 6
    for _ in range(100):
        model = random_stationary_model(rng)
        a1 = model.coeffs[0]
        for k in range(model.order, 7):
            ak = model.coeffs[k - 1] if k - 1 < model.order else 0.0
            f2 = direct_excess_constant(model, 2, k)
            f1 = plugin_excess_constant(model, 2, k)
            worst = max(
                worst,
                abs(f2 - (k + (k + 2) * a1 ** 2) * model.sigma2),
                abs(f1 - ((k + 2) * a1 ** 2 + k - 1 + ak ** 2) * model.sigma2))
            checks += 2
    # three-step method gap for arbitrary second-order models
    for _ in range(40):
        model = random_stationary_model(rng, order=2)
        a1, a2 = model.coeffs
        gap = direct_excess_constant(model, 3, 2) \
            - plugin_excess_constant(model, 3, 2)
        want = 2.0 * (1 + a2) * (1 - a2 - 2 * a1 ** 2 * a2) * model.sigma2
        worst = max(worst, abs(gap - want))
        checks += 1
    # the depth-three family where the two-step weight vanishes
    for a2 in [*np.linspace(-0.95, -0.05, 19), -0.81, -0.64, -0.36, -0.25]:
        for s2 in (1.0, 1.7):
            model = curve_model(a2, s2)
            f23_1 = direct_excess_constant(model, 3, 1)
            f23_2 = direct_excess_constant(model, 3, 2)
            f13_2 = plugin_excess_constant(model, 3, 2)
            worst = max(
                worst,
                abs(f23_2 - f13_2 - 2.0 * (1 + a2) * (1 - a2 + 2 * a2 ** 2) * s2),
                abs(f23_1 - (1 - 4 * a2 + a2 ** 2) / (1 - a2) * s2),
                abs(f23_2 - f23_1 - (1 - a2 + 2 * a2 ** 2 / (1 - a2)) * s2))
            checks += 3
    ok = worst < 1e-9
    line = announce(capsys, 1, "closed-form excess constants", ok,
                    f"{checks} closed-form checks, worst |err| {worst:.2e} "
                    f"(tol 1e-9)")
    assert ok, line


def test_criterion_2_three_step_ratio_curve(capsys):
    """Ratio curve values to 3 decimals, exact ratio identity, balance root."""
    points = (-0.81, -0.64, -0.36, -0.25)
    rounded = [round(three_step_excess_ratio(a2), 3) for a2 in points]
    values_ok = rounded == [0.667, 0.868, 1.382, 1.76]
    worst = 0.0
    for a2 in points:
        model = curve_model(a2)
        ratio = direct_excess_constant(model, 3, 1) \
            / plugin_excess_constant(model, 3, 2)
        worst = max(worst, abs(three_step_excess_ratio(a2) - ratio))
    lo, hi = -0.9, -0.1
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if three_step_excess_ratio(mid) > 1.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    root_ok = abs(root - (-0.54977)) <= 1e-4
    ok = values_ok and worst < 1e-10 and root_ok
    line = announce(
        capsys, 2, "three-step ratio curve", ok,
        f"curve values {rounded}, ratio-identity gap {worst:.1e} "
        f"(tol 1e-10), balance root {root:.6f} (target -0.54977 +/- 1e-4)")
    assert ok, line


def test_criterion_3_benchmark_ratio_replication(capsys):
    """Four-model excess-MSPE ratios vs stored references and exact limits."""
    reps = 4000 if REDUCED else 20000
    widen = 1.6 if REDUCED else 1.0
    rows = replicate_table1(n=300, reps=reps, seed=2026)
    failures = check_ratios(rows, widen=widen)
    ok = not failures
    refs = REFERENCE_RATIOS[300]
    detail = (f"n=300 reps={reps}{' (reduced)' if REDUCED else ''}: ratios "
              + "/".join(f"{r.ratio:.3f}" for r in rows)
              + " vs references " + "/".join(f"{v:.3f}" for v in refs)
              + ", limits " + "/".join(f"{r.limit:.3f}" for r in rows))
    if failures:
        detail += "; " + "; ".join(failures)
    line = announce(capsys, 3, "benchmark ratio replication", ok, detail)
    assert ok, line


def test_criterion_4_excess_mspe_asymptotics(capsys):
    """Scaled empirical excess MSPE within 3 standard errors of each constant."""
    n, reps = 500, 10000
    worst_z, worst_label = 0.0, ""
    redraws = 0
    for h in (1, 2, 3):
        floor = horizon_variance(BENCH, h)
        for k in (2, 3):
            for method, constant in (
                    (Method.PLUGIN, plugin_excess_constant(BENCH, h, k)),
                    (Method.DIRECT, direct_excess_constant(BENCH, h, k))):
                est = mc_mspe(BENCH, h, k, method, n, reps, seed=31)
                redraws += est.redraws
                z = abs(n * (est.mean - floor) - constant) \
                    / (n * est.std_error)
                if z > worst_z:
                    worst_z, worst_label = z, f"h={h} k={k} {method.label}"
    ok = worst_z <= 3.0
    line = announce(
        capsys, 4, "excess-MSPE asymptotics", ok,
        f"12 (horizon, order, method) cells at n={n} reps={reps}: worst "
        f"|z| {worst_z:.2f} at {worst_label} (gate 3.0), {redraws} redraws")
    assert ok, line


def test_criterion_5_monotonicity_and_dominance(capsys):
    """Strict growth in order, direct above plug-in, and the horizon
    recursion linking their gap, over 200 random stationary models."""
    rng = np.random.default_rng(55)
    min_margin = math.inf
    worst_recursion = 0.0
    increasing = True
    for _ in range(200):
        model = random_stationary_model(rng)
        p = model.order
        ks = range(p, p + 4)
        f1 = {(h, k): plugin_excess_constant(model, h, k)
              for h in range(1, 6) for k in ks}
        f2 = {(h, k): direct_excess_constant(model, h, k)
              for h in range(1, 6) for k in ks}
        for h in range(1, 6):
            for k in list(ks)[:-1]:
                increasing &= f1[h, k + 1] > f1[h, k]
                increasing &= f2[h, k + 1] > f2[h, k]
            if h >= 2:
                min_margin = min(min_margin,
                                 min(f2[h, k] - f1[h, k] for k in ks))
        for h in range(1, 5):
            for k in ks:
                sens = _multistep_sensitivity(model, h, k)
                gam = autocovariances(model, k - 1).gamma_matrix(k)
                quad = float(sens[:, 0] @ np.linalg.solve(gam, sens[:, 0]))
                resid = abs((f2[h + 1, k] - f1[h + 1, k])
                            - (f2[h, k] - f1[h, k])
                            - model.sigma2 ** 2 * quad)
                # relative to the constants being differenced: near-unit
                # models are held to 1e-9 absolute, large-constant models
                # to the same number of significant digits.
                scale = max(1.0, f2[h + 1, k], f1[h + 1, k])
                worst_recursion = max(worst_recursion, resid / scale)
    ok = increasing and min_margin > 0.0 and worst_recursion <= 1e-9
    line = announce(
        capsys, 5, "monotonicity and dominance", ok,
        f"200 models, horizons to 5: strict order growth {increasing}, "
        f"min direct-minus-plug-in margin {min_margin:.3e}, worst "
        f"gap-recursion residual {worst_recursion:.2e} "
        f"(tol 1e-9, relative to constant scale)")
    assert ok, line


def test_criterion_6_selection_efficiency(capsys):
    """Hit rate of the combined selector on the benchmark models.

    Three-step gate: at n=2000 the selected (order, method) pair lies in
    the model's optimal set on a majority of paths, and each control
    rule misses that majority on at least one model.  The theory
    (predictive least squares) gives only the sign of the mean
    accumulated-error difference between two candidates, which grows
    like (constant gap) * log n while its path-to-path spread at
    feasible n is as large; so what it promises at finite n is that the
    optimal pair wins more often than not.  The floor is one half plus
    three binomial standard errors of a fair coin over ``reps`` paths.

    The controls are the two single-method rules (the step-2 direct
    finalist always, the step-2 plug-in finalist always) and step 3
    with its comparison reversed.  They keep the gate able to fail for a
    selector whose method choice is blind or backwards.  The
    criterion-2 direct-to-plug-in ratio per model is reported for
    information: the closer it is to one, the weaker the signal.

    One-step gate: the order-selection stage recovers the true order in
    at least 90% at n=1000.
    """
    reps = 500
    floor = 0.5 + 3.0 * math.sqrt(0.25 / reps)
    h3_rates = []
    controls = {"always-direct": [], "always-plug-in": [],
                "reversed step 3": []}
    for coeffs in BENCHMARK_MODELS:
        model = ArModel(coeffs, 1.0)
        optimal = optimal_candidates(loss_table(model, 3, 4))
        hits = dict.fromkeys(("selector", *controls), 0)
        for rep in range(reps):
            path = simulate(model, 2000, seed=(7, rep))
            result = select_predictor(path.series, 3, 4)
            direct = (result.audit.direct_choice, Method.DIRECT)
            plugin = (result.audit.plugin_choice, Method.PLUGIN)
            chosen = (result.candidate, result.method)
            picks = {"selector": chosen, "always-direct": direct,
                     "always-plug-in": plugin,
                     "reversed step 3": plugin if chosen == direct else direct}
            for rule, pair in picks.items():
                hits[rule] += pair in optimal
        h3_rates.append(hits["selector"] / reps)
        for rule, rates in controls.items():
            rates.append(hits[rule] / reps)
    h1_rates = []
    for coeffs in BENCHMARK_MODELS:
        freq = selection_frequency(ArModel(coeffs, 1.0), 1, 4, 1000, reps,
                                   seed=5)
        h1_rates.append(freq.counts.get((2, Method.DIRECT), 0) / freq.reps)
    h3_ok = all(r >= floor for r in h3_rates)
    controls_fail = all(any(r < floor for r in rates)
                        for rates in controls.values())
    h1_ok = all(r >= 0.90 for r in h1_rates)
    ok = h3_ok and controls_fail and h1_ok
    ratios = "/".join(f"{three_step_excess_ratio(coeffs[1]):.3f}"
                      for coeffs in BENCHMARK_MODELS)
    detail = (f"three-step optimal-set rates {_pct(h3_rates)} (floor "
              f"{100.0 * floor:.1f}% = 0.5 + 3*sqrt(0.25/{reps})); controls "
              + ", ".join(f"{rule} {_pct(rates)}"
                          for rule, rates in controls.items())
              + f" (each below the floor on some model: {controls_fail}); "
              f"direct/plug-in ratio {ratios} (information); one-step order "
              f"recovery {_pct(h1_rates)} (floor 90%)")
    line = announce(capsys, 6, "selection efficiency", ok, detail)
    assert ok, line


def test_criterion_7_accumulated_error_sign(capsys):
    """Accumulated-error comparison points the right way on long paths."""
    wins = 0
    for rep in range(200):
        path = simulate(BENCH, 5000, seed=(0, rep))
        start = start_index(path.series, 3, 2)
        if ape_plugin(path.series, 3, 2, start).ape \
                > ape_direct(path.series, 3, 1, start).ape:
            wins += 1
    ok = wins >= 160
    # informational growth-rate band, non-gating: excess accumulated
    # error over (constant * log n) should sit within a factor of two.
    path = simulate(BENCH, 20000, seed=99)
    start = start_index(path.series, 3, 2)
    ma = ma_coefficients(BENCH, 2)
    logn = math.log(20000)
    band_d = ape_excess(ape_direct(path.series, 3, 1, start),
                        path.innovations, ma) \
        / (direct_excess_constant(BENCH, 3, 1) * logn)
    band_p = ape_excess(ape_plugin(path.series, 3, 2, start),
                        path.innovations, ma) \
        / (plugin_excess_constant(BENCH, 3, 2) * logn)
    line = announce(
        capsys, 7, "accumulated-error sign diagnostic", ok,
        f"plug-in accumulated error above direct in {wins}/200 paths at "
        f"n=5000 (gate 160); informational excess/(constant*log n) at "
        f"n=20000: direct {band_d:.2f}, plug-in {band_p:.2f} "
        f"(factor-2 band, non-gating)")
    assert ok, line


def test_criterion_8_oracle_equivalences(capsys):
    """Sequential fits, accumulated errors, and mask embeddings against
    naive refit oracles; exact where exactness is promised."""
    path = simulate(BENCH, 260, seed=8)
    values = path.series.values
    # The forecasts the APE engine makes from each prefix fit: the step's
    # target less its error, prefix x_1..x_i forecasting x_{i+3}.
    start = start_index(path.series, 3, 4)
    engine = {(k, method): values[start + 2:] - func(path.series, 3, k, start,
                                                     keep_steps=True).step_errors
              for k in range(1, 5)
              for method, func in ((Method.DIRECT, ape_direct), (Method.PLUGIN, ape_plugin))}
    rng = np.random.default_rng(88)
    worst_seq = 0.0
    for pos in rng.choice(values.size - 2 - start, size=100, replace=False):
        prefix = Series(values[:start + pos])
        for (k, method), forecasts in engine.items():
            want = forecast(prefix, 3, k, method)
            worst_seq = max(worst_seq, abs(forecasts[pos] - want) / max(1.0, abs(want)))

    small = simulate(BENCH, 200, seed=15)
    worst_ape = 0.0
    for h in (2, 3):
        start = start_index(small.series, h, 4)
        for k in range(1, 5):
            for method, func in ((Method.DIRECT, ape_direct),
                                 (Method.PLUGIN, ape_plugin)):
                got = func(small.series, h, k, start).ape
                want, _ = naive_ape(small.series.values, h, k, start, method)
                worst_ape = max(worst_ape, abs(got - want) / max(1.0, want))

    start1 = start_index(small.series, 1, 4)
    h1_exact = all(
        ape_plugin(small.series, 1, k, start1).ape
        == ape_direct(small.series, 1, k, start1).ape
        for k in range(1, 5))
    start3 = start_index(small.series, 3, 4)
    mask_exact = (
        ape_direct(small.series, 3, (1, 1, 1, 1), start3).ape
        == ape_direct(small.series, 3, 4, start3).ape
        and ape_plugin(small.series, 3, (1, 1, 1, 1), start3).ape
        == ape_plugin(small.series, 3, 4, start3).ape)

    ok = (worst_seq <= 1e-8 and worst_ape <= 1e-8
          and h1_exact and mask_exact)
    line = announce(
        capsys, 8, "oracle equivalences", ok,
        f"sequential-vs-batch rel err {worst_seq:.2e} on 100 prefixes, "
        f"accumulated-error-vs-refit rel err {worst_ape:.2e} (tol 1e-8), "
        f"one-step method coincidence exact: {h1_exact}, full-mask/dense "
        f"coincidence exact: {mask_exact}")
    assert ok, line


def test_criterion_9_bic_order_recovery(capsys):
    """Multistep BIC recovers the projection order on the benchmark models."""
    rates = {}
    for index, coeffs in enumerate(BENCHMARK_MODELS):
        model = ArModel(coeffs, 1.0)
        for h in (1, 3):
            target = h_step_order(model, h)
            hits = sum(
                bic_order(simulate(model, 2000, seed=(23, index, rep)).series,
                          h, 4) == target
                for rep in range(500))
            rates[coeffs, h] = hits / 500
    ok = all(r >= 0.90 for r in rates.values())
    by_h = {h: [rates[coeffs, h] for coeffs in BENCHMARK_MODELS]
            for h in (1, 3)}
    line = announce(
        capsys, 9, "BIC order recovery", ok,
        f"n=2000, 500 runs per cell: one-step {_pct(by_h[1])}, "
        f"three-step {_pct(by_h[3])} (floor 90%)")
    assert ok, line
