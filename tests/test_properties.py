"""Generated-input checks that the family engine is the per-candidate path.

Selection evaluates a whole candidate family from one cross-product table,
one batched start probe and one one-step stack per candidate.  These
properties hold it to the per-candidate functions (``start_index``,
``ape_direct``, ``ape_plugin``) bit for bit, and the probe to a naive
per-time probe written here.
"""
import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import arselect.ape
from arselect import (
    Series,
    ape_direct,
    ape_plugin,
    select_predictor,
    simulate,
    start_index,
    subset_select,
)
from arselect.errors import ArSelectError, NoValidStartError
from arselect.tolerances import COND_GUARD

from conftest import random_stationary_model

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def stationary_series(draw, min_n=40, max_n=600):
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(min_n, max_n))
    model = random_stationary_model(np.random.default_rng(seed), max_order=4)
    return simulate(model, n, seed=seed).series


def outcome(func):
    """A call's value, or the class of the package error it raised."""
    try:
        return func()
    except ArSelectError as exc:
        return type(exc)


def per_candidate_audit(series, h, candidates, start_one, start_h, contains):
    """The audit maps rebuilt from one ``ape_*`` call per entry, in the
    order of the three steps."""
    one_step = {c: ape_direct(series, 1, c, start_one).ape for c in candidates}
    first = min(candidates, key=lambda c: (one_step[c], candidates.index(c)))
    direct = {c: ape_direct(series, h, c, start_h).ape for c in candidates}
    plugin = {c: ape_plugin(series, h, c, start_h).ape for c in candidates
              if contains(c, first)}
    return one_step, direct, plugin


def engine_audit(result):
    audit = result.audit
    return audit.one_step_direct_ape, audit.direct_ape, audit.plugin_ape


def naive_start(values, h, max_order):
    """The start probe taken one time step and one horizon at a time, with
    moment sums formed from an explicit lag matrix."""
    n, k = values.size, max_order

    def usable(i):
        for hh in {1, h}:
            rows = np.arange(k, i - hh + 1)          # one-based window ends
            lags = np.column_stack([values[rows - 1 - r] for r in range(k)])
            with np.errstate(divide="ignore", invalid="ignore"):
                cond = np.linalg.cond(lags.T @ lags)
            if not np.isfinite(cond) or cond > COND_GUARD:
                return False
        return True

    for i in range(2 * k + h - 1, n - h + 1):
        if all(usable(t) for t in range(i, min(i + 10, n - h) + 1)):
            return i
    return None


@SETTINGS
@given(series=stationary_series(), max_order=st.integers(1, 6),
       h=st.integers(1, 5))
def test_dense_audit_is_the_per_candidate_path(series, max_order, h):
    orders = list(range(1, max_order + 1))
    result = select_predictor(series, h, max_order)
    start_one = start_index(series, 1, max_order)
    start_h = start_index(series, h, max_order)
    assert (result.audit.start_one_step, result.audit.start) == (start_one, start_h)
    want = per_candidate_audit(series, h, orders, start_one, start_h,
                               lambda k, first: True)
    assert engine_audit(result) == want


@SETTINGS
@given(series=stationary_series(max_n=300), window=st.integers(1, 4),
       h=st.integers(2, 5))
def test_subset_audit_is_the_per_candidate_path(series, window, h):
    result = subset_select(series, h, window)
    masks = list(result.audit.direct_ape)
    start_one = start_index(series, 1, window)
    start_h = start_index(series, h, window)
    want = per_candidate_audit(
        series, h, masks, start_one, start_h,
        lambda big, small: all(b >= s for b, s in zip(big, small)))
    assert engine_audit(result) == want


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), zeros=st.integers(0, 40),
       spike=st.none() | st.integers(0, 39), n=st.integers(40, 300),
       max_order=st.integers(1, 6), h=st.integers(1, 5))
# The spike at x_13 spoils only usable(14), exactly ten steps after the
# structural start 4: the start is 15, where a probe one step short
# would return 4.
@example(seed=1, zeros=0, spike=12, n=100, max_order=2, h=1)
def test_start_index_is_the_naive_probe(seed, zeros, spike, n, max_order, h):
    # A leading run of zeros leaves the early moment sums singular and
    # pushes the start past its structural minimum 2K+h-1.  A spike of
    # 1e9 makes a few moment sums ill-conditioned until the next K-1
    # lags carry it too, so the forward probe must step over them.
    rng = np.random.default_rng(seed)
    values = np.concatenate([np.zeros(zeros), rng.normal(size=n)])
    if spike is not None:
        values[zeros + spike] = 1e9
    want = naive_start(values, h, max_order)
    got = outcome(lambda: start_index(Series(values), h, max_order))
    assert got == (NoValidStartError if want is None else want)
    if zeros >= 2 * max_order + h and want is not None:
        assert want > 2 * max_order + h - 1


@SETTINGS
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       zeros=st.integers(0, 20), n=st.integers(40, 200),
       max_order=st.integers(1, 6), h=st.integers(2, 5))
def test_late_one_step_start_matches_per_candidate_path(data, seed, zeros, n,
                                                        max_order, h,
                                                        monkeypatch):
    # The horizon-h start can precede the one-step start near the end of a
    # short series; the probe is stubbed to place the two starts anywhere
    # in that order, so the one-step stack must begin at start_h.  Leading
    # zeros make some of those starts singular.
    rng = np.random.default_rng(seed)
    series = Series(np.concatenate([np.zeros(zeros), rng.normal(size=n)]))
    first = 2 * max_order + h - 1
    last = series.n - h
    start_h = data.draw(st.integers(first, last - 1))
    start_one = data.draw(st.integers(start_h + 1, last))
    monkeypatch.setattr(arselect.ape, "_probe",
                        lambda table, hh, k: start_one if hh == 1 else start_h)
    orders = list(range(1, max_order + 1))
    got = outcome(lambda: engine_audit(select_predictor(series, h, max_order)))
    want = outcome(lambda: per_candidate_audit(series, h, orders, start_one,
                                               start_h, lambda k, first: True))
    assert got == want
