"""Shared helpers and fixtures for the test suite."""
import math
from fractions import Fraction

import numpy as np
import pytest

from arselect import ArModel

# The four AR(2) test models used throughout the benchmark experiments.
TEST_MODELS = ((0.9, -0.81), (0.8, -0.64), (0.6, -0.36), (0.5, -0.25))

# An order-6 model with cond(Gamma_6) = 7.6e6: draw 602 of
# random_stationary_model(default_rng(5), max_order=6).
ILL_CONDITIONED = ArModel((-3.3859141708765614, -4.424497166562761, -2.7694811234294567,
                           -0.865439984125271, -0.1595322532707696, -0.02677398486313993),
                          0.5668842495369915)

# A double root at 0.99973: the model is accepted, and Gamma(k) fails its
# guard from k = 6 on (exit 3).
SINGULAR_GAMMA = (1.999464406779661, -0.9994644784946853)


def _coeffs_from_roots(rng, p, modulus):
    """Coefficients of an order-p model whose characteristic roots have
    moduli ``modulus()``: conjugate pairs (angles 0.1 to pi - 0.1) or real
    roots of either sign."""
    roots = []
    remaining = p
    while remaining > 0:
        if remaining >= 2 and rng.random() < 0.5:
            r = modulus()
            ang = rng.uniform(0.1, math.pi - 0.1)
            roots.append(r * complex(math.cos(ang), math.sin(ang)))
            roots.append(r * complex(math.cos(ang), -math.sin(ang)))
            remaining -= 2
        else:
            roots.append(modulus() * rng.choice([-1.0, 1.0]))
            remaining -= 1
    poly = np.array([1.0])
    for lam in roots:
        poly = np.convolve(poly, np.array([1.0, -lam]))
    return -np.real(poly[1:])


def random_stationary_model(rng, max_order=4, sigma2=None, order=None):
    """Draw a stationary AR model with characteristic roots well inside
    the unit disk (modulus 0.15 to 0.92), complex pairs allowed."""
    p = int(order if order is not None else rng.integers(1, max_order + 1))
    while True:
        coeffs = _coeffs_from_roots(rng, p, lambda: rng.uniform(0.15, 0.92))
        if abs(coeffs[-1]) > 1e-6:
            s2 = sigma2 if sigma2 is not None else float(rng.uniform(0.3, 3.0))
            return ArModel(tuple(coeffs), s2)


def near_unit_root_coeffs(rng, max_order=6):
    """Coefficients of order 1 to ``max_order`` whose characteristic roots
    lie next to the unit circle: each root's 1 - |r| is log-uniform in
    1e-12 .. 1e-1.  Rounding puts some of them outside the stationary
    region, so ``ArModel`` may reject them."""
    p = int(rng.integers(1, max_order + 1))
    return tuple(_coeffs_from_roots(rng, p, lambda: 1.0 - 10.0 ** rng.uniform(-12, -1)).tolist())


def exact_autocovariances(coeffs, sigma2, max_lag):
    """``[gamma_0, ..., gamma_max_lag]`` as Fractions: the (p + 1)-square
    Yule-Walker system of the float coefficients solved exactly, then the
    model recursion."""
    a = [Fraction(float(c)) for c in coeffs]
    p = len(a)
    rows = [[Fraction(0)] * (p + 1) + [Fraction(float(sigma2) if j == 0 else 0)]
            for j in range(p + 1)]
    for j in range(p + 1):  # gamma_j - sum_i a_i gamma_{|j-i|} = sigma2 [j = 0]
        rows[j][j] += 1
        for i in range(1, p + 1):
            rows[j][abs(j - i)] -= a[i - 1]
    for col in range(p + 1):  # Gauss-Jordan elimination
        pivot = next(r for r in range(col, p + 1) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(p + 1):
            if r != col and rows[r][col]:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    gamma = [rows[j][p + 1] / rows[j][j] for j in range(p + 1)]
    for j in range(p + 1, max_lag + 1):
        gamma.append(sum(a[i] * gamma[j - 1 - i] for i in range(p)))
    return gamma[: max_lag + 1]


def curve_model(a2, sigma2=1.0):
    """AR(2) model on the curve a1 = sqrt(-a2), where the two-lag
    contribution to the second MA weight cancels exactly."""
    return ArModel((math.sqrt(-a2), a2), sigma2)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
