"""Shared helpers and fixtures for the test suite."""
import math

import numpy as np
import pytest

from arselect import ArModel
from arselect.estimation import _unpack

# The four AR(2) test models used throughout the benchmark experiments.
TEST_MODELS = ((0.9, -0.81), (0.8, -0.64), (0.6, -0.36), (0.5, -0.25))


def random_stationary_model(rng, max_order=4, sigma2=None, order=None):
    """Draw a stationary AR model with characteristic roots well inside
    the unit disk (modulus 0.15 to 0.92), complex pairs allowed."""
    p = int(order if order is not None else rng.integers(1, max_order + 1))
    while True:
        roots = []
        remaining = p
        while remaining > 0:
            if remaining >= 2 and rng.random() < 0.5:
                r = rng.uniform(0.15, 0.92)
                ang = rng.uniform(0.1, math.pi - 0.1)
                roots.append(r * complex(math.cos(ang), math.sin(ang)))
                roots.append(r * complex(math.cos(ang), -math.sin(ang)))
                remaining -= 2
            else:
                roots.append(rng.uniform(0.15, 0.92) * rng.choice([-1.0, 1.0]))
                remaining -= 1
        poly = np.array([1.0])
        for lam in roots:
            poly = np.convolve(poly, np.array([1.0, -lam]))
        coeffs = -np.real(poly[1:])
        if abs(coeffs[-1]) > 1e-6:
            s2 = sigma2 if sigma2 is not None else float(rng.uniform(0.3, 3.0))
            return ArModel(tuple(coeffs), s2)


def moment_matrices(table, offsets, j0, uppers):
    """(T, m, m) moment-sum matrices of ``offsets`` for windows j0..u, one per
    upper u, unpacked from the table's packed ``moment_rows``."""
    packed = np.empty((len(offsets) * (len(offsets) + 1) // 2, len(uppers)))
    table.moment_rows(offsets, j0, uppers, packed)
    return _unpack(packed, range(len(offsets)))


def curve_model(a2, sigma2=1.0):
    """AR(2) model on the curve a1 = sqrt(-a2), where the two-lag
    contribution to the second MA weight cancels exactly."""
    return ArModel((math.sqrt(-a2), a2), sigma2)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
