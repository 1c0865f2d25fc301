"""The package's bracketed root against scipy's brentq, float for float."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from sharp_rosenthal.roots import _brent


def cubic(rng):
    root, a, b = rng.uniform(-2.0, 2.0), rng.normal(), rng.normal()
    # products and quotients of f values under- and overflow at the outer scales
    scale = float(rng.choice([1e-200, 1.0, 1e200]))

    def f(x):
        return scale * (x - root) * (x * x + a * x + b * b + 1.0)

    return f, root - rng.uniform(0.01, 3.0), root + rng.uniform(0.01, 3.0)


def exponential(rng):
    s, root = rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0)

    def f(x):
        return math.exp(s * x) - math.exp(s * root)

    return f, root - rng.uniform(0.1, 5.0), root + rng.uniform(0.1, 5.0)


def tanh(rng):
    s, root = rng.uniform(0.1, 30.0), rng.uniform(-3.0, 3.0)

    def f(x):
        return math.tanh(s * (x - root))

    return f, root - rng.uniform(0.1, 50.0), root + rng.uniform(0.1, 50.0)


def accompanying(rng):
    # psi(pi) - lam of ``verify.solve_accompanying`` on its bracket [0, 1/2]
    p, n = rng.uniform(2.2, 8.0), 2 ** int(rng.integers(3, 22))
    lam = n * 10.0 ** rng.uniform(-6.0, -1e-3)

    def f(pi):
        h = (1.0 - pi) ** (p - 1.0) + pi ** (p - 1.0)
        return n * pi * (1.0 - pi) * h ** (-2.0 / (p - 2.0)) - lam

    return f, 0.0, 0.5


@pytest.mark.parametrize("family", [cubic, exponential, tanh, accompanying])
@pytest.mark.parametrize("xtol", [2e-12, 1e-300])
def test_matches_brentq_bit_for_bit(family, xtol):
    rng = np.random.default_rng(29)
    for _ in range(100):
        f, a, b = family(rng)
        assert _brent(f, a, b, xtol=xtol) == brentq(f, a, b, xtol=xtol), (a, b)


def test_default_tolerances_are_brentq_defaults():
    f, a, b = exponential(np.random.default_rng(1))
    assert _brent(f, a, b) == brentq(f, a, b)


def test_endpoint_root_and_sign_error():
    assert _brent(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    assert _brent(lambda x: x - 3.0, 1.0, 3.0) == 3.0
    with pytest.raises(ValueError):
        _brent(lambda x: x * x + 1.0, -1.0, 1.0)
