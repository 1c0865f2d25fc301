"""Gauss-Legendre rules against 30-digit mpmath references."""

import mpmath
import numpy as np
import pytest

from sharp_rosenthal.quadrature import gauss_legendre_01


def mp_legendre_node_weight(n: int, x0: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """The node of P_n next to ``x0`` and its weight on [-1, 1], at 30 digits.

    One Newton step from a float64 node leaves an error of order 1e-30.
    """

    def p_and_derivative(x):
        p_prev, p = mpmath.mpf(1), x
        for j in range(1, n):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        return p, n * (x * p - p_prev) / (x * x - 1)

    with mpmath.workdps(30):
        x = mpmath.mpf(x0)
        p, dp = p_and_derivative(x)
        x -= p / dp
        _, dp = p_and_derivative(x)
        return +x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("n", [32, 64, 128, 256, 512, 1024, 2048, 4096])
def test_weights_match_mpmath(n):
    s, w = gauss_legendre_01(n)
    # endpoints (where an eigen-solver's weights are least accurate), centre
    for i in (0, 1, 2, n // 4, n // 2 - 1, n // 2, n - 2, n - 1):
        x, weight = mp_legendre_node_weight(n, 2.0 * s[i] - 1.0)
        assert abs(2.0 * w[i] - weight) <= 1e-10 * weight
        assert abs(2.0 * s[i] - 1.0 - x) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 5, 32, 33, 4096])
def test_rule_shape_and_exactness(n):
    s, w = gauss_legendre_01(n)
    assert s.shape == w.shape == (n,)
    assert np.all(np.diff(s) > 0.0) and 0.0 < s[0] and s[-1] < 1.0
    np.testing.assert_allclose(s + s[::-1], 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(w, w[::-1], rtol=1e-14)
    # exact for polynomials of degree 2n - 1: int_0^1 s^k ds = 1/(k+1)
    for k in (0, 1, 2 * n - 1):
        assert float(w @ s**k) == pytest.approx(1.0 / (k + 1), rel=1e-13)
