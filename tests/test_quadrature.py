"""Gauss-Legendre rules and the Gauss-Kronrod panel rule against 30-digit
mpmath references, and the adaptive Gauss-Kronrod integrator against closed
forms."""

import math

import mpmath
import numpy as np
import pytest

from sharp_rosenthal.errors import QuadratureNotConverged
from sharp_rosenthal.quadrature import (
    _NODES,
    _WEIGHTS_G,
    _WEIGHTS_K,
    adaptive_gauss_kronrod,
    gauss_legendre_01,
)


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


class TestKronrodRule:
    """The 21-point Kronrod rule and its embedded 10-point Gauss rule."""

    def test_gauss_nodes_and_weights_match_mpmath(self):
        assert np.count_nonzero(_WEIGHTS_G) == 10
        for node, weight in zip(_NODES[1:20:2], _WEIGHTS_G[1:20:2]):
            x, w = mp_legendre_node_weight(10, node)
            assert abs(node - x) <= 1e-16
            assert abs(weight - w) <= 1e-16 * w

    @pytest.mark.parametrize("weights, degree", [(_WEIGHTS_K, 31), (_WEIGHTS_G, 19)])
    def test_polynomial_exactness(self, weights, degree):
        # int_{-1}^1 x^k dx = 2/(k+1) for even k, 0 for odd k
        for k in range(degree + 1):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(weights @ _NODES**k - exact) <= 1e-15, k
        # and no further: the next even degree is off
        assert abs(weights @ _NODES ** (degree + 1) - 2.0 / (degree + 2)) > 1e-12


class TestAdaptiveGaussKronrod:
    def test_polynomial(self):
        total, err = adaptive_gauss_kronrod(lambda x: x**12, -1.0, 1.0, 1e-15)
        assert total.real == pytest.approx(2.0 / 13.0, rel=1e-14, abs=0.0)
        assert total.imag == 0.0 and err <= 1e-14

    def test_oscillatory_complex(self):
        # int_{-30}^{30} e^{7ix} dx = 2 sin(210)/7, about 33 periods
        total, err = adaptive_gauss_kronrod(lambda x: np.exp(7j * x), -30.0, 30.0, 1e-13)
        assert abs(total.real - 2.0 * math.sin(210.0) / 7.0) <= 1e-12
        assert abs(total.imag) <= 1e-12
        assert err <= 1e-12

    def test_noise_reaches_panel_budget(self):
        # fresh noise at every point: bisection never shrinks the error estimate
        rng = np.random.default_rng(0)
        with pytest.raises(QuadratureNotConverged):
            adaptive_gauss_kronrod(lambda x: rng.standard_normal(x.shape), 0.0, 1.0, 1e-10)

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 0.0), (0.0, math.nan)])
    def test_empty_or_reversed_interval(self, a, b):
        with pytest.raises(ValueError):
            adaptive_gauss_kronrod(np.cos, a, b, 1e-12)

    def test_return_types(self):
        total, err = adaptive_gauss_kronrod(np.cos, 0.0, 1.0, 1e-12)
        assert type(total) is complex and type(err) is float
        assert total == pytest.approx(math.sin(1.0), rel=1e-14)
