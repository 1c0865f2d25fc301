"""Quadrature: a vectorized adaptive Gauss-Kronrod integrator for smooth
oscillatory integrands on finite intervals, which the contour engine uses,
and cached Gauss-Legendre rules on [0, 1].  Its panel rule is QUADPACK's
21-point Kronrod pair (dqk21), exact for polynomials of degree 31, with the
embedded 10-point Gauss rule, exact to degree 19, for the error estimate.
The Gauss-Legendre rules have no caller in the program; they stay for the
benchmark's tracer, which wraps and reads them, and for their tests."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureNotConverged

# 21-point Kronrod rule with embedded 10-point Gauss rule (QUADPACK dqk21;
# Piessens et al., QUADPACK, 1983): Kronrod nodes from the end inwards, the
# Gauss nodes being the 2nd, 4th, ..., 10th of them.
_XGK = np.array(
    [
        0.995657163025808080735527280689003,
        0.973906528517171720077964012084452,
        0.930157491355708226001207180059508,
        0.865063366688984510732096688423493,
        0.780817726586416897063717578345042,
        0.679409568299024406234327365114874,
        0.562757134668604683339000099272694,
        0.433395394129247190799265943165784,
        0.294392862701460198131126603103866,
        0.148874338981631210884826001129720,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077958109831074,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821,
    ]
)
_WG = np.array(
    [
        0.066671344308688137593568809893332,
        0.149451349150580593145776339657697,
        0.219086362515982043995534934228163,
        0.269266719309996355091226921569469,
        0.295524224714752870173892994651338,
    ]
)

# Full 21-node layout on [-1, 1]: negative nodes, 0, positive nodes.
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WEIGHTS_G = np.zeros(21)
_WEIGHTS_G[1:20:2] = np.concatenate([_WG, _WG[::-1]])

#: Panels :func:`adaptive_gauss_kronrod` may hold before it gives up.
_MAX_PANELS = 1 << 16

_EPS = float(np.finfo(float).eps)


def _legendre_with_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p_prev, p = np.ones_like(x), x.copy()
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, n * (x * p - p_prev) / ((x - 1.0) * (x + 1.0))


@lru_cache(maxsize=None)
def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1], cached per order.

    Newton's method on P_n for the nodes in [-1, 0], all at once, from
    Tricomi's asymptotic guesses; the rest follow by symmetry.  The weights
    are 2/((1 - x^2) P_n'(x)^2).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    theta = math.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5)
    x = -(1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(theta)
    for _ in range(10):
        p, dp = _legendre_with_derivative(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 1e-15:
            break
    p, dp = _legendre_with_derivative(n, x)
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    w = 2.0 / (one_minus_x2 * dp * dp)
    # x is the node rounded to float64; move w to the exact node x - p/dp
    # along d log w/dx = -2x/(1 - x^2), which matters next to the endpoints
    w *= 1.0 + 2.0 * x * (p / dp) / one_minus_x2
    nodes = np.concatenate([x, -x[: n // 2][::-1]])
    weights = np.concatenate([w, w[: n // 2][::-1]])
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _gk21(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod integrals of ``f`` over the panels [lo, hi] and their
    Kronrod-vs-Gauss error estimates, in one call of ``f``."""
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)
    vals = f((mid + half[:, None] * _NODES).ravel()).reshape(len(lo), _NODES.size)
    ik = (vals @ _WEIGHTS_K) * half
    ig = (vals @ _WEIGHTS_G) * half
    return ik, np.abs(ik - ig)


def adaptive_gauss_kronrod(f, a: float, b: float, atol: float) -> tuple[complex, float]:
    """Integrate a vectorized (possibly complex) integrand over [a, b].

    ``f`` must map an ndarray of points to an ndarray of values.  From 16
    equal panels, the worst quarter is bisected each round until the summed
    Kronrod-vs-Gauss error estimate drops below max(atol, 1e-13 |integral|)
    or the roundoff floor of the panels' L1 mass.  Returns (integral, error
    estimate); raises :class:`QuadratureNotConverged` at the panel budget.
    """
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    edges = np.linspace(a, b, 17)
    lo, hi = edges[:-1], edges[1:]
    ints, errs = _gk21(f, lo, hi)
    while True:
        total = complex(ints.sum())
        total_err = float(errs.sum())
        target = max(atol, 1e-13 * abs(total))
        # the L1 mass of the panels sets the roundoff floor for an
        # oscillatory integrand whose cancellation dwarfs the integral
        if total_err <= max(target, 50.0 * _EPS * np.abs(ints).sum()):
            return total, total_err
        if len(ints) >= _MAX_PANELS:
            raise QuadratureNotConverged(
                f"adaptive Gauss-Kronrod needs more than {_MAX_PANELS} panels "
                f"(error {total_err:.3e} vs target {target:.3e})"
            )
        # bisect the worst quarter; the halves follow the kept panels
        split = np.zeros(len(ints), dtype=bool)
        split[np.argsort(errs)[-(len(ints) // 4) :]] = True
        keep = ~split
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_ints, new_errs = _gk21(f, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        ints = np.concatenate([ints[keep], new_ints])
        errs = np.concatenate([errs[keep], new_errs])
