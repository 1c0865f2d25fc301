"""Shared quadrature machinery: cached Gauss-Legendre rules on [0, 1] and a
vectorized adaptive Gauss-Kronrod integrator for smooth oscillatory
integrands on finite intervals."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureNotConverged

# 15-point Kronrod rule with embedded 7-point Gauss rule (QUADPACK dqk15).
_XGK = np.array(
    [
        0.9914553711208126,
        0.9491079123427585,
        0.8648644233597691,
        0.7415311855993944,
        0.5860872354676911,
        0.4058451513773972,
        0.2077849550078985,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.0229353220105292,
        0.0630920926299786,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
    ]
)
_WG = np.array(
    [
        0.1294849661688697,
        0.2797053914892767,
        0.3818300505051189,
        0.4179591836734694,
    ]
)

# Full 15-node layout on [-1, 1]: negative nodes, 0, positive nodes.
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])


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


def adaptive_gauss_kronrod(
    f,
    a: float,
    b: float,
    atol: float,
    rtol: float = 1e-13,
    initial_panels: int = 8,
    max_panels: int = 1 << 16,
) -> tuple[complex, float]:
    """Integrate a vectorized (possibly complex) integrand over [a, b].

    ``f`` must map an ndarray of points to an ndarray of values.  Panels are
    bisected worst-first until the summed Kronrod-vs-Gauss error estimate
    drops below max(atol, rtol * |integral|).  Returns (integral, error
    estimate); raises :class:`QuadratureNotConverged` at the panel budget.
    """
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    initial_panels = int(min(max(initial_panels, 1), max_panels // 2))
    edges = np.linspace(a, b, initial_panels + 1)
    lefts = list(edges[:-1])
    rights = list(edges[1:])

    def eval_panels(lo: np.ndarray, hi: np.ndarray):
        mid = 0.5 * (lo + hi)[:, None]
        half = 0.5 * (hi - lo)[:, None]
        pts = mid + half * _NODES[None, :]
        vals = f(pts.ravel()).reshape(pts.shape)
        ik = (vals * _WEIGHTS_K[None, :]).sum(axis=1) * half[:, 0]
        ig = (vals * _WEIGHTS_G[None, :]).sum(axis=1) * half[:, 0]
        return ik, np.abs(ik - ig)

    ints, errs = eval_panels(np.array(lefts), np.array(rights))
    ints = list(ints)
    errs = list(errs)
    eps = float(np.finfo(float).eps)
    while True:
        total = sum(ints)
        total_err = sum(errs)
        # the L1 mass of the panels sets the roundoff floor for an
        # oscillatory integrand whose cancellation dwarfs the integral
        floor = 50.0 * eps * sum(abs(v) for v in ints)
        if total_err <= max(atol, rtol * abs(total), floor):
            return total, float(total_err)
        if len(ints) >= max_panels:
            raise QuadratureNotConverged(
                f"adaptive GK15 needs more than {max_panels} panels "
                f"(error {total_err:.3e} vs target {max(atol, rtol * abs(total)):.3e})"
            )
        # bisect the worst quarter of panels in one vectorized pass
        order = np.argsort(errs)[::-1]
        n_split = max(1, len(order) // 4)
        split = sorted(order[:n_split].tolist(), reverse=True)
        lo = np.array([lefts[i] for i in split])
        hi = np.array([rights[i] for i in split])
        mid = 0.5 * (lo + hi)
        for i in split:
            del lefts[i], rights[i], ints[i], errs[i]
        new_lo = np.concatenate([lo, mid])
        new_hi = np.concatenate([mid, hi])
        new_ints, new_errs = eval_panels(new_lo, new_hi)
        lefts.extend(new_lo.tolist())
        rights.extend(new_hi.tolist())
        ints.extend(new_ints.tolist())
        errs.extend(new_errs.tolist())


