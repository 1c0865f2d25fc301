"""Calculus of variations of moments with respect to Lévy-measure
perturbations, in closed form.

Adding mass d at location u to the Lévy variance measure H changes
E f(Y + Y_H) at rate d * E D_u f(Y + Y_H), where D_u is the normalized
first-order Taylor remainder

  D_u f(y) = int_0^1 (1-s) f''(y + s u) ds = (f(y+u) - f(y) - u f'(y))/u^2,
  D_0 f(y) = f''(y)/2.

For H_t = H + t*Delta with Delta = sum_j d_j delta_{u_j} (nonnegative on
[0, t_max]) the moment t -> E f(X + Y_{H_t}) therefore has right-hand
derivatives

  d/dt   = sum_j       d_j     E D_{u_j} f(X + Y_{H_t})            (q > 2)
  d2/dt2 = sum_{j,k}   d_j d_k E D_{u_j} D_{u_k} f(X + Y_{H_t})    (q > 4)

for f = |.|^q, (.)_+^q or (.)_-^q.  Expanding the operators leaves finite
sums sum_i c_i E f^(m_i)(x_i + X + Y_{H_t}) of shifted moments, which the
series engine computes exactly up to its certified truncation; no
quadrature is involved.  The positivity kernel h''(u a s) - u^{p-4} h''(a s),
with h = E f''(. + X + Y_H) for f = |.|^q, is strictly positive for
p >= q > 5; its double integral F (:func:`variational_F`), whose sign rules
out two atoms on one side of the origin in the extremal measure, integrates
in closed form to values of h and h'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

# the series is called as compound.cp_abs_moment_series, where perfbench's tracer wraps it
from . import compound
from .compound import CompoundLaw, _expect, _moment_grid, cp_part_moment_series
from .errors import ExponentTooSmall, InfeasiblePath
from .measures import DiscreteRV, LevyVarianceMeasure, SignedAtomMeasure, require_zero_mean
from .poisson import DEFAULT_CONFIG, SeriesConfig

# Not called here: the benchmark's tracer wraps variation.gauss_legendre_01 by name.
from .quadrature import gauss_legendre_01  # noqa: F401

__all__ = [
    "PerturbationPath",
    "first_variation",
    "second_variation",
    "positivity_kernel",
    "variational_F",
    "moment_along_path",
]


@dataclass(frozen=True)
class PerturbationPath:
    """H_t = base + t * direction, nonnegative for all t in [0, t_max]."""

    base: LevyVarianceMeasure
    direction: SignedAtomMeasure
    t_max: float

    def __post_init__(self):
        if not self.t_max > 0.0:
            raise ValueError(f"t_max must be > 0, got {self.t_max}")
        base_w = dict(self.base.atoms)
        for u, d in self.direction.atoms:
            end = base_w.get(u, 0.0) + self.t_max * d
            if end < -1e-15 * max(1.0, abs(d) * self.t_max):
                raise InfeasiblePath(
                    f"H + t*Delta becomes negative at location {u} for t={self.t_max}"
                )

    def measure_at(self, t: float) -> LevyVarianceMeasure:
        """The measure H + t*Delta; InfeasiblePath if it leaves the cone."""
        weights = dict(self.base.atoms)
        for u, d in self.direction.atoms:
            w = weights.get(u, 0.0) + t * d
            if w < -1e-12 * max(1.0, abs(t) * abs(d)):
                raise InfeasiblePath(f"negative weight {w} at location {u} for t={t}")
            weights[u] = max(w, 0.0)
        return LevyVarianceMeasure(weights.items())


def moment_along_path(
    path: PerturbationPath,
    q: float,
    X: DiscreteRV,
    t: float,
    cfg: SeriesConfig = DEFAULT_CONFIG,
    kind: str = "abs",
) -> float:
    """E f(X + Y_{H_t}) along the path for f of ``kind``; what the variations differentiate."""
    law = CompoundLaw(0.0, X, path.measure_at(t))
    if kind == "abs":
        return compound.cp_abs_moment_series(law, q, cfg)
    return cp_part_moment_series(law, q, kind, cfg)


def _direction_terms(direction: SignedAtomMeasure) -> list[tuple[float, int, float]]:
    """sum_j d_j D_{u_j} as terms (c, m, x) of sum c f^(m)(y + x)."""
    terms = []
    for u, d in direction.atoms:
        if u == 0.0:
            terms.append((0.5 * d, 2, 0.0))
        else:
            terms += [(d / (u * u), 0, u), (-d / (u * u), 0, 0.0), (-d / u, 1, 0.0)]
    return terms


def _sides(kind: str, m: int) -> list[tuple[str, float]]:
    """f^(m) / (q(q-1)...(q-m+1)) as signed ``_expect`` kinds at exponent q - m,
    for f of the kind "abs", "positive" or "negative": |.|^{q-m} (times sgn,
    i.e. positive - negative, for odd m), (.)_+^{q-m}, or (-1)^m (.)_-^{q-m}."""
    if kind == "abs":
        return [("abs", 1.0)] if m % 2 == 0 else [("positive", 1.0), ("negative", -1.0)]
    if kind == "positive":
        return [("positive", 1.0)]
    if kind == "negative":
        return [("negative", (-1.0) ** m)]
    raise ValueError(f"kind must be 'abs', 'positive' or 'negative', got {kind!r}")


def _derivative_sum(
    terms: list[tuple[float, int, float]],
    q: float,
    law: CompoundLaw,
    cfg: SeriesConfig,
    kind: str = "abs",
) -> float:
    """sum_i c_i E f^(m_i)(x_i + x0 + X + Y_H) for terms (c_i, m_i, x_i), with
    f = |.|^q, (.)_+^q or (.)_-^q as ``kind`` ("abs", "positive" or
    "negative") says.

    Terms with equal (m, x) are merged.  Every order and side is summed over
    one grid, certified for every shift |x| <= max_i |x_i| and for every
    exponent in [q - max m, q - min m].  One grid suffices: for a fixed
    window each certified tail bound is log-convex in the exponent, so
    certifying the two end exponents certifies all between
    (``compound._law_grid``).  Each moment is certified to
    cfg.tol / sum_i |c_i q(q-1)...(q-m_i+1)| (an odd-order absolute term
    counts once per side), so the truncation of the whole sum stays below
    cfg.tol.

    Rounding is not certified.  It is a few ulps of sum_i |c_i E_i|, which a
    direction atom at u != 0 makes of order (sd(Y)/|u|)^2 times the value,
    since its coefficients carry 1/u^2 and its value is of order E f''.
    Against a 30-digit mpmath quadrature of the integral form (first
    variations, q = 2.5 and 5, one base atom, a two-point X), u = 0.5 is
    within 1e-14 relative, u = 0.01 within 3.1e-12, u = 1e-3 within 1.2e-10
    and u = 1e-4 within 2.2e-8.  No caller, test or suite uses
    0 < |u| < 0.5.  Over 200 draws each of random_variation_case first and
    second variations and of criterion-9-like F, the ratio
    sum_i |c_i E_i| / max(1, |value|) had medians 4.1, 18 and 56 and a
    largest value of 1.4e3, a second variation that is still within 1.9e-13
    relative of the same sum in 40-digit arithmetic.  A gate at cfg.tol on
    that rounding would refuse such legitimate draws, so none is applied.
    """
    merged: dict[tuple[int, float], float] = {}
    for c, m, x in terms:
        merged[m, x] = merged.get((m, x), 0.0) + c
    orders: dict[int, list[tuple[float, float]]] = {}
    for (m, x), c in merged.items():
        if c != 0.0:
            orders.setdefault(m, []).append((c, x))
    falling = {m: math.prod(q - i for i in range(m)) for m in orders}
    scale = math.fsum(
        abs(c) * abs(falling[m]) * len(_sides(kind, m)) for m, cx in orders.items() for c, _ in cx
    )
    if scale == 0.0:
        return 0.0
    inner = SeriesConfig(tol=cfg.tol / scale, max_terms=cfg.max_terms)
    shift_bound = max(abs(x) for cx in orders.values() for _, x in cx)
    grid = _moment_grid(law, q - min(orders), inner, shift_bound, q - max(orders))
    parts = []
    for m, cx in orders.items():
        cs, xs = np.array(cx).T
        for part, sign in _sides(kind, m):
            moments = _expect(grid, q - m, part, xs)
            parts.extend((sign * falling[m] * cs * moments).tolist())
    return math.fsum(parts)


def first_variation(
    path: PerturbationPath,
    q: float,
    X: DiscreteRV,
    t: float = 0.0,
    cfg: SeriesConfig = DEFAULT_CONFIG,
    kind: str = "abs",
) -> float:
    """Right-hand derivative of E f(X + Y_{H_t}) in t, f = |.|^q / (.)_+^q / (.)_-^q."""
    if not q > 2.0:
        raise ExponentTooSmall(f"first variation requires q > 2, got {q}")
    if not 0.0 <= t < path.t_max:
        raise InfeasiblePath(f"t={t} outside [0, t_max={path.t_max})")
    terms = _direction_terms(path.direction)
    return _derivative_sum(terms, q, CompoundLaw(0.0, X, path.measure_at(t)), cfg, kind)


def second_variation(
    path: PerturbationPath,
    q: float,
    X: DiscreteRV,
    t: float = 0.0,
    cfg: SeriesConfig = DEFAULT_CONFIG,
    kind: str = "abs",
) -> float:
    """Second right-hand derivative of E f(X + Y_{H_t}) in t, for q > 4."""
    if not q > 4.0:
        raise ExponentTooSmall(f"second variation requires q > 4, got {q}")
    if not 0.0 <= t < path.t_max:
        raise InfeasiblePath(f"t={t} outside [0, t_max={path.t_max})")
    # sum_{j,k} d_j d_k D_{u_j} D_{u_k} is the square of the first-variation operator
    first = _direction_terms(path.direction)
    terms = [
        (c1 * c2, m1 + m2, x1 + x2) for (c1, m1, x1), (c2, m2, x2) in product(first, repeat=2)
    ]
    return _derivative_sum(terms, q, CompoundLaw(0.0, X, path.measure_at(t)), cfg, kind)


def positivity_kernel(
    u: float,
    alpha: float,
    s: float,
    p: float,
    q: float,
    X: DiscreteRV,
    H: LevyVarianceMeasure,
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> float:
    """h''(u*alpha*s) - u^{p-4} h''(alpha*s); strictly positive for p >= q > 5.

    Here h''(x) = q(q-1)(q-2)(q-3) E|x + X + Y_H|^{q-4}.  Requires u, alpha,
    s in (0, 1], a zero-mean X, and a nonzero H; the value is returned (not
    just its sign) so callers can assert positivity.
    """
    if not (p >= q > 5.0):
        raise ValueError(f"need p >= q > 5, got p={p}, q={q}")
    for name, val in (("u", u), ("alpha", alpha), ("s", s)):
        if not 0.0 < val <= 1.0:
            raise ValueError(f"{name} must be in (0, 1], got {val}")
    require_zero_mean(X)
    if not H.atoms:
        raise ValueError("H must be nonzero")
    grid = _moment_grid(CompoundLaw(0.0, X, H), q - 4.0, cfg, alpha * s)
    prefactor = q * (q - 1.0) * (q - 2.0) * (q - 3.0)
    m_small, m_big = _expect(grid, q - 4.0, "abs", np.array([u * alpha * s, alpha * s]))
    return float(prefactor * (m_small - u ** (p - 4.0) * m_big))


def variational_F(
    b: float,
    s: float,
    p: float,
    q: float,
    X: DiscreteRV,
    H: LevyVarianceMeasure,
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> float:
    """F = s^2 int_b^1 du int_0^1 da a [h''(u a s) - u^{p-4} h''(a s)].

    The marginal direction of moving mass from an interior atom toward the
    support edge; strictly positive for p >= q > 5.  With h = E f''(. + X + Y_H),
    f = |.|^q, the a-integral is int_0^1 a h''(c a) da = (c h'(c) - h(c) + h(0))/c^2,
    and the u-integral of the first term is [(h(u s) - h(0))/u]_b^1, so

      F = h(s) - h(0) - (h(b s) - h(0))/b - w (s h'(s) - h(s) + h(0)),

    with w = int_b^1 u^{p-4} du = (1 - b^{p-3})/(p - 3); at b = 0 the middle
    term is its limit s h'(0).
    """
    if not (p >= q > 5.0):
        raise ValueError(f"need p >= q > 5, got p={p}, q={q}")
    if not 0.0 <= b < 1.0:
        raise ValueError(f"b must be in [0, 1), got {b}")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must be in (0, 1], got {s}")
    require_zero_mean(X)
    w = (1.0 - b ** (p - 3.0)) / (p - 3.0)
    # h(x) is the order-2 term at x, h'(x) the order-3 term
    terms = [(1.0 + w, 2, s), (-1.0 - w, 2, 0.0), (-w * s, 3, s)]
    if b > 0.0:
        terms += [(-1.0 / b, 2, b * s), (1.0 / b, 2, 0.0)]
    else:
        terms.append((-s, 3, 0.0))
    return _derivative_sum(terms, q, CompoundLaw(0.0, X, H), cfg)
