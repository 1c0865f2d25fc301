"""Exact Rosenthal-type bound formulas, the (lambda, c) certificate solver,
best constants, and numerical scans over the two-atom family.

Supported regimes:

* p >= q >= 5, E X = 0: the bound is max over the sign choice of
  E|X +- c (Pi_lam - lam)|^q with c^2 lam = B and c^p lam = A.
* 2 < p <= 3, q = p (no centering needed): the bound is
  A + E|X + sqrt(B) Z|^p.
* even p >= 4 with X = 0: the closed form c^p E|Pi_lam - lam|^p via the
  cumulant recursion.

The ranges p in (3, 4) and (4, 5), and q < 5 when p >= 5, are open problems
and are rejected with :class:`UnsupportedExponents`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

# the series is called as compound.cp_abs_moment_series, where perfbench's tracer wraps it
from . import compound
from .compound import CompoundLaw
from .errors import BoundExceeded, SingularSystem, TailNotConverged, UnsupportedExponents
from .measures import (
    ATOM_MERGE_TOL,
    ZERO_MEAN_TOL,
    DiscreteRV,
    LevyVarianceMeasure,
    require_zero_mean,
)
from .poisson import DEFAULT_CONFIG, SeriesConfig, poisson_central_moment_even

# Not called here: the benchmark's tracer wraps bounds.skellam_abs_moment_about by name.
from .poisson import skellam_abs_moment_about  # noqa: F401

__all__ = [
    "LambdaC",
    "BoundResult",
    "QPoint",
    "QScanResult",
    "ScanCell",
    "LimitEntry",
    "LimitCompoundResult",
    "solve_lambda_c",
    "exact_bound",
    "even_p_bound",
    "symmetric_bound",
    "combined_bound",
    "best_constant",
    "classical_rosenthal_constant",
    "q_point_from_c",
    "q_scan",
    "limit_compound",
    "require_zero_mean",
    "ZERO_MEAN_TOL",
]

REGIME_P_GE_5 = "p_ge_5"
REGIME_P_IN_2_3 = "p_in_2_3"
REGIME_SYMMETRIC = "symmetric"
REGIME_COMBINED = "combined"
REGIME_EVEN_P = "even_p_closed_form"


@dataclass(frozen=True)
class LambdaC:
    """The unique (lambda, c) with c^2 lambda = B and c^p lambda = A."""

    lam: float
    c: float


@dataclass(frozen=True)
class BoundResult:
    """A bound value with its regime tag, certificate, and error budget.

    ``achieved_sign`` records which of the +-c extremal laws attains the
    maximum; ``both`` when the two values agree within the error budget
    (always the case for symmetric X).
    """

    value: float
    regime: str
    certificate: LambdaC | Tuple[LambdaC, LambdaC]
    achieved_sign: str
    error_budget: float


def _budget(value: float, cfg: SeriesConfig, n_series: int = 1) -> float:
    """Aggregate series tolerances and rounding.

    The rounding term charges one ulp per grid point at a fixed count of
    4096, so fuzz-test slacks have a principled floor.  A dot product over
    n points can round by up to about n*eps relative, so the term bounds
    the worst case only on grids of at most 4096 points.  Since its +-c0
    pair composes as one lattice, most combined_bound grids lie under that
    count: 62 of the 64 in 16 rounds of perfbench's bounds workload at
    seed 1, with medians of 735 points (X = 0) and 2 109 (with X).  As full
    products all 64 lay above it.
    """
    eps = float(np.finfo(float).eps)
    return n_series * cfg.tol + 4096.0 * eps * max(1.0, abs(value))


def solve_lambda_c(p: float, A: float, B: float) -> LambdaC:
    """lambda = (B^{p/2}/A)^{2/(p-2)} and c = (A/B)^{1/(p-2)}.

    The unique positive solution of c^2 lambda = B, c^p lambda = A; the
    back-substitution residuals are verified below 1e-10 relative.
    """
    if not p > 2.0:
        raise ValueError(f"p must be > 2, got {p}")
    if not (A > 0.0 and B > 0.0):
        raise ValueError(f"A and B must be > 0, got A={A}, B={B}")
    try:
        lam = (B ** (p / 2.0) / A) ** (2.0 / (p - 2.0))
        c = (A / B) ** (1.0 / (p - 2.0))
        c_p = c**p
    except OverflowError:  # float ** raises where * and / return inf
        lam = c = c_p = math.inf
    if not (math.isfinite(lam) and math.isfinite(c)):
        raise ValueError(f"(lambda, c) overflowed for p={p}, A={A}, B={B}")
    if abs(c * c * lam - B) > 1e-10 * B or abs(c_p * lam - A) > 1e-10 * A:
        raise ValueError(f"(lambda, c) residuals too large for p={p}, A={A}, B={B}")
    return LambdaC(lam, c)


def _extremal(
    regime: str,
    certificate: LambdaC | Tuple[LambdaC, LambdaC],
    measures: Sequence[Sequence[Tuple[float, float]]],
    X: DiscreteRV,
    q: float,
    cfg: SeriesConfig,
) -> BoundResult:
    """The largest E|X + Y_H|^q over the extremal Levy measures H, each given
    as its (location, weight) atoms, one series per measure.

    With two measures, ``achieved_sign`` is "plus" when the first attains the
    maximum and "minus" when the second does, unless the two agree within
    the error budget; one measure is always "both".
    """
    values = [
        compound.cp_abs_moment_series(CompoundLaw(0.0, X, LevyVarianceMeasure(atoms)), q, cfg)
        for atoms in measures
    ]
    value = max(values)
    budget = _budget(value, cfg, n_series=len(measures))
    sign = "both"
    if len(values) == 2 and abs(values[0] - values[1]) > budget:
        sign = "plus" if values[0] > values[1] else "minus"
    return BoundResult(value, regime, certificate, sign, budget)


def exact_bound(
    p: float,
    q: float,
    A: float,
    B: float,
    X: Optional[DiscreteRV] = None,
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> BoundResult:
    """The exact supremum of E|X + S|^q over independent zero-mean summand
    sequences with sum E X_i^2 <= B and sum E|X_i|^p <= A.

    Regimes: p >= q >= 5 (max over the +-c centered-Poisson laws; X must be
    zero-mean) and 2 < p <= 3 with q = p (Gaussian limit A + E|X+sqrt(B)Z|^p;
    centering not required).  Everything else raises UnsupportedExponents.
    """
    if X is None:
        X = DiscreteRV.delta(0.0)
    if not (A > 0.0 and B > 0.0):
        raise ValueError(f"A and B must be > 0, got A={A}, B={B}")
    if p >= 5.0 and 5.0 <= q <= p:
        require_zero_mean(X)
        lc = solve_lambda_c(p, A, B)
        return _extremal(REGIME_P_GE_5, lc, [[(lc.c, B)], [(-lc.c, B)]], X, q, cfg)
    if 2.0 < p <= 3.0:
        if q != p:
            raise UnsupportedExponents(
                f"for p in (2, 3] only q = p is supported, got q={q}, p={p}"
            )
        law = CompoundLaw(0.0, X, LevyVarianceMeasure([(0.0, B)]))
        value = A + compound.cp_abs_moment_series(law, p, cfg)
        budget = _budget(value, cfg, n_series=1)
        return BoundResult(value, REGIME_P_IN_2_3, solve_lambda_c(p, A, B), "both", budget)
    if p > 3.0 and p < 5.0:
        raise UnsupportedExponents(
            f"p={p} lies in the open ranges (3,4) and (4,5); "
            "use even_p_bound for p = 4 with X = 0"
        )
    if p >= 5.0:
        raise UnsupportedExponents(f"q={q} outside [5, p] is an open case for p={p}")
    raise UnsupportedExponents(f"p={p} must exceed 2")


def even_p_bound(p: int, A: float, B: float) -> BoundResult:
    """c^p E|Pi_lam - lam|^p for even p >= 4: exact via the cumulant recursion."""
    if p != int(p) or int(p) < 4 or int(p) % 2 != 0:
        raise ValueError(f"p must be an even integer >= 4, got {p}")
    p = int(p)
    lc = solve_lambda_c(float(p), A, B)
    value = lc.c**p * poisson_central_moment_even(lc.lam, p)
    eps = float(np.finfo(float).eps)
    budget = 8.0 * p * eps * max(1.0, value)
    return BoundResult(value, REGIME_EVEN_P, lc, "both", budget)


def symmetric_bound(
    p: float,
    q: float,
    A: float,
    B: float,
    X: Optional[DiscreteRV] = None,
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> BoundResult:
    """Exact supremum over *symmetric* summand sequences, p >= q >= 5.

    The extremal law is the scaled Skellam difference
    c (Pi_{lam/2} - Pi'_{lam/2}), the compound law of the Levy measure
    (B/2) delta_c + (B/2) delta_{-c}; with X as its background, one certified
    series grid covers the whole moment.  The two counts enter only through
    their difference, so the grid is X times one lattice c d, not X times
    the product of the two windows.
    """
    if X is None:
        X = DiscreteRV.delta(0.0)
    if not (p >= q >= 5.0):
        raise UnsupportedExponents(f"symmetric bound needs p >= q >= 5, got p={p}, q={q}")
    require_zero_mean(X)
    lc = solve_lambda_c(p, A, B)
    return _extremal(REGIME_SYMMETRIC, lc, [[(lc.c, B / 2.0), (-lc.c, B / 2.0)]], X, q, cfg)


def combined_bound(
    p: float,
    q: float,
    A0: float,
    B0: float,
    A1: float,
    B1: float,
    X: Optional[DiscreteRV] = None,
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> BoundResult:
    """Exact supremum when one block of summands is symmetric, p >= q >= 5.

    max over the sign of E|X + c0 Pi_{lam0/2} - c0 Pi'_{lam0/2} +- c1
    (Pi_lam1 - lam1)|^q, a three-atom compound law per sign.  Its grid is
    X times the lattice c0 d of the Skellam part times the c1 atom's window.
    When c1 = c0 the measure merges the c1 atom into the one at +-c0, and
    the lattice is that of two counts of unequal intensity.  A c1 within the
    measure's merge tolerance of c0 is placed at c0, so that both signs
    merge it into the pair rather than one sign keeping the smaller of the
    two locations; the certificate keeps c1 as solved.
    """
    if X is None:
        X = DiscreteRV.delta(0.0)
    if not (p >= q >= 5.0):
        raise UnsupportedExponents(f"combined bound needs p >= q >= 5, got p={p}, q={q}")
    require_zero_mean(X)
    lc0 = solve_lambda_c(p, A0, B0)
    lc1 = solve_lambda_c(p, A1, B1)
    c1 = lc0.c if abs(lc1.c - lc0.c) <= ATOM_MERGE_TOL else lc1.c
    symmetric = [(lc0.c, B0 / 2.0), (-lc0.c, B0 / 2.0)]
    measures = [symmetric + [(c1, B1)], symmetric + [(-c1, B1)]]
    return _extremal(REGIME_COMBINED, (lc0, lc1), measures, X, q, cfg)


def classical_rosenthal_constant(p: float) -> float:
    """(p/2)^{p/2} 2^{p + p^2/4}, the classical constant in
    E|S|^p <= C_p max(A, B^{p/2})."""
    if not p > 2.0:
        raise ValueError(f"p must be > 2, got {p}")
    return (p / 2.0) ** (p / 2.0) * 2.0 ** (p + p * p / 4.0)


def best_constant(p: float, gamma: float, cfg: SeriesConfig = DEFAULT_CONFIG) -> float:
    """The best constant C_{p;gamma} in the balanced bound
    E|S|^p <= C_{p;gamma} max(gamma A, B^{p/2}); equals the exact bound at
    (A, B) = (1/gamma, 1)."""
    if not gamma > 0.0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if p == int(p) and int(p) >= 4 and int(p) % 2 == 0:
        return even_p_bound(int(p), 1.0 / gamma, 1.0).value
    return exact_bound(p, p, 1.0 / gamma, 1.0, cfg=cfg).value


@dataclass(frozen=True)
class QPoint:
    """A member (c1, c2, lambda1, lambda2) of the two-atom constraint family."""

    c1: float
    c2: float
    lambda1: float
    lambda2: float

    def weights(self) -> tuple[float, float]:
        return self.c1 * self.c1 * self.lambda1, self.c2 * self.c2 * self.lambda2


def q_point_from_c(p: float, A: float, B: float, c1: float, c2: float) -> Optional[QPoint]:
    """Solve the 2x2 system w1 + w2 = B, a1 w1 + a2 w2 = A, ai = |ci|^{p-2}.

    A/B = c^{p-2}, with c from :func:`solve_lambda_c`, must be a convex
    combination of a1 and a2, so the cell is feasible exactly when
    min |ci| <= c <= max |ci|, and None is returned otherwise.  Each weight
    comes from its own formula, wi = (aj B - A)/(aj - ai), which cannot
    cancel against the other; at |ci| = c atom i carries all of B, and a
    rounding-level negative weight is 0.  Raises :class:`SingularSystem`
    when |c1| = |c2| or a scale is zero.
    """
    return _q_point(p, A, B, solve_lambda_c(p, A, B).c, c1, c2)


def _q_point(p: float, A: float, B: float, c: float, c1: float, c2: float) -> Optional[QPoint]:
    """:func:`q_point_from_c` with c = (A/B)^{1/(p-2)} already solved."""
    if c1 == 0.0 or c2 == 0.0:
        raise SingularSystem(f"c1 and c2 must be nonzero, got c1={c1}, c2={c2}")
    a1 = abs(c1) ** (p - 2.0)
    a2 = abs(c2) ** (p - 2.0)
    if abs(a1 - a2) <= 1e-14 * max(a1, a2):
        raise SingularSystem(f"|c1|^(p-2) = |c2|^(p-2) is singular: c1={c1}, c2={c2}")
    if not min(abs(c1), abs(c2)) <= c <= max(abs(c1), abs(c2)):
        return None
    if abs(c1) == c:
        w1, w2 = B, 0.0
    elif abs(c2) == c:
        w1, w2 = 0.0, B
    else:
        w1 = max((a2 * B - A) / (a2 - a1), 0.0)
        w2 = max((a1 * B - A) / (a1 - a2), 0.0)
    return QPoint(c1, c2, w1 / (c1 * c1), w2 / (c2 * c2))


@dataclass(frozen=True, slots=True)
class ScanCell:
    c1: float
    c2: float
    lambda1: float
    lambda2: float
    value: float
    status: str  # evaluated | infeasible | singular | overflow


@dataclass(frozen=True)
class QScanResult:
    best_point: QPoint
    best_value: float
    reference_bound: float
    cells: Tuple[ScanCell, ...]

    def counts(self) -> dict:
        return dict(Counter(cell.status for cell in self.cells))


def scan_axis(c: float, n: int) -> np.ndarray:
    """Signed log-spaced magnitudes over [c/100, 100c] including +-c exactly."""
    m = max(2, n // 2)
    exponents = np.linspace(-2.0, 2.0, m)
    exponents[np.argmin(np.abs(exponents))] = 0.0
    mags = c * 10.0**exponents
    return np.sort(np.concatenate([-mags, mags]))


def _scan_pair(
    p: float,
    q: float,
    A: float,
    B: float,
    c: float,
    X: DiscreteRV,
    c1: float,
    c2: float,
    cfg: SeriesConfig,
) -> tuple:
    """(status, lambda1, lambda2, value at (c1, c2), value at (-c1, -c2)),
    with c = (A/B)^{1/(p-2)}.

    The weights read only |c1| and |c2|, and -(X + Y_{H^-}) has the law of
    -X + Y_H: one grid of Y_H, summed at the atoms of X and of -X, gives both.
    """
    try:
        point = _q_point(p, A, B, c, c1, c2)
    except SingularSystem:
        return "singular", math.nan, math.nan, math.nan, math.nan
    if point is None:
        return "infeasible", math.nan, math.nan, math.nan, math.nan
    w1, w2 = point.weights()
    pure = CompoundLaw.pure(LevyVarianceMeasure([(c1, w1), (c2, w2)]))
    xs = X.values
    try:
        evaluate = compound.ShiftedMomentEvaluator(pure, q, np.abs(xs).max(), cfg)
    except TailNotConverged:
        return "overflow", point.lambda1, point.lambda2, math.nan, math.nan
    # each row is summed alone, so one call gives what two would, bit for bit
    rows = evaluate(np.concatenate((xs, -xs))).reshape(2, -1)
    value, mirror = np.vecdot(rows, X.probs).tolist()
    return "evaluated", point.lambda1, point.lambda2, value, mirror


def q_scan(
    p: float,
    q: float,
    A: float,
    B: float,
    X: Optional[DiscreteRV] = None,
    grid: int = 20,
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> QScanResult:
    """Maximize E|X + c1 (Pi_lam1 - lam1) + c2 (Pi_lam2 - lam2)|^q over a
    log-spaced grid x grid of (c1, c2) in the two-atom constraint family.

    The lambda's are derived from the (A, B) constraints, never gridded.
    The cells come in classes of four with one grid each: (c1, c2) and
    (c2, c1) are the same law, and (-c1, -c2), on the grid as the axis is
    symmetric, comes from the same grid of Y_H (:func:`_scan_pair`).  Every
    evaluated cell is checked against the exact bound:
    exceeding it by more than 1e-8 relative raises :class:`BoundExceeded`.
    The best point lists its active atom first, so a one-atom law reports
    as an axis point; ties for the maximum resolve to the lexicographically
    smallest such (c1, c2).  ``grid`` must be an even integer >= 4.
    """
    if grid < 4 or grid % 2 != 0:
        raise ValueError(f"grid must be an even integer >= 4, got {grid}")
    if X is None:
        X = DiscreteRV.delta(0.0)
    reference = exact_bound(p, q, A, B, X, cfg)
    c = reference.certificate.c
    axis = scan_axis(c, grid).tolist()  # the cells share these float objects
    allow = reference.value + 1e-8 * max(1.0, reference.value) + reference.error_budget
    n = len(axis)
    cells: list = [None] * (n * n)
    # axis[n - 1 - k] is -axis[k], so i <= j with i + j <= n - 1 visits every class
    for i in range(n):
        for j in range(i, n - i):
            status, lam1, lam2, value, mirror = _scan_pair(p, q, A, B, c, X, axis[i], axis[j], cfg)
            for a, b, v in ((i, j, value), (n - 1 - i, n - 1 - j, mirror)):
                if status == "evaluated" and v > allow:
                    raise BoundExceeded(
                        f"scan value {v!r} at (c1={axis[a]}, c2={axis[b]}) exceeds "
                        f"exact bound {reference.value!r} beyond tolerance"
                    )
                cells[a * n + b] = ScanCell(axis[a], axis[b], lam1, lam2, v, status)
                cells[b * n + a] = ScanCell(axis[b], axis[a], lam2, lam1, v, status)
    # each cell's mirror is in the grid, so the cells whose first atom is active hold every law
    active_first = (
        c for c in cells if c.status == "evaluated" and (c.lambda1 > 0.0 or c.lambda2 == 0.0)
    )
    best = min(active_first, key=lambda c: (-c.value, c.c1, c.c2), default=None)
    if best is None:
        raise SingularSystem("no feasible grid cell; widen the grid")
    best_point = QPoint(best.c1, best.c2, best.lambda1, best.lambda2)
    return QScanResult(best_point, best.value, reference.value, tuple(cells))


@dataclass(frozen=True)
class LimitEntry:
    c2: float
    moment: float
    gap: float  # limit value minus the moment


@dataclass(frozen=True)
class LimitCompoundResult:
    limit_value: float
    entries: Tuple[LimitEntry, ...]
    gaps_decreasing: bool


def limit_compound(
    p: float,
    q: float,
    A: float,
    B: float,
    b: float,
    a: float,
    c2_sequence: Sequence[float],
    X: Optional[DiscreteRV] = None,
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> LimitCompoundResult:
    """Two-atom laws H = w1 delta_b + w2 delta_{c2} drifting to the
    one-atom-plus-constant limit a + E|X + Y_{B delta_b}|^q.

    Along the sequence w2 = a / |c2|^{q-2} and w1 = B - w2, so
    |c2|^{q-2} w2 = a is held exactly; the gaps to the limit should shrink
    as |c2| grows.
    """
    if X is None:
        X = DiscreteRV.delta(0.0)
    if not q > 2.0:
        raise ValueError(f"q must be > 2, got {q}")
    if not 0.0 <= a <= A:
        raise ValueError(f"a must lie in [0, A], got a={a}, A={A}")
    c = solve_lambda_c(p, A, B).c
    if abs(b) > c * (1.0 + 1e-12):
        raise ValueError(f"b must lie in [-c, c] with c={c}, got {b}")
    limit_law = CompoundLaw(0.0, X, LevyVarianceMeasure([(b, B)]))
    limit_value = a + compound.cp_abs_moment_series(limit_law, q, cfg)
    entries: list[LimitEntry] = []
    for c2 in c2_sequence:
        if c2 == 0.0:
            raise ValueError("c2 values must be nonzero")
        w2 = a / abs(c2) ** (q - 2.0)
        w1 = B - w2
        if w1 < 0.0:
            raise ValueError(f"w1 = B - a/|c2|^(q-2) is negative at c2={c2}")
        levy = LevyVarianceMeasure([(b, w1), (float(c2), w2)])
        moment = compound.cp_abs_moment_series(CompoundLaw(0.0, X, levy), q, cfg)
        entries.append(LimitEntry(float(c2), moment, limit_value - moment))
    gaps = [abs(e.gap) for e in entries]
    decreasing = all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
    return LimitCompoundResult(limit_value, tuple(entries), decreasing)
