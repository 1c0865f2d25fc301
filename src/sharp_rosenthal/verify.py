"""Brute-force falsification harness.

Exact moments of sums of discrete zero-mean random variables (by full
convolution) are checked against the exact bounds; the accompanying
compound-Poisson law must dominate every sum with a matching tails measure;
and the near-extremal triangular-array construction shows the bounds are
tight in the limit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.special import gammaln

from .bounds import BoundResult, LambdaC, exact_bound, solve_lambda_c
from .compound import MAX_NONZERO_ATOMS, CompoundLaw, cp_abs_moment
from .errors import InfeasibleMass, NewtonDiverged, SupportTooLarge, TailNotConverged
from .measures import (
    DiscreteRV,
    LevyVarianceMeasure,
    rv_abs_moment,
    rv_convolve,
    rv_mean,
    rv_second_moment,
)
from .poisson import DEFAULT_CONFIG, SeriesConfig

__all__ = [
    "RVSequence",
    "AccompanyingParams",
    "CaseReport",
    "sum_abs_moment",
    "check_rosenthal",
    "check_domination",
    "random_zero_mean_rv",
    "random_domination_sequence",
    "accompanying_measure",
    "solve_accompanying",
    "accompanying_sequence_moment",
]

#: Hard cap on the support of an exact convolution.
MAX_SUM_SUPPORT = 10**6

MEMBER_ZERO_MEAN_TOL = 1e-10


@dataclass(frozen=True)
class RVSequence:
    """A finite sequence of independent zero-mean discrete random variables."""

    members: Tuple[DiscreteRV, ...]

    def __init__(self, members: Sequence[DiscreteRV]):
        members = tuple(members)
        for i, m in enumerate(members):
            mu = rv_mean(m)
            if abs(mu) > MEMBER_ZERO_MEAN_TOL:
                from .errors import NotZeroMean

                raise NotZeroMean(f"member {i} has mean {mu}, exceeds {MEMBER_ZERO_MEAN_TOL}")
        object.__setattr__(self, "members", members)

    def sum_second_moment(self) -> float:
        return math.fsum(rv_second_moment(m) for m in self.members)

    def sum_p_moment(self, p: float) -> float:
        return math.fsum(rv_abs_moment(m, p) for m in self.members)

    def sum_law(self) -> DiscreteRV:
        law = DiscreteRV.delta(0.0)
        for m in self.members:
            law = rv_convolve(law, m)
            if len(law.atoms) > MAX_SUM_SUPPORT:
                raise SupportTooLarge(
                    f"convolution support {len(law.atoms)} exceeds {MAX_SUM_SUPPORT}"
                )
        return law


def sum_abs_moment(seq: RVSequence, q: float) -> float:
    """E|X_1 + ... + X_n|^q by exact convolution; 0 for the empty sequence."""
    if not q > 0.0:
        raise ValueError(f"q must be > 0, got {q}")
    return rv_abs_moment(seq.sum_law(), q)


@dataclass(frozen=True)
class CaseReport:
    """One verification case; serializes to the JSONL report schema."""

    case_id: str
    seed: int
    p: float
    q: float
    lhs: float
    rhs: float
    slack: float
    status: str  # pass | fail | skipped

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_rosenthal(
    seq: RVSequence,
    p: float,
    q: float,
    X: Optional[DiscreteRV] = None,
    cfg: SeriesConfig = DEFAULT_CONFIG,
    case_id: str = "",
    seed: int = 0,
) -> CaseReport:
    """E|X + S|^q against the exact bound at the sequence's own (A', B').

    Each fuzzed sequence feeds its own moment totals to the bound, which the
    supremum definition makes equivalent to targeting (A, B) exactly.
    """
    if X is None:
        X = DiscreteRV.delta(0.0)
    a_seq = seq.sum_p_moment(p)
    b_seq = seq.sum_second_moment()
    law = rv_convolve(X, seq.sum_law())
    lhs = rv_abs_moment(law, q)
    if a_seq <= 0.0 or b_seq <= 0.0:
        # all members degenerate at 0: the bound collapses to E|X|^q
        rhs = rv_abs_moment(X, q)
        budget = 64.0 * np.finfo(float).eps * max(1.0, rhs)
    else:
        result = exact_bound(p, q, a_seq, b_seq, X, cfg)
        rhs = result.value
        budget = result.error_budget
    slack = rhs - lhs
    status = "pass" if slack >= -budget else "fail"
    return CaseReport(case_id, seed, p, q, lhs, rhs, slack, status)


def accompanying_measure(seq: RVSequence) -> LevyVarianceMeasure:
    """The variance-weighted tails measure H(du) = u^2 * sum_i P(X_i = u).

    Zero-mean members make the plain tails measure G mean-zero, so the
    accompanying law with characteristic exponent int (e^{itx}-1) G(dx)
    coincides with Y_H for H(du) = u^2 G(du).
    """
    masses: dict[float, float] = {}
    for m in seq.members:
        for v, prob in m.atoms:
            if abs(v) > 1e-12:
                masses[v] = masses.get(v, 0.0) + prob
    return LevyVarianceMeasure([(u, u * u * g) for u, g in masses.items()])


def check_domination(
    seq: RVSequence,
    q: float,
    cfg: SeriesConfig = DEFAULT_CONFIG,
    case_id: str = "",
    seed: int = 0,
) -> CaseReport:
    """E|S|^q against the accompanying-law moment E|Y_H|^q, q >= 3.

    Skipped when the accompanying measure has more distinct nonzero
    locations than the series engine's desk-scale cap, MAX_NONZERO_ATOMS.
    """
    if not q >= 3.0:
        raise ValueError(f"domination check requires q >= 3, got {q}")
    lhs = sum_abs_moment(seq, q)
    levy = accompanying_measure(seq)
    if len(levy.nonzero_atoms()) > MAX_NONZERO_ATOMS:
        return CaseReport(case_id, seed, q, q, lhs, math.nan, math.nan, "skipped")
    rhs = cp_abs_moment(CompoundLaw.pure(levy), q, cfg)
    budget = cfg.tol + 4096.0 * np.finfo(float).eps * max(1.0, rhs)
    slack = rhs - lhs
    status = "pass" if slack >= -budget else "fail"
    return CaseReport(case_id, seed, q, q, lhs, rhs, slack, status)


def random_zero_mean_rv(seed: int, max_support: int = 4, value_range: float = 3.0) -> DiscreteRV:
    """A seeded random finitely supported law, re-centered to mean 0."""
    if max_support < 2:
        raise ValueError(f"max_support must be >= 2, got {max_support}")
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_support + 1))
    values = rng.uniform(-value_range, value_range, n)
    probs = rng.dirichlet(np.ones(n))
    mu = float(probs @ values)
    rv = DiscreteRV(zip(values - mu, probs))
    resid = rv_mean(rv)
    if abs(resid) > 1e-13:
        rv = DiscreteRV([(v - resid, p) for v, p in rv.atoms])
    return rv


def random_domination_sequence(seed: int, max_members: int = 4) -> RVSequence:
    """A seeded sequence of two-point zero-mean members over a shared 3-value
    pool, so the accompanying measure stays within the series engine's cap."""
    rng = np.random.default_rng(seed)
    neg = -float(rng.uniform(0.3, 3.0))
    pos = rng.uniform(0.3, 3.0, 2)
    k = int(rng.integers(1, max_members + 1))
    members = [
        DiscreteRV.two_point_zero_mean(neg, float(rng.choice(pos))) for _ in range(k)
    ]
    return RVSequence(members)


@dataclass(frozen=True)
class AccompanyingParams:
    """(kappa, gamma) scaling of the triangular-array member law at size n."""

    kappa: float
    gamma: float
    n: int

    def __post_init__(self):
        if not (self.kappa > 0.0 and self.gamma > 0.0):
            raise ValueError(f"kappa and gamma must be > 0, got {self.kappa}, {self.gamma}")


def _member_moments(
    kappa: float, gamma: float, n: int, xs: np.ndarray, gs: np.ndarray, orders: Sequence[float]
) -> list[float]:
    """n * E|W - EW|^r for the member law W: P(W = gamma*x) = kappa*g(x)/n."""
    g_tot = float(gs.sum())
    m_g = float(xs @ gs)
    e_w = kappa * gamma * m_g / n
    rest = 1.0 - kappa * g_tot / n
    out = []
    for r in orders:
        dev = np.abs(gamma * xs - e_w) ** r
        out.append(kappa * float(gs @ dev) + n * rest * abs(e_w) ** r)
    return out


def _member_moment_jacobian(
    kappa: float, gamma: float, n: int, xs: np.ndarray, gs: np.ndarray, orders: Sequence[float]
) -> np.ndarray:
    """Analytic d(n E|W - EW|^r)/d(kappa, gamma), one row per order r.

    Differentiates the discrete member law directly: with e = kappa*gamma*m/n,
    the deviations gamma*x - e move by -gamma*m/n per unit kappa and by
    x - kappa*m/n per unit gamma.
    """
    g_tot = float(gs.sum())
    m_g = float(xs @ gs)
    e_w = kappa * gamma * m_g / n
    rest = 1.0 - kappa * g_tot / n
    de_dk = gamma * m_g / n
    de_dg = kappa * m_g / n
    dev = gamma * xs - e_w
    sgn_e = math.copysign(1.0, e_w) if e_w != 0.0 else 0.0
    jac = np.empty((len(orders), 2))
    for i, r in enumerate(orders):
        abs_r = np.abs(dev) ** r
        abs_r1_sgn = r * np.abs(dev) ** (r - 1.0) * np.sign(dev)
        e_r1 = r * abs(e_w) ** (r - 1.0) * sgn_e if e_w != 0.0 else 0.0
        jac[i, 0] = (
            float(gs @ abs_r)
            - kappa * de_dk * float(gs @ abs_r1_sgn)
            - g_tot * abs(e_w) ** r
            + n * rest * e_r1 * de_dk
        )
        jac[i, 1] = kappa * float(gs @ (abs_r1_sgn * (xs - kappa * m_g / n)))
        jac[i, 1] += n * rest * e_r1 * de_dg
    return jac


def solve_accompanying(
    G: LevyVarianceMeasure, n: int, p: float, A: float, B: float
) -> AccompanyingParams:
    """Solve n E|Z_1|^2 = B and n E|Z_1|^p = A for (kappa, gamma).

    Z_1 = W - EW with P(W = gamma*x) = (kappa/n) G({x}); a damped 2-d Newton
    iteration from (1, 1) with the Jacobian assembled from the discrete law
    directly.  Needs (kappa/n) G(R) <= 1 at the solution.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    xs = G.locations
    gs = G.weights
    if xs.size == 0:
        raise ValueError("G must have at least one atom")
    g_tot = float(gs.sum())

    def feasible(kappa: float, gamma: float) -> bool:
        return kappa > 0.0 and gamma > 0.0 and kappa * g_tot / n <= 1.0

    if g_tot / n > 1.0 + 1e-12:
        # kappa would have to shrink far below 1; the construction below
        # still tries, but flag clearly impossible sizes early
        if g_tot / n > 4.0:
            raise InfeasibleMass(f"G(R)/n = {g_tot / n} far exceeds 1; increase n")
    kappa, gamma = 1.0, 1.0
    if not feasible(kappa, gamma):
        kappa = 0.9 * n / g_tot
    target = np.array([B, A])
    for _ in range(80):
        f = np.array(_member_moments(kappa, gamma, n, xs, gs, (2.0, p)))
        resid = f - target
        if abs(resid[0]) <= 1e-12 * B and abs(resid[1]) <= 1e-12 * A:
            if not feasible(kappa, gamma):
                raise InfeasibleMass(f"solution needs kappa*G(R)/n = {kappa * g_tot / n} > 1")
            return AccompanyingParams(kappa, gamma, n)
        jac = _member_moment_jacobian(kappa, gamma, n, xs, gs, (2.0, p))
        try:
            step = np.linalg.solve(jac, resid)
        except np.linalg.LinAlgError:
            # stationary point of the parametrization (seen at n=2, kappa=1);
            # nudge off it and keep iterating
            kappa *= 0.95
            gamma *= 1.02
            continue
        scale = 1.0
        for _ in range(50):
            cand = (kappa - scale * step[0], gamma - scale * step[1])
            if feasible(*cand):
                break
            scale *= 0.5
        else:
            raise InfeasibleMass(
                f"cannot keep kappa*G(R)/n <= 1 while stepping at n={n}"
            )
        kappa, gamma = kappa - scale * step[0], gamma - scale * step[1]
    raise NewtonDiverged(f"no convergence in 80 iterations for n={n}, p={p}, A={A}, B={B}")


def accompanying_sequence_moment(
    p: float, A: float, B: float, n: int, cfg: SeriesConfig = DEFAULT_CONFIG
) -> float:
    """E|S_n|^p for the near-extremal array at size n, by exact binomial sum.

    With G = lam*delta_c the array sum is S_n = gamma*c*(K - kappa*lam) for
    K ~ Binomial(n, kappa*lam/n); the values climb to the exact bound
    c^p E|Pi_lam - lam|^p as n grows.
    """
    if n > 1 << 21:
        raise TailNotConverged(f"binomial summation capped at n = 2^21, got {n}")
    lc = solve_lambda_c(p, A, B)
    params = solve_accompanying(LevyVarianceMeasure([(lc.c, lc.lam)]), n, p, A, B)
    pi = params.kappa * lc.lam / n
    if not 0.0 < pi < 1.0:
        raise InfeasibleMass(f"binomial probability {pi} outside (0, 1)")
    ks = np.arange(0, n + 1, dtype=float)
    log_pmf = (
        gammaln(n + 1.0)
        - gammaln(ks + 1.0)
        - gammaln(n - ks + 1.0)
        + ks * math.log(pi)
        + (n - ks) * math.log1p(-pi)
    )
    values = np.abs(params.gamma * lc.c * (ks - n * pi)) ** p
    return float(np.exp(log_pmf) @ values)
