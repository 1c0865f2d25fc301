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
from typing import Sequence, Tuple

import numpy as np

from . import compound
from .bounds import _budget, exact_bound, solve_lambda_c
from .compound import MAX_NONZERO_ATOMS, CompoundLaw
from .errors import InfeasibleMass, NewtonDiverged, SupportTooLarge, TailNotConverged
from .measures import (
    DiscreteRV,
    LevyVarianceMeasure,
    require_zero_mean,
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


@dataclass(frozen=True)
class RVSequence:
    """A finite sequence of independent zero-mean discrete random variables."""

    members: Tuple[DiscreteRV, ...]

    def __init__(self, members: Sequence[DiscreteRV]):
        members = tuple(members)
        for i, m in enumerate(members):
            require_zero_mean(m, f"member {i}")
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
    cfg: SeriesConfig = DEFAULT_CONFIG,
    case_id: str = "",
    seed: int = 0,
) -> CaseReport:
    """E|S|^q against the exact bound at the sequence's own (A', B').

    Each fuzzed sequence feeds its own moment totals to the bound, which the
    supremum definition makes equivalent to targeting (A, B) exactly.
    """
    a_seq = seq.sum_p_moment(p)
    b_seq = seq.sum_second_moment()
    lhs = sum_abs_moment(seq, q)
    if a_seq <= 0.0 or b_seq <= 0.0:
        # all members degenerate at 0: the bound collapses to E|0|^q = 0
        rhs = 0.0
        budget = 64.0 * np.finfo(float).eps
    else:
        result = exact_bound(p, q, a_seq, b_seq, cfg=cfg)
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
    rhs = compound.cp_abs_moment_series(CompoundLaw.pure(levy), q, cfg)
    budget = _budget(rhs, cfg)
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
    """n * E|W - EW|^r for the member law W: P(W = gamma*x) = kappa*g(x)/n.

    Sums the discrete member law directly, independently of the reduction in
    ``solve_accompanying``: that solver's residual check and the tests'
    reference for the moments an array reproduces.
    """
    g_tot = float(gs.sum())
    m_g = float(xs @ gs)
    e_w = kappa * gamma * m_g / n
    rest = 1.0 - kappa * g_tot / n
    out = []
    for r in orders:
        dev = np.abs(gamma * xs - e_w) ** r
        out.append(kappa * float(gs @ dev) + n * rest * abs(e_w) ** r)
    return out


def solve_accompanying(
    G: LevyVarianceMeasure, n: int, p: float, A: float, B: float
) -> AccompanyingParams:
    """Solve n E|Z_1|^2 = B and n E|Z_1|^p = A for (kappa, gamma).

    Z_1 = W - EW with P(W = gamma*x) = (kappa/n) g for a one-atom G = g delta_x,
    so W is gamma*x times a Bernoulli(pi) with pi = kappa*g/n.  With
    h(pi) = (1-pi)^{p-1} + pi^{p-1} the constraints read

        n (gamma x)^2 pi(1-pi) = B,    n |gamma x|^p pi(1-pi) h(pi) = A,

    and eliminating gamma leaves one equation in pi,

        psi(pi) = n pi(1-pi) h(pi)^{-2/(p-2)} = lam,

    lam = (B^{p/2}/A)^{2/(p-2)} from ``solve_lambda_c``.  On (0, 1/2] both
    pi(1-pi) and h^{-1} increase, so psi rises from 0 to psi(1/2) = n: a
    solution exists iff lam <= n, and it is unique there.  (psi is symmetric
    about 1/2; the mirror root 1 - pi gives the same gamma and law of |Z_1|.)
    The root is bracketed on [0, 1/2]; kappa = n pi/g and
    gamma = sqrt(B/(n pi(1-pi)))/|x|, checked against (B, A) through
    ``_member_moments`` before they are returned.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if len(G.atoms) != 1 or G.atoms[0][0] == 0.0:
        raise ValueError(f"G must be one atom at a nonzero location, got {G.atoms}")
    [(x, g)] = G.atoms
    lam = solve_lambda_c(p, A, B).lam
    if lam > n:
        raise InfeasibleMass(f"lambda = {lam} exceeds n = {n}; needs kappa*g/n <= 1")

    # imported here: scipy.optimize adds about 0.3 s to the package's import
    from scipy.optimize import brentq

    def excess(pi: float) -> float:
        h = (1.0 - pi) ** (p - 1.0) + pi ** (p - 1.0)
        return n * pi * (1.0 - pi) * h ** (-2.0 / (p - 2.0)) - lam

    # psi(1/2) = n exactly, so excess(1/2) > 0 only by rounding near lam = n;
    # pi ~ lam/n can be tiny, so the stop is relative (rtol), not xtol
    pi = 0.5 if excess(0.5) <= 0.0 else brentq(excess, 0.0, 0.5, xtol=1e-300)
    kappa = n * pi / g
    gamma = math.sqrt(B / (n * pi * (1.0 - pi))) / abs(x)
    f2, fp = _member_moments(kappa, gamma, n, G.locations, G.weights, (2.0, p))
    if abs(f2 - B) > 1e-12 * B or abs(fp - A) > 1e-12 * A:
        raise NewtonDiverged(
            f"residuals ({f2 - B}, {fp - A}) exceed 1e-12 relative for n={n}, p={p}, A={A}, B={B}"
        )
    return AccompanyingParams(kappa, gamma, n)


def _products_until_underflow(factor, ks: range) -> np.ndarray:
    """The running products factor(k_1), factor(k_1) factor(k_2), ... over
    ``ks`` in order, multiplied one at a time as np.cumprod does, ending
    before the first that underflows to 0.  Blocks of 64, 128, ... factors
    keep the arrays near the products' length rather than len(ks)."""
    out, last, start, size = [], 1.0, 0, 64
    while start < len(ks):
        block = factor(np.asarray(ks[start : start + size], dtype=float))
        products = np.cumprod(np.concatenate(([last], block)))[1:]
        zeros = np.flatnonzero(products == 0.0)
        if zeros.size:
            out.append(products[: zeros[0]])
            break
        out.append(products)
        last, start, size = products[-1], start + size, 2 * size
    return np.concatenate(out) if out else np.empty(0)


def _binomial_weights(n: int, pi: float) -> tuple[int, np.ndarray]:
    """Binomial(n, pi) probabilities up to one common factor over the indices
    k = first, first + 1, ... whose weight does not underflow; returns
    (first, weights).

    The ratios pmf(k+1)/pmf(k) = (n-k)/(k+1) * pi/(1-pi) are multiplied out
    from the mode, whose weight is 1, so a weight |k - mode| steps out
    carries about that many roundings.  Log-factorials from gammaln would
    instead carry an absolute error near n log(n) eps in every exponent.
    """
    mode = min(int((n + 1) * pi), n)
    odds = pi / (1.0 - pi)
    up = _products_until_underflow(lambda k: (n - k) / (k + 1.0) * odds, range(mode, n))
    down = _products_until_underflow(lambda k: k / (n - k + 1.0) / odds, range(mode, 0, -1))
    return mode - down.size, np.concatenate((down[::-1], [1.0], up))


def _accompanying_array(p: float, A: float, B: float, n: int):
    """(solve_lambda_c's (lam, c), the array's parameters, E|S_n|^p) at size n.

    With G = lam*delta_c the array sum is S_n = gamma*c*(K - kappa*lam) for
    K ~ Binomial(n, kappa*lam/n).  The moment is the exact binomial sum over
    the weights that do not underflow, each sum taken with fsum.
    """
    if n > 1 << 21:
        raise TailNotConverged(f"binomial summation capped at n = 2^21, got {n}")
    lc = solve_lambda_c(p, A, B)
    params = solve_accompanying(LevyVarianceMeasure([(lc.c, lc.lam)]), n, p, A, B)
    pi = params.kappa * lc.lam / n
    first, weights = _binomial_weights(n, pi)
    ks = np.arange(first, first + weights.size, dtype=float)
    values = np.abs(params.gamma * lc.c * (ks - n * pi)) ** p
    moment = math.fsum((weights * values).tolist()) / math.fsum(weights.tolist())
    return lc, params, moment


def accompanying_sequence_moment(p: float, A: float, B: float, n: int) -> float:
    """E|S_n|^p for the near-extremal array at size n, by exact binomial sum.

    With G = lam*delta_c the array sum is S_n = gamma*c*(K - kappa*lam) for
    K ~ Binomial(n, kappa*lam/n); the values climb to the exact bound
    c^p E|Pi_lam - lam|^p as n grows.
    """
    return _accompanying_array(p, A, B, n)[2]
