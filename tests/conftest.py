"""Shared brute-force oracles, kept deliberately independent of the package
engines they check: plain scipy pmf grids and direct summation, and exact
integer moments from cumulants in mpmath."""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from sharp_rosenthal.compound import CompoundLaw
from sharp_rosenthal.measures import DiscreteRV, LevyVarianceMeasure
from sharp_rosenthal.poisson import SeriesConfig


@pytest.fixture
def cfg():
    return SeriesConfig(tol=1e-12, max_terms=10**6)


def brute_poisson_abs_central(lam: float, q: float, kmax: int = 200) -> float:
    """Direct summation of E|Pi_lam - lam|^q over k <= kmax via scipy pmf."""
    ks = np.arange(0, kmax + 1)
    return float(stats.poisson.pmf(ks, lam) @ np.abs(ks - lam) ** q)


def brute_skellam_abs(lam1: float, lam2: float, c: float, q: float, kmax: int = 60) -> float:
    """Brute-force double sum of E|c (J - K)|^q over j, k <= kmax."""
    j = np.arange(0, kmax + 1)
    k = np.arange(0, kmax + 1)
    pj = stats.poisson.pmf(j, lam1)
    pk = stats.poisson.pmf(k, lam2)
    vals = np.abs(c * np.subtract.outer(j, k)) ** q
    return float(pj @ vals @ pk)


def brute_triple_poisson_abs(
    c0: float, lam_half: float, c1: float, lam1: float, sign: float, q: float, kmax: int = 40
) -> float:
    """E|c0 (J - K) + sign*c1 (L - lam1)|^q by three nested scipy pmf grids."""
    j = np.arange(0, kmax + 1)
    pj = stats.poisson.pmf(j, lam_half)
    pl = stats.poisson.pmf(j, lam1)
    jj, kk, ll = np.meshgrid(j, j, j, indexing="ij")
    vals = np.abs(c0 * (jj - kk) + sign * c1 * (ll - lam1)) ** q
    w = pj[:, None, None] * pj[None, :, None] * pl[None, None, :]
    return float((w * vals).sum())


def brute_compound_abs(X: DiscreteRV, atoms, q: float) -> float:
    """E|X + sum_i c_i (Pi_i - lam_i)|^q for independent Poisson Pi_i, by
    direct summation over k_i <= lam_i + 12 sqrt(lam_i) + 60 of scipy pmf
    grids; ``atoms`` is a sequence of (c_i, lam_i), and lam_i = 0 is a
    point mass at 0."""
    values, probs = X.values, X.probs
    for c, lam in atoms:
        ks = np.arange(0, int(lam + 12.0 * np.sqrt(lam)) + 61)
        values = np.add.outer(values, c * (ks - lam)).ravel()
        probs = np.multiply.outer(probs, stats.poisson.pmf(ks, lam)).ravel()
    return float(probs @ np.abs(values) ** q)


def exact_integer_moment(law: CompoundLaw, n: int) -> mpmath.mpf:
    """E(x0 + X + Y_H)^n for an integer n >= 0, at 50 digits, from no series.

    Y_H has cumulants kappa_1 = 0 and kappa_j = sum_u H({u}) u^(j-2) for
    j >= 2 (a Gaussian part is the atom u = 0, which adds to kappa_2 only),
    its moments follow from m_j = sum_{i<j} C(j-1, i) kappa_{i+1} m_{j-1-i},
    and the binomial expansion over the atoms of x0 + X adds the rest.  For
    even n this is the absolute moment E|x0 + X + Y_H|^n.
    """
    with mpmath.workdps(50):
        atoms = [(mpmath.mpf(u), mpmath.mpf(w)) for u, w in law.levy.atoms]
        kappa = [mpmath.mpf(0)] * 2 + [
            mpmath.fsum(w * u ** (j - 2) for u, w in atoms) for j in range(2, n + 1)
        ]
        m = [mpmath.mpf(1)]
        for j in range(1, n + 1):
            m.append(mpmath.fsum(math.comb(j - 1, i) * kappa[i + 1] * m[j - 1 - i] for i in range(j)))
        return mpmath.fsum(
            mpmath.mpf(p) * math.comb(n, k) * (mpmath.mpf(law.x0) + mpmath.mpf(x)) ** (n - k) * m[k]
            for x, p in law.background.atoms
            for k in range(n + 1)
        )


def rademacher() -> DiscreteRV:
    return DiscreteRV.rademacher()


def single_atom(u: float, w: float) -> LevyVarianceMeasure:
    return LevyVarianceMeasure([(u, w)])
