"""Independent oracles for the benchmark's correctness checks.

Everything here is built from scipy Poisson pmf grids summed directly and
from mpmath's closed form for Gaussian absolute moments.  Nothing calls the
engines of ``sharp_rosenthal`` (certified cutoffs, law grids, quadrature),
so a wrong engine cannot agree with its own check.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import stats

#: Relative agreement demanded of a bound against its brute-force value.
#: The engines certify 1e-12 absolute; the brute sums are exact to rounding.
BOUND_RTOL = 1e-9


def relative_gap(value: float, reference: float) -> float:
    return abs(value - reference) / max(1.0, abs(reference))


def lambda_c(p: float, A: float, B: float) -> tuple[float, float]:
    """The (lambda, c) solving c^2 lambda = B and c^p lambda = A."""
    c = (A / B) ** (1.0 / (p - 2.0))
    return B / (c * c), c


def _atoms(X) -> tuple[np.ndarray, np.ndarray]:
    if X is None:
        return np.zeros(1), np.ones(1)
    return np.asarray(X.values, dtype=float), np.asarray(X.probs, dtype=float)


def poisson_points(lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Centered support k - lam and scipy pmf for k = 0..K.

    K reaches 60 plus 12 standard deviations past the mean, where the pmf is
    below 1e-40 for every intensity the workloads draw (lam < 30), far under
    the polynomial growth of |.|^q for q <= 8.
    """
    kmax = int(lam + 12.0 * math.sqrt(lam) + 60.0)
    ks = np.arange(kmax + 1)
    return ks - lam, stats.poisson.pmf(ks, lam)


def skellam_points(lam_half: float) -> tuple[np.ndarray, np.ndarray]:
    """Support and pmf of J - K for independent Poisson(lam_half) J and K."""
    _, pmf = poisson_points(lam_half)
    kmax = pmf.size - 1
    return np.arange(-kmax, kmax + 1, dtype=float), np.convolve(pmf, pmf[::-1])


def _abs_moment_sum(xs, ps, values, probs, q: float) -> float:
    """E|x + V|^q over independent discrete x ~ (xs, ps) and V ~ (values, probs)."""
    return float(ps @ (np.abs(np.add.outer(xs, values)) ** q @ probs))


def gaussian_abs_moment(mean: float, sd: float, q: float) -> float:
    """E|mean + sd Z|^q = sd^q 2^{q/2} Gamma((q+1)/2)/sqrt(pi) 1F1(-q/2; 1/2; -mean^2/(2 sd^2))."""
    with mpmath.workdps(30):
        m, s, qq = mpmath.mpf(mean), mpmath.mpf(sd), mpmath.mpf(q)
        value = (
            s**qq
            * 2 ** (qq / 2)
            * mpmath.gamma((qq + 1) / 2)
            / mpmath.sqrt(mpmath.pi)
            * mpmath.hyp1f1(-qq / 2, mpmath.mpf(1) / 2, -(m * m) / (2 * s * s))
        )
        return float(value)


def exact_bound_p_ge_5(p: float, q: float, A: float, B: float, X=None) -> float:
    """max over the sign of E|X +- c (Pi_lam - lam)|^q."""
    lam, c = lambda_c(p, A, B)
    xs, ps = _atoms(X)
    centered, pmf = poisson_points(lam)
    return max(_abs_moment_sum(xs, ps, sign * c * centered, pmf, q) for sign in (1.0, -1.0))


def exact_bound_p_le_3(p: float, A: float, B: float, X=None) -> float:
    """A + E|X + sqrt(B) Z|^p."""
    xs, ps = _atoms(X)
    sd = math.sqrt(B)
    return A + math.fsum(prob * gaussian_abs_moment(x, sd, p) for x, prob in zip(xs, ps))


def symmetric_bound(p: float, q: float, A: float, B: float, X=None) -> float:
    """E|X + c (Pi_{lam/2} - Pi'_{lam/2})|^q."""
    lam, c = lambda_c(p, A, B)
    xs, ps = _atoms(X)
    diffs, pmf = skellam_points(lam / 2.0)
    return _abs_moment_sum(xs, ps, c * diffs, pmf, q)


def combined_bound(p: float, q: float, A0: float, B0: float, A1: float, B1: float, X=None) -> float:
    """max over the sign of E|X + c0 (Pi - Pi') +- c1 (Pi_lam1 - lam1)|^q."""
    lam0, c0 = lambda_c(p, A0, B0)
    lam1, c1 = lambda_c(p, A1, B1)
    xs, ps = _atoms(X)
    diffs, sk_pmf = skellam_points(lam0 / 2.0)
    centered, pmf = poisson_points(lam1)
    out = []
    for sign in (1.0, -1.0):
        values = np.add.outer(c0 * diffs, sign * c1 * centered).ravel()
        probs = np.multiply.outer(sk_pmf, pmf).ravel()
        out.append(_abs_moment_sum(xs, ps, values, probs, q))
    return max(out)


def even_p_bound(p: int, A: float, B: float) -> float:
    """c^p E|Pi_lam - lam|^p by direct summation."""
    lam, c = lambda_c(float(p), A, B)
    centered, pmf = poisson_points(lam)
    return c**p * float(pmf @ np.abs(centered) ** p)
