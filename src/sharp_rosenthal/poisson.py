"""Building blocks of the moment engines: the Poisson pmf and its certified
truncation, exact even central moments and L^q norm bounds of the centered
Poisson law, and closed-form Gaussian moments.

Moments of a single centered Poisson law, E|Pi_lam - lam|^q and its parts,
are those of the one-atom compound law [(1.0, lam)], and Skellam moments
those of the two-atom law [(c, c^2 lam1), (-c, c^2 lam2)]; both come from
the series engine in :mod:`sharp_rosenthal.compound`.

All infinite series are truncated to *certified* windows [L, K] around the
mean, and one rule serves both sides, written for a side s = +-1 and a
distance j from the mean, the first discarded index being ceil(lambda) +
s (1 + j).  Away from the center the consecutive-term ratio of the envelope
decreases, so the discarded sum beyond an index is at most the first
discarded term over one minus its ratio, a test that stays passed further
out.  Each cutoff is the nearest index that passes it.  A closed-form guess
-- at most two Newton steps on the continuous log-envelope, from a
Bernstein or sub-Gaussian edge -- starts one search, exponential outward
from the guess and then bisection, which usually makes two tests.  The
guess moves only the number of tests, never the cutoff.  The window is
O(sqrt(lambda)) wide.  Poisson probabilities are computed in log space so
intensities up to 1e4 are handled without overflow.

Gaussian moments have closed forms, vectorized over the mean: the absolute
moment through Kummer's 1F1 and the part moments through the parabolic
cylinder function D_{-q-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, hyp1f1, pbdv

from .errors import TailNotConverged
from .measures import LevyVarianceMeasure

__all__ = [
    "SeriesConfig",
    "DEFAULT_CONFIG",
    "poisson_central_moment_even",
    "poisson_centered_norm_bound",
    "skellam_abs_moment_about",
    "gaussian_abs_moment",
    "gaussian_part_moment",
    "gaussian_norm_bound",
]


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation policy for the series engines.

    ``tol`` is the target absolute error of a certified truncation and
    ``max_terms`` the hard cap on summed terms before giving up with
    :class:`TailNotConverged`.
    """

    tol: float = 1e-12
    max_terms: int = 10**6

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_terms < 16:
            raise ValueError(f"max_terms must be >= 16, got {self.max_terms}")


DEFAULT_CONFIG = SeriesConfig()


def _log_poisson_pmf(ks: np.ndarray, lam: float) -> np.ndarray:
    return ks * math.log(lam) - lam - gammaln(ks + 1.0)


def poisson_pmf(ks: np.ndarray, lam: float) -> np.ndarray:
    """exp(k log lam - lam - lgamma(k+1)), vectorized over ``ks``."""
    return np.exp(_log_poisson_pmf(np.asarray(ks, dtype=float), lam))


def _log_term(
    k: float, lam: float, log_lam: float, offset: float, q: float, log_scale: float
) -> float:
    """log of scale * pmf(k; lam) * (offset + |k - lam|)^q, given log_lam = log(lam)."""
    return (
        log_scale
        + k * log_lam
        - lam
        - math.lgamma(k + 1.0)
        + q * math.log(offset + abs(k - lam))
    )


def _certified(
    side: int, j: int, lam: float, log_lam: float, q: float, log_tol: float, offset: float,
    log_scale: float,
) -> bool:
    """Whether the envelope beyond distance j from the mean on ``side`` (+1
    above, -1 below) is certified below tol: t(k)/(1 - rho(k)) <= tol at the
    first discarded index k = ceil(lam) + side (1 + j), rho(k) = t(k + side)/t(k)
    the outward ratio; at k = 0 nothing lies further out and t(0) <= tol."""
    k = math.ceil(lam) + side * (1 + j)
    if k == 0:
        return _log_term(0.0, lam, log_lam, offset, q, log_scale) <= log_tol
    if side > 0:
        log_ratio = math.log(lam / (k + 1.0)) + q * math.log1p(1.0 / (offset + k - lam))
    else:
        log_ratio = math.log(k / lam) + q * math.log1p(1.0 / (offset + lam - k))
    if log_ratio >= 0.0:
        return False
    log_first = _log_term(k, lam, log_lam, offset, q, log_scale)
    return log_first - math.log(-math.expm1(log_ratio)) <= log_tol


#: Below this intensity each index past the mean costs the envelope a factor
#: lam, so the window ends within a few indices of the mean; a search from
#: the mean itself makes as few tests there as one from any computed guess.
_SEARCH_FROM_MEAN = 1e-8


def _envelope_excess(
    lam: float, q: float, log_tol: float, offset: float, log_scale: float
) -> float:
    """Nats, at least 0, by which the envelope near the mean exceeds tol:
    log(scale * (offset + sqrt(lam))^q / sqrt(1 + 2 pi lam)) - log(tol), the
    pmf at the mode taken as 1/sqrt(1 + 2 pi lam)."""
    peak = log_scale + q * math.log(offset + math.sqrt(lam)) - 0.5 * math.log1p(2.0 * math.pi * lam)
    return max(peak - log_tol, 0.0)


def _settled(x: float, step: float, slope: float, lam: float, q: float, offset: float) -> bool:
    """Whether a Newton step of :func:`_guess` above the mean that ended at x
    left less than half an index to the root, about |l''| step^2 / (2 |slope|)
    for the log-envelope's curvature |l''| ~ 1/(x + 1/2) + q/d^2 between the
    last two iterates; or whether x is at or before the first index past the
    mean."""
    if x <= lam + 1.0:
        return True
    mid = x + 0.5 * step
    d = offset + mid - lam
    return (1.0 / (mid + 0.5) + q / (d * d)) * step * step < -slope


def _guess(
    side: int, lam: float, log_lam: float, q: float, log_tol: float, offset: float,
    log_scale: float,
) -> int:
    """A guess at the distance j of the nearest certified cutoff on ``side``.

    Newton's method in the first discarded index x on
    phi(x) = log(t(x)/(1 - rho(x))) - log(tol), with digamma(x + 1) ~
    log(x + 1/2) in the slope and the ratio term left out of it, from an
    edge of the law (e the envelope's excess over tol near the mean):
    Bernstein's lam + e/3 + sqrt(e^2/9 + 2 lam e) plus one index above the
    mean, the sub-Gaussian lam - sqrt(2 lam e) below it.  Up to two steps,
    stopping once the ratio reaches 1 or phi stops falling outward, and above
    the mean once a step settles (:func:`_settled`; below the mean that
    stop cost more tests than it saved).  Rounded inward by half an index,
    an estimate within half an index of the root lands on j or j - 1, from
    either of which the search makes two tests.  Below lam = 1 the head is
    index 0 alone, and below lam = 1e-8 (:data:`_SEARCH_FROM_MEAN`) the
    tail ends within a few indices of the mean; the guess there is j = 0.
    """
    if lam < _SEARCH_FROM_MEAN or (side < 0 and lam < 1.0):
        return 0
    e = _envelope_excess(lam, q, log_tol, offset, log_scale)
    if side > 0:
        x = lam + e / 3.0 + math.sqrt(e * e / 9.0 + 2.0 * lam * e) + 1.0
    else:
        x = lam - math.sqrt(2.0 * lam * e)
    for _ in range(2):
        d = offset + side * (x - lam)
        if x <= 0.0 or d <= 0.0:
            break
        log_ratio = side * (log_lam - math.log(x + (side > 0))) + q * math.log1p(1.0 / d)
        slope = log_lam - math.log(x + 0.5) + side * q / d
        if log_ratio >= 0.0 or side * slope >= 0.0:
            break
        log_term = log_scale + x * log_lam - lam - math.lgamma(x + 1.0) + q * math.log(d)
        step = (log_term - math.log(-math.expm1(log_ratio)) - log_tol) / slope
        x -= step
        if side > 0 and _settled(x, step, slope, lam, q, offset):
            break
    return math.ceil(side * (x - math.ceil(lam)) - 1.5)


def _first_passing(
    side: int, hi: int, lam: float, log_lam: float, q: float, log_tol: float, offset: float,
    log_scale: float,
) -> int | None:
    """Smallest distance j in [0, hi] that :func:`_certified` passes on
    ``side``, a test that stays passed further out; None when j = hi fails.

    Exponential search from :func:`_guess` (clamped into [0, hi]) with
    strides 1, 2, 4, ...: inward while the test passes, outward while it
    fails.  Bisection then closes the last stride: O(log |j - guess|) tests,
    and two when the guess is j or j - 1.
    """

    def passes(j: int) -> bool:
        return _certified(side, j, lam, log_lam, q, log_tol, offset, log_scale)

    if hi < 0:
        return None
    j = _guess(side, lam, log_lam, q, log_tol, offset, log_scale)
    j = 0 if j < 0 else hi if j > hi else j
    step = 1
    if passes(j):
        failed, found = -1, j
        while found > 0:
            j = found - step if found - step > 0 else 0
            if not passes(j):
                failed = j
                break
            found, step = j, 2 * step
    else:
        failed = j
        while True:
            if failed >= hi:
                return None
            j = failed + step if failed + step < hi else hi
            if passes(j):
                found = j
                break
            failed, step = j, 2 * step
    while found - failed > 1:
        mid = (failed + found) // 2
        if passes(mid):
            found = mid
        else:
            failed = mid
    return found


def certified_upper_cutoff(
    lam: float,
    q: float,
    tol: float,
    max_terms: int,
    offset: float = 0.0,
    log_scale: float = 0.0,
) -> int:
    """Smallest K >= ceil(lam) whose Poisson-weighted tail is certified.

    Certifies that sum_{k > K} t(k) <= ``tol`` for the envelope
    t(k) = scale * pmf(k; lam) * (offset + k - lam)^q.  Above the mean the
    ratio r(k) = t(k+1)/t(k) = lam/(k+1) * (1 + 1/(offset + k - lam))^q
    decreases, so once r(k) < 1 the tail from k is at most t(k)/(1 - r(k)),
    and that test, once passed, passes at every larger K.
    """
    top = math.ceil(lam)
    j = _first_passing(1, max_terms - top, lam, math.log(lam), q, math.log(tol), offset, log_scale)
    if j is None:
        raise TailNotConverged(
            f"no certified cutoff below max_terms={max_terms} for lam={lam}, q={q}"
        )
    return top + j


def certified_lower_cutoff(
    lam: float, q: float, tol: float, offset: float = 0.0, log_scale: float = 0.0
) -> int:
    """Largest L <= ceil(lam) whose Poisson-weighted head is certified.

    Certifies that sum_{k < L} t(k) <= ``tol`` for the envelope
    t(k) = scale * pmf(k; lam) * (offset + lam - k)^q.  Below the mean the
    ratio s(k) = t(k-1)/t(k) = (k/lam) * (1 + 1/(offset + lam - k))^q
    decreases as k does, so the head below L is at most
    t(L-1)/(1 - s(L-1)) once s(L-1) < 1, and that test, once passed, passes
    at every smaller L.  Returns 0 at once when t(0) alone exceeds ``tol``,
    which at small lam costs one term and no search.
    """
    log_tol = math.log(tol)
    if _log_term(0.0, lam, 0.0, offset, q, log_scale) > log_tol:  # log(lam) drops out at k = 0
        return 0
    top = math.ceil(lam)  # t(0) <= tol, so the search ends by j = top - 1, at k = 0
    return top - _first_passing(-1, top - 1, lam, math.log(lam), q, log_tol, offset, log_scale)


def _certified_window(
    lam: float, q: float, q_min: float | None, tol: float, max_terms: int, offset: float,
    log_u: float,
) -> tuple[int, int]:
    """The window [L, K] of an atom's Poisson counts whose discarded sides
    each hold at most ``tol`` of the envelope |u|^r pmf(k) (offset + |k - lam|)^r
    at every exponent r in [q_min, q] (q_min None means q), log_u = log|u|.

    For a fixed window the certified bound t(k)/(1 - rho(k)) on a side is
    log-convex in r: log t and log rho are linear in r, and -log(1 - e^x)
    is convex and increasing.  So its two end values bound it in between,
    and the window is the wider of those certified at q_min and at q.  It
    is certified at q, then tested once at q_min; the search at q_min runs
    only on a side that test fails, where it widens.
    """
    lo = certified_lower_cutoff(lam, q, tol, offset, q * log_u)
    hi = certified_upper_cutoff(lam, q, tol, max_terms, offset, q * log_u)
    if q_min not in (None, q):
        top = math.ceil(lam)
        at_q_min = (lam, math.log(lam), q_min, math.log(tol), offset, q_min * log_u)
        if lo > 0 and not _certified(-1, top - lo, *at_q_min):
            lo = certified_lower_cutoff(lam, q_min, tol, offset, q_min * log_u)
        if not _certified(1, hi - top, *at_q_min):
            hi = certified_upper_cutoff(lam, q_min, tol, max_terms, offset, q_min * log_u)
    return lo, hi


def poisson_central_moment_even(lam: float, n: int) -> float:
    """Exact E (Pi_lam - lam)^n for even n >= 2: a polynomial in lam with
    nonnegative integer coefficients (:func:`_central_moment_coefficients`),
    summed with fsum."""
    if not lam > 0.0:
        raise ValueError(f"lam must be > 0, got {lam}")
    if n != int(n) or int(n) < 2 or int(n) % 2 != 0:
        raise ValueError(f"n must be an even integer >= 2, got {n}")
    coefficients = _central_moment_coefficients(int(n))
    return math.fsum(c * lam**d for d, c in enumerate(coefficients))


@lru_cache(maxsize=64)
def _central_moment_coefficients(n: int) -> tuple[int, ...]:
    """Coefficients of E (Pi_lam - lam)^n as a polynomial in lam, lowest first.

    The centered Poisson law has cumulants kappa_1 = 0 and kappa_j = lam for
    j >= 2, and moments follow from
    m_j = sum_{i=0}^{j-1} C(j-1, i) kappa_{i+1} m_{j-1-i},  m_0 = 1,
    so m_j = lam * sum_{i=1}^{j-1} C(j-1, i) m_{j-1-i}, exactly in integers.
    """
    m = [[1]]
    for j in range(1, n + 1):
        poly = [0] * (j // 2 + 1)
        for i in range(1, j):
            for d, c in enumerate(m[j - 1 - i]):
                poly[d + 1] += math.comb(j - 1, i) * c
        m.append(poly)
    return tuple(m[n])


def poisson_centered_norm_bound(lam: float, q: float) -> float:
    """An upper bound on the L^q norm of Pi_lam - lam.

    Uses ||X||_q <= ||X||_{2m} with the smallest even integer 2m >= q, whose
    moment is exact via the cumulant recursion.
    """
    two_m = 2 * max(1, math.ceil(q / 2.0))
    return poisson_central_moment_even(lam, two_m) ** (1.0 / two_m)


def gaussian_norm_bound(q: float) -> float:
    """Upper bound on ||Z||_q for Z ~ N(0,1) via the even moment (2m-1)!!."""
    two_m = 2 * max(1, math.ceil(q / 2.0))
    double_fact = math.factorial(two_m) / (2 ** (two_m // 2) * math.factorial(two_m // 2))
    return double_fact ** (1.0 / two_m)


def skellam_abs_moment_about(
    lam1: float,
    lam2: float,
    c: float,
    x0: float,
    q: float,
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> float:
    """E|x0 + c (Pi_lam1 - Pi'_lam2)|^q for independent Poisson variables.

    The moment of the compound law of [(c, c^2 lam1), (-c, c^2 lam2)], which
    is centered, shifted by the drift c (lam1 - lam2), from the series engine.
    """
    from .compound import CompoundLaw, cp_abs_moment_series  # compound imports this module

    if not (lam1 > 0.0 and lam2 > 0.0):
        raise ValueError(f"lam1 and lam2 must be > 0, got {lam1}, {lam2}")
    levy = LevyVarianceMeasure([(c, c * c * lam1), (-c, c * c * lam2)])
    law = CompoundLaw.pure(levy).shifted(x0 + c * (lam1 - lam2))
    return cp_abs_moment_series(law, q, cfg)


_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Beyond mu^2/2 = -log(tiny) the factor e^{-mu^2/2} of the small Gaussian
#: side underflows float64 (and pbdv returns NaN near |mu| = 5000).
_SMALL_SIDE_CUT = -math.log(np.finfo(float).tiny)


def _check_gaussian_args(sd: float, q: float) -> None:
    if sd < 0.0:
        raise ValueError(f"sd must be >= 0, got {sd}")
    if not q > 0.0:
        raise ValueError(f"q must be > 0, got {q}")


def _as_result(values: np.ndarray, mean):
    """``values`` as a float when ``mean`` was a scalar."""
    return float(values[0]) if np.ndim(mean) == 0 else values


def _std_abs_moment(mu: np.ndarray, q: float) -> np.ndarray:
    """E|mu + Z|^q = 2^{q/2} Gamma((q+1)/2)/sqrt(pi) 1F1(-q/2; 1/2; -mu^2/2).

    Once q^2 <= eps mu^2 the value is |mu|^q to rounding (the first correction
    is q(q-1)/(2 mu^2)); hyp1f1 returns NaN there for even q >= 4.
    """
    mu2 = mu * mu
    far = q * q <= np.finfo(float).eps * mu2
    c = 2.0 ** (q / 2.0) * math.exp(math.lgamma((q + 1.0) / 2.0)) / math.sqrt(math.pi)
    out = c * hyp1f1(-q / 2.0, 0.5, -0.5 * np.where(far, 0.0, mu2))
    out[far] = np.abs(mu[far]) ** q
    return out


def _std_small_side(a: np.ndarray, q: float) -> np.ndarray:
    """E(Z - a)_+^q for a >= 0: Gamma(q+1)/sqrt(2 pi) e^{-a^2/4} D_{-q-1}(a)."""
    out = np.zeros_like(a)
    live = a * a <= 2.0 * _SMALL_SIDE_CUT
    x = a[live]
    c = math.exp(math.lgamma(q + 1.0)) / _SQRT_2PI
    out[live] = c * np.exp(-0.25 * x * x) * pbdv(-q - 1.0, x)[0]
    return out


def gaussian_abs_moment(mean, sd: float, q: float):
    """E|mean + sd*Z|^q for Z ~ N(0,1), sd >= 0, q > 0; vectorized over ``mean``.

    The closed form sd^q 2^{q/2} Gamma((q+1)/2)/sqrt(pi) 1F1(-q/2; 1/2;
    -mean^2/(2 sd^2)) (Winkelbauer, arXiv:1209.4340); |mean|^q for sd = 0.
    Returns a float for a scalar ``mean``, else an ndarray.
    """
    _check_gaussian_args(sd, q)
    m = np.atleast_1d(np.asarray(mean, dtype=float))
    if sd == 0.0:
        return _as_result(np.abs(m) ** q, mean)
    return _as_result(sd**q * _std_abs_moment(m / sd, q), mean)


def gaussian_part_moment(mean, sd: float, q: float, side: str):
    """E((mean + sd*Z)_+)^q or E((mean + sd*Z)_-)^q for Z ~ N(0,1); vectorized
    over ``mean``.

    The part on the side away from the mean comes from the parabolic cylinder
    function D_{-q-1}; the other part is the absolute moment less it, which
    never cancels because the former is at most half of the absolute moment.
    """
    if side not in ("positive", "negative"):
        raise ValueError(f"side must be 'positive' or 'negative', got {side!r}")
    _check_gaussian_args(sd, q)
    m = np.atleast_1d(np.asarray(mean, dtype=float))
    if side == "negative":
        m = -m
    if sd == 0.0:
        return _as_result(np.clip(m, 0.0, None) ** q, mean)
    mu = m / sd
    out = _std_small_side(np.abs(mu), q)
    large = mu > 0.0
    out[large] = _std_abs_moment(mu[large], q) - out[large]
    return _as_result(sd**q * out, mean)
