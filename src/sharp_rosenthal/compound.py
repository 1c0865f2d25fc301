"""Moments E|x0 + X + Y_H|^q of a shifted independent sum of a discrete law
and the infinitely divisible law Y_H, by two independent engines.

Y_H is parameterized by a :class:`LevyVarianceMeasure` H through
log E e^{itY_H} = -t^2 * sum_u H({u}) (R_1 exp)(0; itu): an atom at 0 with
weight w contributes a Gaussian of variance w, and an atom at u != 0 a
scaled centered Poisson u*(Pi_lam - lam) with lam = w/u^2.

The *series* engine composes truncated Poisson grids (certified Minkowski
envelopes bound each discarded tail), with atoms at u and -u on one lattice
of count differences, and weights the residual means with the closed-form
Gaussian moment.  One kernel, ``_expect``, computes every series
moment -- of the kind "abs", "positive" or "negative": the absolute moment
and the two parts -- for a row of shifts of one certified grid, one
Gaussian call per block of shifts; a single moment is the row of the one
shift 0.  The variations of :mod:`.variation` call it directly, and the
two-atom scan of :mod:`.bounds` through :class:`ShiftedMomentEvaluator`,
a thin shell over the same grid and kernel.  The *contour* engine
evaluates the Fourier-Laplace identity
    E (x0+X+Y_H)_+^q = Gamma(q+1)/(2*pi*i) int_{Re z=sigma} dz z^{-(q+1)} M(z)
on the vertical line Re z = sigma > 0 with the principal branch of z^{q+1};
the negative part uses the reflection -Y_H =_D Y_{H^-}.  The identity holds
for every sigma > 0; by default sigma is the saddle point of
log M(sigma) - (q+1) log sigma, where the integrand is smallest on the real
axis and its cancellation, hence its roundoff, least.  The integrand is one
exponential per point,
    exp(z top + w0 z^2/2 + sum_{u != 0} lam (expm1(zu) - zu) - (q+1) Log z),
with top = max(x0 + X), times sum_j p_j e^{z(x_j - top)} when X has more
than one atom.  On the line z = sigma + i tau its exponent is built in real
arithmetic: sigma u is one number per atom, so an atom costs two sines of
tau u, and the terms linear in tau fold into one slope; an atom with
sigma |u| < 0.1 takes its term as w z^2 r1_exp(zu), whose Taylor branch
does not cancel.  The law's arrays are built once per integral
(``_MgfTerms``) and read by the saddle search, the truncation and the
integrand; :func:`cp_mgf` is the exp of the same exponent.  The saddle is a
bracketed root (:func:`.roots._brent`), and the integral is adaptive
Gauss-Kronrod with QUADPACK's 21-point rule
(:func:`.quadrature.adaptive_gauss_kronrod`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ExponentTooSmall,
    ImaginaryResidualTooLarge,
    TailNotConverged,
    TooManyAtoms,
)
from .measures import DiscreteRV, LevyVarianceMeasure
from .poisson import (
    DEFAULT_CONFIG,
    SeriesConfig,
    _certified_window,
    certified_upper_cutoff,  # noqa: F401 -- perfbench's tracer wraps it here too
    gaussian_abs_moment,
    gaussian_norm_bound,
    gaussian_part_moment,
    poisson_centered_norm_bound,
    poisson_pmf,
)
from .quadrature import adaptive_gauss_kronrod
from .roots import _brent

__all__ = [
    "CompoundLaw",
    "MAX_NONZERO_ATOMS",
    "r1_exp",
    "cp_mgf",
    "cp_abs_moment_series",
    "cp_part_moment_series",
    "cp_part_moment_contour",
    "cp_abs_moment_crosscheck",
    "ShiftedMomentEvaluator",
]

#: Desk-scale cap on nonzero-location atoms in the series engine.  The
#: extremal analysis needs at most 2; 3 admits the combined symmetric +
#: centered-Poisson bound.
MAX_NONZERO_ATOMS = 3

#: Switch point between the Taylor series and the direct formula in r1_exp.
_R1_TAYLOR_CUT = 0.1

# 1/(j+2)! for j = 0..8, highest degree first (Horner order).
_R1_COEFFS = [1.0 / math.factorial(j + 2) for j in range(8, -1, -1)]

@dataclass(frozen=True)
class CompoundLaw:
    """x0 + X + Y_H with X a DiscreteRV independent of Y_H."""

    x0: float
    background: DiscreteRV
    levy: LevyVarianceMeasure

    @classmethod
    def pure(cls, levy: LevyVarianceMeasure) -> "CompoundLaw":
        return cls(0.0, DiscreteRV.delta(0.0), levy)

    def reflected(self) -> "CompoundLaw":
        """The law of -(x0 + X + Y_H), using -Y_H =_D Y_{H^-}."""
        return CompoundLaw(-self.x0, self.background.reflected(), self.levy.reflected())

    def shifted(self, offset: float) -> "CompoundLaw":
        return CompoundLaw(self.x0 + offset, self.background, self.levy)


def _r1_horner(u):
    acc = u * 0.0 + _R1_COEFFS[0]
    for c in _R1_COEFFS[1:]:
        acc = acc * u + c
    return acc


def r1_exp(u):
    """(e^u - 1 - u)/u^2, the normalized first-order Taylor remainder of exp.

    Exactly 1/2 at u = 0.  The direct formula cancels, losing about
    2 eps/|u| relative, so below |u| = 0.1 a degree-8 Taylor series takes
    over, its first omitted term under |u|^9/11! < 3e-17.  Accepts real or
    complex scalars and returns the matching kind.
    """
    value = _r1_exp_array(np.atleast_1d(u))[0]
    return complex(value) if isinstance(u, complex) else float(value.real)


def _r1_exp_array(w: np.ndarray) -> np.ndarray:
    """Vectorized complex r1_exp."""
    w = np.asarray(w, dtype=complex)
    out = np.empty_like(w)
    small = np.abs(w) < _R1_TAYLOR_CUT
    if small.any():
        out[small] = _r1_horner(w[small])
    big = ~small
    if big.any():
        wb = w[big]
        out[big] = (np.expm1(wb) - wb) / (wb * wb)
    return out


class _MgfTerms(NamedTuple):
    """The arrays M(z) is computed from, built once per law."""

    xs: np.ndarray  # x0 + x over the atoms of X
    gaps: np.ndarray  # x0 + x - top, all <= 0
    probs: np.ndarray
    top: float  # max(x0 + X)
    w0: float  # Gaussian variance
    atoms: tuple[tuple[float, float, float, float], ...]  # (u, w, lam = w/u^2, w/u), u != 0


def _mgf_terms(law: CompoundLaw) -> _MgfTerms:
    xs = law.x0 + law.background.values
    top = float(xs.max())
    atoms = tuple((u, w, w / (u * u), w / u) for u, w in law.levy.nonzero_atoms())
    return _MgfTerms(xs, xs - top, law.background.probs, top, law.levy.gaussian_variance(), atoms)


def _mgf(t: _MgfTerms, x, y, reach: float, power: float = 0.0) -> np.ndarray:
    """M(z)/z^power at the points z = x + iy with |z| >= reach, principal branch.

    ``x`` is a scalar (a vertical line) or an array like ``y``.  The exp of
    one exponent per point,
    z top + w0 z^2/2 + sum lam (e^{zu} - 1 - zu) - power Log z,
    times the background factor sum_j p_j e^{z(x_j - top)}
    when X has more than one atom; e^{z top} sits in the exponent so that
    the two factors cannot overflow and underflow separately at large Re z.
    The exponent is built in real arithmetic: an atom adds
    lam (expm1(xu) - xu) - 2 lam e^{xu} sin^2(yu/2) to its real part and
    lam e^{xu} sin(yu) to its imaginary part, whose terms linear in y fold
    into one slope (top + w0 x - sum w/u) y; Log z is
    log(x^2 + y^2)/2 + i atan2(y, x).  lam (e^{zu} - 1 - zu) cancels at
    small |zu|, losing about 2 eps/|zu| of the term, so an atom with
    reach |u| < 0.1 takes the complex w z^2 r1_exp(zu) instead, as does a
    background of more than one atom.
    """
    re, slope, im = t.top * x, t.top, 0.0
    if t.w0:
        re = re + 0.5 * t.w0 * (x * x - y * y)
        slope = slope + t.w0 * x
    for u, w, lam, w_u in t.atoms:
        if reach * abs(u) < _R1_TAYLOR_CUT:
            z = x + 1j * y
            term = w * z * z * _r1_exp_array(z * u)
            re = re + term.real
            im = im + term.imag
        else:
            xu = x * u
            grow = lam * np.exp(xu)
            re = re + (lam * (np.expm1(xu) - xu) - 2.0 * grow * np.sin(0.5 * u * y) ** 2)
            im = im + grow * np.sin(u * y)
            slope = slope - w_u
    im = im + slope * y
    if power:
        re = re - 0.5 * power * np.log(x * x + y * y)
        im = im - power * np.arctan2(y, x)
    out = np.exp(re + 1j * im)
    if t.gaps.size > 1:
        z = x + 1j * y
        return out * (np.exp(np.multiply.outer(z, t.gaps)) @ t.probs)
    return out * t.probs[0]


def cp_mgf(law: CompoundLaw, z):
    """E e^{z(x0 + X + Y_H)} for Re z > 0 (entire in z for bounded X).

    Equals E e^{z(x0 + X)} exp{w0 z^2/2 + sum_{u != 0} lam (e^{zu} - 1 - zu)}
    with lam = w/u^2, computed as the exp of one exponent built from the
    real and imaginary parts of z; an atom whose |zu| falls below 0.1 at
    some point of the call takes the equal form w z^2 r1_exp(zu) at every
    point, which does not cancel.  On a vertical line the modulus never
    exceeds the value at the real point z = sigma.  Accepts a complex
    scalar, returning a complex, or a 1-D ndarray.
    """
    zc = np.atleast_1d(np.asarray(z, dtype=complex))
    out = _mgf(_mgf_terms(law), zc.real, zc.imag, float(np.abs(zc).min(initial=math.inf)))
    return complex(out[0]) if np.ndim(z) == 0 else out


class _LawGrid(NamedTuple):
    values: np.ndarray  # residual means x0 + x + sum_i u_i (k_i - lam_i)
    probs: np.ndarray
    sd: float  # Gaussian component standard deviation
    tail_bound: float  # certified bound on truncated + pruned mass contribution
    windows: tuple[tuple[int, int], ...]  # Poisson count window [L_i, K_i] per atom


def _law_grid(
    law: CompoundLaw,
    q: float,
    cfg: SeriesConfig,
    shift_bound: float = 0.0,
    q_min: float | None = None,
) -> _LawGrid:
    """Discretize x0 + X + (Poisson part of Y_H) on certified grids.

    Atom i keeps the window [L_i, K_i] of its Poisson counts.  Both discarded
    sides are bounded under the Minkowski envelope
    |u_i|^r pmf(k) (M_i/|u_i| + |k - lam_i|)^r, where
    M_i = ||everything else||_q + shift_bound, each side by half of the
    atom's share of ``cfg.tol``; so the grid stays certified for the moment
    of any shifted law |x + ...|^r with |x| <= shift_bound.  The norms of the
    other atoms enter only when there are other atoms, and the Gaussian
    norm only when there is a Gaussian part.

    The grid is certified at every exponent r in [q_min, q] (q_min defaults
    to q).  Norms do not decrease in r, so M_i at q serves every r, and
    :func:`poisson._certified_window` certifies each window over [q_min, q].

    Two loops.  The first makes one factor (counts, mean, pmf) per atom,
    keyed by its location u, with steps u (counts - mean).  When the
    opposite location -u already holds a factor, the two become one: their
    counts k' and k enter only through u (k - k'), so the pair's factor has
    the W_u + W_-u - 1 differences d in [L_u - K_-u, K_u - L_-u], mean
    lam_u - lam_-u, and the convolution of the two pmfs as masses.  It holds
    every (k, k') of the product, with the pairs that share a value summed,
    and takes the second atom's place in the order; the windows are the
    atoms' own.  The second loop composes the factors onto the background
    in that order: the first onto a one-point background as a scalar shift
    and scale of its steps, later ones as outer products.  The background
    stays a Python list and the scalar path stays: with numpy arrays there,
    ``exact_bound`` at p = 5.3 took 69 -> 78 us per call (2-vCPU Xeon).
    """
    nz = law.levy.nonzero_atoms()
    if len(nz) > MAX_NONZERO_ATOMS:
        raise TooManyAtoms(
            f"series engine supports at most {MAX_NONZERO_ATOMS} nonzero-location atoms, "
            f"got {len(nz)}"
        )
    sd = math.sqrt(law.levy.gaussian_variance())
    atoms = law.background.atoms
    values = [law.x0 + x for x, _ in atoms]
    probs = [p for _, p in atoms]
    base = shift_bound + max(map(abs, values)) + (sd * gaussian_norm_bound(q) if sd else 0.0)
    if len(nz) > 1:
        norms = [abs(u) * poisson_centered_norm_bound(w / (u * u), q) for u, w in nz]
    tol_dim = cfg.tol / (2.0 * max(1, len(nz)))
    windows = []
    factors = {}
    for i, (u, w) in enumerate(nz):
        lam = w / (u * u)
        others = sum(norms[j] for j in range(len(nz)) if j != i) if len(nz) > 1 else 0.0
        offset = (base + others) / abs(u)
        lo, hi = _certified_window(
            lam, q, q_min, tol_dim / 2.0, cfg.max_terms, offset, math.log(abs(u))
        )
        windows.append((lo, hi))
        ks = np.arange(lo, hi + 1, dtype=float)
        pmf = poisson_pmf(ks, lam)
        if -u in factors:
            held_ks, held_lam, held_pmf = factors.pop(-u)
            if held_ks.size * ks.size > cfg.max_terms:
                raise TailNotConverged(
                    f"lattice convolution would exceed max_terms={cfg.max_terms} "
                    f"({held_ks.size} x {ks.size})"
                )
            ks = np.arange(lo - held_ks[-1], hi - held_ks[0] + 1, dtype=float)
            lam, pmf = lam - held_lam, np.convolve(pmf, held_pmf[::-1])
        factors[u] = (ks, lam, pmf)
    for u, (ks, lam, pmf) in factors.items():
        if len(values) * ks.size > cfg.max_terms:
            raise TailNotConverged(
                f"composed grid would exceed max_terms={cfg.max_terms} "
                f"({len(values)} x {ks.size})"
            )
        steps = u * (ks - lam)
        if len(values) == 1:
            values, probs = values[0] + steps, probs[0] * pmf
        else:
            values = np.add.outer(values, steps).ravel()
            probs = np.multiply.outer(probs, pmf).ravel()
    values, probs = np.asarray(values, dtype=float), np.asarray(probs, dtype=float)
    return _LawGrid(values, probs, sd, tol_dim * len(nz), tuple(windows))


def _prune_grid(
    grid: _LawGrid, q: float, budget: float, shift_bound: float = 0.0, q_min: float | None = None
) -> _LawGrid:
    """Drop grid points whose total possible contribution is below ``budget``
    at every shift |x| <= shift_bound and every exponent r in [q_min, q].

    Point j contributes at most p_j (|x + v_j| + sd ||Z||_r)^r <= p_j a_j^r
    with a_j = |v_j| + shift_bound + sd * gaussian_norm_bound(q), and
    p_j a_j^r is log-linear in r, so the larger of its values at q_min and q
    bounds it.
    """
    reach = np.abs(grid.values) + (shift_bound + grid.sd * gaussian_norm_bound(q))
    bounds = grid.probs * reach**q
    if q_min not in (None, q):
        bounds = np.maximum(bounds, grid.probs * reach**q_min)
    order = np.argsort(bounds)
    cum = np.cumsum(bounds[order])
    n_drop = int(np.searchsorted(cum, budget, side="right"))
    if n_drop == 0:
        return grid
    keep = np.sort(order[n_drop:])
    return grid._replace(
        values=grid.values[keep],
        probs=grid.probs[keep],
        tail_bound=grid.tail_bound + float(cum[n_drop - 1]),
    )


def _moment_grid(
    law: CompoundLaw,
    q: float,
    cfg: SeriesConfig,
    shift_bound: float = 0.0,
    q_min: float | None = None,
) -> _LawGrid:
    """The certified grid every moment of ``law`` is summed over, at every
    exponent in [q_min, q] and shift |x| <= shift_bound; with a Gaussian
    part, points too light to matter are pruned."""
    lowest = q if q_min is None else q_min
    if not lowest > 0.0:
        raise ValueError(f"q must be > 0, got {lowest}")
    grid = _law_grid(law, q, cfg, shift_bound, q_min)
    if grid.sd > 0.0:
        grid = _prune_grid(grid, q, cfg.tol / 4.0, shift_bound, q_min)
    return grid


def _expect(grid: _LawGrid, q: float, kind: str, shifts: np.ndarray) -> np.ndarray:
    """sum_j p_j E f(x + v_j + sd Z) for each shift x of a 1-D array.

    ``kind`` selects f among |.|^q ("abs"), (.)_+^q ("positive") and
    (.)_-^q ("negative"); v_j is the residual mean of grid point j and p_j
    its weight.  Shifts run in blocks of at most 2^23 shift x grid points,
    one Gaussian call per block, and each row is summed by its own dot
    product, so a value never depends on the other shifts of its call.
    """
    size = max(1, (1 << 23) // max(1, grid.values.size))
    sums = []
    for i in range(0, shifts.size, size):
        pts = shifts[i : i + size, None] + grid.values
        if kind == "abs":
            moments = gaussian_abs_moment(pts, grid.sd, q)
        else:
            moments = gaussian_part_moment(pts, grid.sd, q, kind)
        sums.append(np.vecdot(moments, grid.probs))
    return sums[0] if len(sums) == 1 else np.concatenate(sums)


def cp_abs_moment_series(law: CompoundLaw, q: float, cfg: SeriesConfig = DEFAULT_CONFIG) -> float:
    """E|x0 + X + Y_H|^q by nested certified summation."""
    grid = _moment_grid(law, q, cfg)
    return float(_expect(grid, q, "abs", np.zeros(1))[0])


def cp_part_moment_series(
    law: CompoundLaw, q: float, kind: str = "positive", cfg: SeriesConfig = DEFAULT_CONFIG
) -> float:
    """E((x0 + X + Y_H)_+)^q ("positive") or its "negative"-part analogue, by series."""
    if kind not in ("positive", "negative"):
        raise ValueError(f"kind must be 'positive' or 'negative', got {kind!r}")
    grid = _moment_grid(law, q, cfg)
    return float(_expect(grid, q, kind, np.zeros(1))[0])


class ShiftedMomentEvaluator:
    """E f(shift + x0 + X + Y_H) for many shifts sharing one certified grid.

    ``kind`` selects f among |.|^q ("abs"), (.)_+^q ("positive") and
    (.)_-^q ("negative").  The grid is certified uniformly over
    |shift| <= shift_bound.  A shell over ``_moment_grid`` and ``_expect``
    that checks each shift against the bound.  One dot product per row, so
    a value never depends on the other shifts of its call.
    """

    def __init__(
        self,
        law: CompoundLaw,
        q: float,
        shift_bound: float,
        cfg: SeriesConfig = DEFAULT_CONFIG,
        kind: str = "abs",
    ):
        if kind not in ("abs", "positive", "negative"):
            raise ValueError(f"kind must be 'abs', 'positive' or 'negative', got {kind!r}")
        self.q = q
        self.kind = kind
        self.shift_bound = float(shift_bound)
        self._grid = _moment_grid(law, q, cfg, self.shift_bound)

    def __call__(self, shifts: np.ndarray) -> np.ndarray:
        shifts = np.asarray(shifts, dtype=float)
        if shifts.ndim != 1:
            raise ValueError(f"shifts must be one row, got shape {shifts.shape}")
        if shifts.size == 0:
            return np.zeros(0)
        # fmax skips NaN, so a NaN shift cannot hide another shift's excess;
        # an all-NaN row passes and evaluates to NaN
        peak = np.fmax.reduce(np.abs(shifts))
        if peak > self.shift_bound * (1.0 + 1e-12):
            raise ValueError(f"shift {peak} exceeds certified bound {self.shift_bound}")
        return _expect(self._grid, self.q, self.kind, shifts)


def _log_mgf(t: _MgfTerms, sigma: float) -> tuple[float, float]:
    """K(sigma) = log M(sigma) and K'(sigma) on the real axis, in log form so that
    large sigma does not overflow."""
    tilt = t.probs * np.exp(sigma * t.gaps)
    k = sigma * t.top + math.log(float(tilt.sum())) + 0.5 * t.w0 * sigma * sigma
    slope = float(tilt @ t.xs) / float(tilt.sum()) + t.w0 * sigma
    for u, _, lam, w_u in t.atoms:
        k += lam * (math.expm1(sigma * u) - sigma * u)
        slope += w_u * math.expm1(sigma * u)
    return k, slope


def saddle_abscissa(law: CompoundLaw, q: float, tol: float) -> float | None:
    """Saddle point of log M(sigma) - (q+1) log sigma: the root of sigma K'(sigma) = q+1.

    There the contour integrand M(z)/z^{q+1} is smallest on the real axis,
    so the integral cancels least.  sigma K'(sigma) vanishes at 0 and
    increases wherever it is positive (K'' is a variance), so the root is
    unique.  It fails to exist exactly when x0 + X + Y_H <= 0 almost surely;
    the bracket search therefore stops, returning None, as soon as the
    Chernoff bound E(.)_+^q <= (q/(e sigma))^q M(sigma) certifies the
    positive part below ``tol``.
    """
    return _saddle_abscissa(_mgf_terms(law), q, tol)


def _saddle_abscissa(t: _MgfTerms, q: float, tol: float) -> float | None:
    def excess(sigma: float) -> float:
        return sigma * _log_mgf(t, sigma)[1] - (q + 1.0)

    def negligible(sigma: float) -> bool:
        return q * math.log(q / (math.e * sigma)) + _log_mgf(t, sigma)[0] <= math.log(tol)

    lo, hi = 0.5, 1.0
    while excess(hi) < 0.0:
        if negligible(hi):
            return None
        lo, hi = hi, 2.0 * hi
    while excess(lo) >= 0.0:
        lo, hi = 0.5 * lo, lo
    return _brent(excess, lo, hi)


def _contour_truncation(terms: _MgfTerms, q: float, sigma: float, tol: float) -> float:
    """Half-width T certifying the discarded |tau| > T tail of the contour
    integral of M(z)/z^{q+1} below tol.

    |M(sigma + i tau)| <= M(sigma), so the polynomial envelope integrates to
    2 M(sigma) T^{-q}/q outside [-T, T].  A Gaussian component of variance
    w0 adds the factor e^{-w0 tau^2/2}, whose tail with |z| >= sigma is at
    most 2 M(sigma) sigma^{-q-1} e^{-w0 T^2/2}/(w0 T).
    """
    m_sigma = math.exp(_log_mgf(terms, sigma)[0])
    t = max((2.0 * m_sigma / (q * tol)) ** (1.0 / q), 10.0 * sigma, 1.0)
    w0 = terms.w0
    if w0 > 0.0:
        # T = sqrt(2 log(c/(T w0))/w0) decreases in T, so of two consecutive
        # iterates one lies at or beyond the fixed point, which certifies
        c = 2.0 * m_sigma / (sigma ** (q + 1.0) * tol)
        prev, t_gauss = 0.0, 5.0 / math.sqrt(w0)
        for _ in range(4):
            prev, t_gauss = t_gauss, math.sqrt(
                max(2.0 * math.log(max(c / (t_gauss * w0), 2.0)), 1.0) / w0
            )
        t = min(t, max(prev, t_gauss, 10.0 * sigma, 1.0))
    return t


def cp_part_moment_contour(
    law: CompoundLaw,
    q: float,
    kind: str = "positive",
    sigma: float | None = None,
    cfg: SeriesConfig = DEFAULT_CONFIG,
) -> float:
    """E((x0 + X + Y_H)_+)^q ("positive") or the "negative"-part analogue via
    the Fourier-Laplace contour integral, q > 2.

    Integrates Gamma(q+1)/(2 pi) * M(sigma + i tau)/(sigma + i tau)^{q+1}
    over tau in [-T, T] with adaptive Gauss-Kronrod panels, T certified by
    an analytic envelope.  ``sigma=None`` puts the abscissa at the saddle
    point (:func:`saddle_abscissa`); when the search for it certifies the
    positive part below ``cfg.tol`` -- in particular when x0 + X + Y_H <= 0
    almost surely -- the result is 0.0 without integrating.  The two
    half-lines are evaluated independently (no conjugate folding), so a
    genuinely complex result signals branch or abscissa misuse and raises
    :class:`ImaginaryResidualTooLarge`.
    """
    if not q > 2.0:
        raise ExponentTooSmall(f"contour engine requires q > 2, got {q}")
    if kind == "negative":
        return cp_part_moment_contour(law.reflected(), q, "positive", sigma, cfg)
    if kind != "positive":
        raise ValueError(f"kind must be 'positive' or 'negative', got {kind!r}")
    terms = _mgf_terms(law)
    if sigma is None:
        sigma = _saddle_abscissa(terms, q, cfg.tol)
        if sigma is None:
            return 0.0
    if not sigma > 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    gamma_q1 = math.exp(math.lgamma(q + 1.0))
    scale = gamma_q1 / (2.0 * math.pi)
    t_max = _contour_truncation(terms, q, sigma, cfg.tol / (2.0 * scale))

    def integrand(taus: np.ndarray) -> np.ndarray:
        # |z| >= sigma on the line
        return _mgf(terms, sigma, taus, sigma, q + 1.0)

    total, _ = adaptive_gauss_kronrod(integrand, -t_max, t_max, cfg.tol / (2.0 * scale))
    value = scale * total
    resid = abs(value.imag)
    if resid > max(50.0 * cfg.tol, 5e-12 * (1.0 + abs(value.real))):
        raise ImaginaryResidualTooLarge(
            f"imaginary residual {resid:.3e} for q={q}, sigma={sigma}"
        )
    return float(value.real)


class CrossCheckedMoment(NamedTuple):
    value: float  # series-engine value
    contour: float  # positive + negative contour parts
    rel_discrepancy: float


def cp_abs_moment_crosscheck(
    law: CompoundLaw, q: float, cfg: SeriesConfig = DEFAULT_CONFIG
) -> CrossCheckedMoment:
    """Series value cross-checked against the contour engine (q > 2 only).

    Reports the relative discrepancy between the engines; the series value
    is the one returned as authoritative.
    """
    series = cp_abs_moment_series(law, q, cfg)
    contour = cp_part_moment_contour(law, q, "positive", cfg=cfg) + cp_part_moment_contour(
        law, q, "negative", cfg=cfg
    )
    rel = abs(series - contour) / max(1.0, abs(series))
    return CrossCheckedMoment(series, contour, rel)
