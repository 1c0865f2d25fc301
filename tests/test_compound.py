"""Compound-law moments: series engine, contour engine, and their agreement."""

import cmath
import math
import re

import mpmath
import numpy as np
import pytest
from scipy import stats

from conftest import brute_compound_abs, exact_integer_moment, single_atom
from sharp_rosenthal.bounds import _budget, q_scan
from sharp_rosenthal.compound import (
    CompoundLaw,
    ShiftedMomentEvaluator,
    _contour_truncation,
    _law_grid,
    _moment_grid,
    cp_abs_moment_crosscheck,
    cp_abs_moment_series,
    cp_mgf,
    cp_part_moment_contour,
    cp_part_moment_series,
    r1_exp,
    saddle_abscissa,
)
from sharp_rosenthal.errors import (
    ExponentTooSmall,
    ImaginaryResidualTooLarge,
    TailNotConverged,
    TooManyAtoms,
)
from sharp_rosenthal.measures import DiscreteRV, LevyVarianceMeasure
from sharp_rosenthal.poisson import (
    DEFAULT_CONFIG,
    SeriesConfig,
    certified_lower_cutoff,
    certified_upper_cutoff,
    gaussian_abs_moment,
    gaussian_norm_bound,
    poisson_central_moment_even,
    poisson_centered_norm_bound,
    poisson_pmf,
)


def random_law(rng, max_atoms=2, gaussian=True) -> CompoundLaw:
    n = int(rng.integers(1, max_atoms + 1))
    atoms = []
    for _ in range(n):
        u = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
        atoms.append((u, float(rng.uniform(0.1, 2.0))))
    if gaussian and rng.random() < 0.4:
        atoms.append((0.0, float(rng.uniform(0.1, 1.0))))
    if rng.random() < 0.5:
        X = DiscreteRV.delta(0.0)
    else:
        X = DiscreteRV.two_point_zero_mean(-float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.3, 1.5)))
    x0 = float(rng.uniform(-0.5, 0.5)) if rng.random() < 0.3 else 0.0
    return CompoundLaw(x0, X, LevyVarianceMeasure(atoms))


def oracle_law(rng, first_decades=(-2.0, 3.0)) -> CompoundLaw:
    """1-3 atoms at |u| in [0.1, 3.2], the first with lam log-uniform in
    [1e-2, 1e3] (10**first_decades) and the others in [1e-2, 1], a Gaussian
    part in 30% of laws, and X with 1-3 atoms; larger second and third
    intensities compose grids beyond max_terms."""
    atoms = []
    for k in range(int(rng.integers(1, 4))):
        u = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.2))
        lam = float(10 ** rng.uniform(*(first_decades if k == 0 else (-2.0, 0.0))))
        atoms.append((u, u * u * lam))
    if rng.random() < 0.3:
        atoms.append((0.0, float(rng.uniform(0.1, 2.0))))
    n = int(rng.integers(1, 4))
    X = DiscreteRV(zip(rng.uniform(-2.0, 2.0, n).tolist(), rng.dirichlet(np.ones(n)).tolist()))
    return CompoundLaw(0.0, X, LevyVarianceMeasure(atoms))


class TestR1Exp:
    def test_at_zero(self):
        assert r1_exp(0.0) == 0.5

    def test_at_one(self):
        assert r1_exp(1.0) == pytest.approx(math.e - 2.0, rel=1e-15)

    def test_taylor_branch(self):
        series = sum(1e-6**j / math.factorial(j + 2) for j in range(9))
        assert r1_exp(1e-6) == pytest.approx(series, abs=1e-15)

    def test_complex_matches_direct(self):
        z = 0.8 + 1.3j
        direct = (cmath.exp(z) - 1.0 - z) / (z * z)
        assert abs(r1_exp(z) - direct) < 1e-14

    def test_no_cancellation_near_cut(self):
        # just above the Taylor switch the stable expm1 form must hold
        u = 0.12
        series = sum(u**j / math.factorial(j + 2) for j in range(16))
        assert r1_exp(u) == pytest.approx(series, rel=1e-14)

    @pytest.mark.parametrize("radius", [1.01e-4, 1e-3, 1e-2, 0.099, 0.101, 2.0])
    def test_against_mpmath_on_circles(self, radius):
        # both sides of the Taylor cut, on the real line and off it
        rng = np.random.default_rng(7)
        angles = np.concatenate(([0.0, math.pi / 2, math.pi], rng.uniform(0.0, 2 * math.pi, 200)))
        for z in (radius * np.exp(1j * angles)).tolist():
            with mpmath.workdps(40):
                w = mpmath.mpc(z)
                exact = complex((mpmath.exp(w) - 1 - w) / (w * w))
            assert abs(r1_exp(z) - exact) <= 1e-14 * abs(exact), z
        for u in (radius, -radius):
            with mpmath.workdps(40):
                exact = float((mpmath.expm1(u) - u) / mpmath.mpf(u) ** 2)
            assert r1_exp(u) == pytest.approx(exact, rel=1e-14)


class TestCpMgf:
    def test_gaussian_component(self):
        law = CompoundLaw.pure(single_atom(0.0, 0.7))
        for s in (0.3, 1.0, 2.0):
            assert cp_mgf(law, complex(s)) == pytest.approx(math.exp(s * s * 0.7 / 2.0))

    def test_centered_poisson_identity(self):
        c, lam = 0.8, 1.7
        law = CompoundLaw.pure(single_atom(c, c * c * lam))
        for s in (0.5, 1.0):
            expected = math.exp(lam * (math.exp(s * c) - 1.0 - s * c))
            assert cp_mgf(law, complex(s)) == pytest.approx(expected, rel=1e-13)

    def test_degenerate_law(self):
        law = CompoundLaw.pure(LevyVarianceMeasure())
        for z in (0.5 + 0j, 1.0 + 2.0j, 3.0 - 1.0j):
            assert cp_mgf(law, z) == pytest.approx(1.0)

    def test_modulus_bound_on_vertical_lines(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            law = random_law(rng)
            sigma = float(rng.uniform(0.1, 1.5))
            tau = float(rng.uniform(-20, 20))
            assert abs(cp_mgf(law, complex(sigma, tau))) <= abs(cp_mgf(law, complex(sigma))) * (
                1 + 1e-12
            )


class TestSeriesEngine:
    def test_centered_poisson_fourth(self):
        law = CompoundLaw.pure(single_atom(1.0, 1.0))
        assert cp_abs_moment_series(law, 4.0) == pytest.approx(4.0, rel=1e-11)

    def test_gaussian_fourth(self):
        law = CompoundLaw.pure(single_atom(0.0, 1.0))
        assert cp_abs_moment_series(law, 4.0) == pytest.approx(3.0, rel=1e-11)

    def test_variance_additivity(self):
        law = CompoundLaw.pure(LevyVarianceMeasure([(1.0, 0.5), (-1.0, 0.5)]))
        assert cp_abs_moment_series(law, 2.0) == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("q", [6, 8])
    def test_even_moments_within_budget_of_cumulant_oracle(self, q):
        # the exact moment from cumulants shares no code with the series
        rng = np.random.default_rng(q)
        for _ in range(80):
            law = oracle_law(rng)
            value = cp_abs_moment_series(law, float(q))
            gap = abs(value - float(exact_integer_moment(law, q)))
            assert gap <= _budget(value, DEFAULT_CONFIG), law

    @pytest.mark.parametrize("q", [6, 8])
    def test_even_moments_within_budget_at_large_intensity(self, q):
        # the first lam log-uniform in [1e3, 1e4], where a log-space pmf
        # exponent k log lam - log k! rounds past the budget.  A draw whose
        # composed grid exceeds max_terms is refused, not evaluated; it stays
        # in the stream and is counted
        rng = np.random.default_rng(100 + q)
        refused = 0
        for _ in range(40):
            law = oracle_law(rng, first_decades=(3.0, 4.0))
            try:
                value = cp_abs_moment_series(law, float(q))
            except TailNotConverged as exc:
                assert "composed grid would exceed max_terms" in str(exc)
                refused += 1
                continue
            gap = abs(value - float(exact_integer_moment(law, q)))
            assert gap <= _budget(value, DEFAULT_CONFIG), law
        assert refused <= 10

    def test_degenerate_law_zero(self):
        law = CompoundLaw.pure(LevyVarianceMeasure())
        for q in (2.5, 4.0, 6.0):
            assert cp_abs_moment_series(law, q) == 0.0

    def test_atom_cap(self):
        levy = LevyVarianceMeasure([(1.0, 0.1), (2.0, 0.1), (-1.0, 0.1), (-2.0, 0.1)])
        with pytest.raises(TooManyAtoms):
            cp_abs_moment_series(CompoundLaw.pure(levy), 4.0)

    def test_scaling_law(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            law = random_law(rng)
            q = float(rng.uniform(2.5, 7.0))
            for kappa in (0.5, 2.0):
                scaled = CompoundLaw(
                    kappa * law.x0,
                    DiscreteRV([(kappa * v, p) for v, p in law.background.atoms]),
                    LevyVarianceMeasure([(kappa * u, kappa**2 * w) for u, w in law.levy.atoms]),
                )
                assert cp_abs_moment_series(scaled, q) == pytest.approx(
                    kappa**q * cp_abs_moment_series(law, q), rel=1e-9
                )

    def test_part_moment_symmetric_law(self):
        law = CompoundLaw.pure(LevyVarianceMeasure([(1.0, 0.5), (-1.0, 0.5), (0.0, 0.3)]))
        pos = cp_part_moment_series(law, 3.5, "positive")
        neg = cp_part_moment_series(law, 3.5, "negative")
        assert pos == pytest.approx(neg, rel=1e-10)

    def test_shifted_moments_match_pointwise(self):
        rng = np.random.default_rng(41)
        law = random_law(rng, gaussian=False)
        shifts = np.array([-1.2, 0.0, 0.7, 2.5])
        batch = ShiftedMomentEvaluator(law, 3.5, 2.5)(shifts)
        for s, expected in zip(shifts, batch):
            single = cp_abs_moment_series(CompoundLaw(law.x0 + s, law.background, law.levy), 3.5)
            assert single == pytest.approx(expected, rel=1e-10)
        # a moment is bit for bit the series engine's, whatever shares its call
        law = CompoundLaw.pure(LevyVarianceMeasure([(-1.0, 1.0)]))
        pair = ShiftedMomentEvaluator(law, 5.0, 0.0)(np.array([0.0, -0.0]))
        assert pair[0] == cp_abs_moment_series(law, 5.0)
        # 8 379 grid points make blocks of 1 001 shifts; the shifts on either
        # side of the first block edge match single calls (no two atoms are
        # opposite, so the grid is the full 21 x 21 x 19 product)
        law = CompoundLaw.pure(LevyVarianceMeasure([(0.7, 0.5), (-0.71, 0.5), (1.3, 1.0)]))
        evaluate = ShiftedMomentEvaluator(law, 5.0, 1.0)
        assert (1 << 23) // evaluate._grid.values.size == 1001
        shifts = np.linspace(-1.0, 1.0, 1004)
        edge = evaluate(shifts)[999:1003]
        assert edge.tolist() == [evaluate(shifts[k : k + 1])[0] for k in range(999, 1003)]

    def test_evaluator_shift_bound(self):
        law = CompoundLaw.pure(LevyVarianceMeasure([(1.0, 0.8), (0.0, 0.3)]))
        evaluate = ShiftedMomentEvaluator(law, 4.5, 2.0)
        evaluate(np.array([-2.0 * (1.0 + 1e-13), 0.5]))
        with pytest.raises(ValueError, match="exceeds certified bound"):
            evaluate(np.array([0.5, 2.0 * (1.0 + 1e-11)]))
        with pytest.raises(ValueError, match="exceeds certified bound"):
            evaluate(np.array([-3.0]))
        # a NaN shift evaluates to NaN and raises nothing, but does not hide
        # another shift's excess
        values = evaluate(np.array([0.7, math.nan, -1.0]))
        assert math.isnan(values[1])
        assert values[[0, 2]].tolist() == evaluate(np.array([0.7, -1.0])).tolist()
        assert math.isnan(evaluate(np.array([math.nan]))[0])
        with pytest.raises(ValueError, match="exceeds certified bound"):
            evaluate(np.array([math.nan, 10.0]))

    def test_evaluator_takes_one_row(self):
        law = CompoundLaw.pure(LevyVarianceMeasure([(1.0, 0.8), (0.0, 0.3)]))
        evaluate = ShiftedMomentEvaluator(law, 4.5, 2.0)
        with pytest.raises(ValueError, match=r"one row, got shape \(2, 2\)"):
            evaluate(np.zeros((2, 2)))
        with pytest.raises(ValueError, match=r"one row, got shape \(\)"):
            evaluate(np.float64(0.5))

    def test_part_moments_decompose_and_reflect(self):
        # pos + neg = abs on one grid, and the negative part is the positive
        # part of the reflected law, with and without a Gaussian part
        rng = np.random.default_rng(59)
        gaussian = 0
        for _ in range(30):
            law = random_law(rng, max_atoms=3)
            gaussian += law.levy.gaussian_variance() > 0.0
            q = float(rng.uniform(2.1, 7.0))
            total = cp_abs_moment_series(law, q)
            pos = cp_part_moment_series(law, q, "positive")
            neg = cp_part_moment_series(law, q, "negative")
            assert pos + neg == pytest.approx(total, rel=1e-13, abs=1e-12)
            reflected = cp_part_moment_series(law.reflected(), q, "positive")
            assert neg == pytest.approx(reflected, rel=1e-13, abs=1e-12)
        assert 0 < gaussian < 30

    @pytest.mark.parametrize("gaussian", [False, True])
    def test_evaluator_part_kinds_match_series(self, gaussian):
        rng = np.random.default_rng(61)
        for _ in range(6):
            law = random_law(rng, gaussian=False)
            if gaussian:
                levy = LevyVarianceMeasure(law.levy.atoms + ((0.0, 0.4),))
                law = CompoundLaw(law.x0, law.background, levy)
            q = float(rng.uniform(2.1, 7.0))
            shifts = rng.uniform(-2.0, 2.0, size=5)
            for kind in ("abs", "positive", "negative"):
                batch = ShiftedMomentEvaluator(law, q, 2.0, kind=kind)(shifts)
                for s, value in zip(shifts, batch):
                    shifted = law.shifted(float(s))
                    if kind == "abs":
                        single = cp_abs_moment_series(shifted, q)
                    else:
                        single = cp_part_moment_series(shifted, q, kind)
                    assert value == pytest.approx(single, rel=1e-10, abs=1e-12)
        # on a grid of over 1 000 points a value does not depend on the
        # other shifts of its call, to the last bit
        atoms = [(0.3, 0.5), (-1.1, 0.9)] + ([(0.0, 0.2)] if gaussian else [])
        law = CompoundLaw(0.0, DiscreteRV.two_point_zero_mean(-0.8, 1.2), LevyVarianceMeasure(atoms))
        assert _moment_grid(law, 5.5, DEFAULT_CONFIG, 2.0).values.size >= 1000
        xs = np.linspace(-2.0, 2.0, 7)
        for kind in ("abs", "positive", "negative"):
            evaluate = ShiftedMomentEvaluator(law, 5.5, 2.0, kind=kind)
            batch = evaluate(xs)
            assert [evaluate(xs[k : k + 1])[0] for k in range(xs.size)] == batch.tolist()


def _multi_exponent_draw(rng, kappa, gaussian):
    """(law, q, shift bound) scaled by ``kappa``: 1-2 atoms at
    |u| in kappa [0.5, 2] with intensity w/u^2 = lam in [0.125, 8], X = 0 or a
    two-point law on kappa [-1.5, 1.5], optionally a Gaussian part of
    variance kappa^2 [0.02, 0.2], and a shift bound in kappa [0, 2]."""
    atoms = []
    for sign in rng.permutation([-1.0, 1.0])[: int(rng.integers(1, 3))]:
        u = float(sign * rng.uniform(0.5, 2.0))
        atoms.append((kappa * u, kappa * kappa * float(rng.uniform(0.5, 2.0))))
    if gaussian:
        atoms.append((0.0, kappa * kappa * float(rng.uniform(0.02, 0.2))))
    if rng.random() < 0.5:
        X = DiscreteRV.delta(0.0)
    else:
        a, b = rng.uniform(0.3, 1.5, 2)
        X = DiscreteRV.two_point_zero_mean(-kappa * float(a), kappa * float(b))
    shift_bound = kappa * float(rng.uniform(0.0, 2.0))
    return CompoundLaw(0.0, X, LevyVarianceMeasure(atoms)), float(rng.uniform(6.0, 8.0)), shift_bound


def _rest_grid(law, skip):
    """(values, probs) of x0 + X + every Poisson atom but ``skip``, on full
    scipy pmf ranges k <= lam + 12 sqrt(lam) + 60."""
    values, probs = law.x0 + law.background.values, law.background.probs
    for j, (u, w) in enumerate(law.levy.nonzero_atoms()):
        if j != skip:
            lam = w / (u * u)
            ks = np.arange(0, int(lam + 12.0 * math.sqrt(lam)) + 61)
            values = np.add.outer(values, u * (ks - lam)).ravel()
            probs = np.multiply.outer(probs, stats.poisson.pmf(ks, lam)).ravel()
    return values, probs


def _brute_abs(shifts, values, probs, sd, r):
    """E|s + V + sd Z|^r for each s, V on (values, probs)."""
    pts = shifts[:, None] + values[None, :]
    moments = gaussian_abs_moment(pts, sd, r) if sd else np.abs(pts) ** r
    return moments @ probs


class TestMultiExponentGrid:
    """One grid certified at every exponent in [q - 4, q] and every shift
    |x| <= shift_bound, as variation._derivative_sum sums orders 0..4 on it."""

    @pytest.mark.parametrize(
        "kappa, gaussian, seed",
        [(1.0, False, 71), (1.0, True, 72), (2e-3, False, 73), (2e-3, True, 74)],
        ids=["unit", "unit-gaussian", "small", "small-gaussian"],
    )
    def test_discarded_head_and_tail_within_share(self, kappa, gaussian, seed):
        # at unit scale the highest exponent sets every window; scaled by
        # 2e-3 each envelope term is below 1, so the lowest one does
        rng = np.random.default_rng(seed)
        cfg = SeriesConfig(tol=1e-12)
        for _ in range(8):
            law, q, shift_bound = _multi_exponent_draw(rng, kappa, gaussian)
            grid = _law_grid(law, q, cfg, shift_bound, q_min=q - 4.0)
            nz = law.levy.nonzero_atoms()
            share = cfg.tol / (4.0 * len(nz))
            shifts = np.array([-shift_bound, shift_bound])
            sd = math.sqrt(law.levy.gaussian_variance())
            for i, ((u, w), (lo, hi)) in enumerate(zip(nz, grid.windows)):
                lam = w / (u * u)
                values, probs = _rest_grid(law, i)
                head = np.arange(0, lo)
                tail = np.arange(hi + 1, hi + int(12.0 * math.sqrt(lam)) + 200)
                for r in q - np.arange(5.0):
                    for ks in (head, tail):
                        if ks.size == 0:
                            continue
                        pmf = stats.poisson.pmf(ks, lam)
                        lost = max(
                            pmf @ _brute_abs(x + u * (ks - lam), values, probs, sd, r)
                            for x in shifts
                        )
                        assert lost <= share, (law, q, shift_bound, i, r, lost / share)

    @pytest.mark.parametrize("kappa", [1.0, 2e-3], ids=["unit", "small"])
    def test_window_is_union_of_end_windows(self, kappa):
        # _law_grid certifies each window at q and tests it once at q_min;
        # the result is the union of the windows certified at either end,
        # with the offset M_i/|u_i| taken at q for both
        rng = np.random.default_rng(76)
        cfg = SeriesConfig(tol=1e-12)
        widened = 0
        for _ in range(24):
            law, q, shift_bound = _multi_exponent_draw(rng, kappa, bool(rng.random() < 0.5))
            q_min = q - 4.0
            grid = _law_grid(law, q, cfg, shift_bound, q_min=q_min)
            nz = law.levy.nonzero_atoms()
            sd = math.sqrt(law.levy.gaussian_variance())
            base = shift_bound + max(abs(x) for x, _ in law.background.atoms)
            base += sd * gaussian_norm_bound(q) if sd else 0.0
            norms = [abs(u) * poisson_centered_norm_bound(w / (u * u), q) for u, w in nz]
            side = cfg.tol / (4.0 * len(nz))
            for i, ((u, w), window) in enumerate(zip(nz, grid.windows)):
                offset = (base + sum(norms[:i] + norms[i + 1 :])) / abs(u)
                ends = [
                    (
                        certified_lower_cutoff(w / (u * u), r, side, offset, r * math.log(abs(u))),
                        certified_upper_cutoff(
                            w / (u * u), r, side, cfg.max_terms, offset, r * math.log(abs(u))
                        ),
                    )
                    for r in (q_min, q)
                ]
                assert window == (min(e[0] for e in ends), max(e[1] for e in ends)), (law, q, i)
                widened += window != ends[1]
        # at unit scale q sets the windows; scaled by 2e-3, q_min widens them
        assert widened > 0 if kappa < 1.0 else widened == 0

    @pytest.mark.parametrize("kappa", [1.0, 2e-3], ids=["unit", "small"])
    def test_pruned_mass_within_budget(self, kappa):
        # a Gaussian grid drops light points; at every exponent and at both
        # ends of the shift range the dropped contribution stays under tol/4.
        # The kept points' terms cancel exactly in one fsum with the full
        # grid's, which leaves the dropped ones without rounding of the total.
        rng = np.random.default_rng(75)
        # moments of the small draws are some kappa^r smaller, so is the tolerance
        cfg = SeriesConfig(tol=1e-13 * kappa**4)
        pruned_any = False
        for _ in range(12):
            law, q, shift_bound = _multi_exponent_draw(rng, kappa, True)
            full = _law_grid(law, q, cfg, shift_bound, q_min=q - 4.0)
            kept = _moment_grid(law, q, cfg, shift_bound, q_min=q - 4.0)
            pruned_any |= kept.values.size < full.values.size
            for r in q - np.arange(5.0):
                for x in (-shift_bound, shift_bound):
                    terms = [
                        full.probs * gaussian_abs_moment(x + full.values, full.sd, r),
                        -kept.probs * gaussian_abs_moment(x + kept.values, kept.sd, r),
                    ]
                    lost = math.fsum(np.concatenate(terms).tolist())
                    assert lost <= cfg.tol / 4.0, (law, q, shift_bound, r, x, lost)
        assert pruned_any


class TestOppositePairLattice:
    """Atoms at -u and u compose as one lattice u (d - (lam_u - lam_-u)) over
    the differences d = k - k' of their counts, each atom in its own window."""

    X3 = DiscreteRV([(-1.2, 0.3), (0.3, 0.4), (0.8, 0.3)])
    # windows of 21 and 31 counts: 651 multiply-adds make 3 x 51 points,
    # where the product would hold 3 x 21 x 31 = 1 953
    PAIR = LevyVarianceMeasure([(0.8, 0.64 * 3.0), (-0.8, 0.64 * 1.0)])

    @pytest.mark.parametrize(
        "atoms, windows",
        [
            (
                [(0.9, 0.81 * 2.0), (-0.9, 0.81 * 2.0), (1.3, 1.69 * 0.7)],
                ((0, 26), (0, 26), (0, 19)),
            ),
            ([(0.9, 0.81 * 2.0), (-0.9, 0.81 * 0.5)], ((0, 16), (0, 26))),
            (
                [(-0.9, 0.81 * 3.0), (0.9, 0.81 * 1.0), (-0.4, 0.16 * 1.5)],
                ((0, 31), (0, 22), (0, 20)),
            ),
            (
                [(0.9, 0.81 * 2.0), (-0.9, 0.81 * 0.5), (-1.4, 1.96 * 0.8)],
                ((0, 19), (0, 16), (0, 26)),
            ),
        ],
        ids=["pair-then-third", "unequal-lam", "third-between", "third-first"],
    )
    def test_windows_kept_and_pairs_summed(self, atoms, windows):
        # the windows and tail are those each atom had in the full product
        law = CompoundLaw(0.0, self.X3, LevyVarianceMeasure(atoms))
        grid = _law_grid(law, 5.0, DEFAULT_CONFIG)
        assert grid.windows == windows
        assert grid.tail_bound == DEFAULT_CONFIG.tol / 2.0
        nz = law.levy.nonzero_atoms()
        pair = [i for i, (u, _) in enumerate(nz) if any(u == -v for v, _ in nz)]
        (lo_a, hi_a), (lo_b, hi_b) = (windows[i] for i in pair)
        rest = [hi - lo + 1 for i, (lo, hi) in enumerate(windows) if i not in pair]
        assert grid.values.size == 3 * (hi_a - lo_a + hi_b - lo_b + 1) * math.prod(rest)
        # every point of the product of the same windows is in the lattice:
        # each moment sums the same terms, grouped
        values, probs = self.X3.values, self.X3.probs
        for (u, w), (lo, hi) in zip(nz, windows):
            ks = np.arange(lo, hi + 1, dtype=float)
            values = np.add.outer(values, u * (ks - w / (u * u))).ravel()
            probs = np.multiply.outer(probs, stats.poisson.pmf(ks, w / (u * u))).ravel()
        for f in (np.ones_like, lambda v: v**3, lambda v: np.abs(v) ** 5.0):
            expected = probs @ f(values)
            assert grid.probs @ f(grid.values) == pytest.approx(expected, rel=1e-13, abs=1e-15)

    def test_pure_pair_masses_are_the_law_of_the_difference(self):
        # u (k - lam_u) - u (k' - lam_-u) depends on d = k - k' only; the
        # lattice lists d in increasing order with the product's mass on each
        u, lam_u, lam_v = 0.9, 2.0, 0.5
        law = CompoundLaw.pure(LevyVarianceMeasure([(u, u * u * lam_u), (-u, u * u * lam_v)]))
        grid = _law_grid(law, 5.0, DEFAULT_CONFIG)
        (lo_v, hi_v), (lo_u, hi_u) = grid.windows
        k, k_v = np.meshgrid(np.arange(lo_u, hi_u + 1), np.arange(lo_v, hi_v + 1), indexing="ij")
        mass = np.outer(stats.poisson.pmf(k[:, 0], lam_u), stats.poisson.pmf(k_v[0], lam_v))
        d = (k - k_v).ravel()
        expected = np.bincount(d - d.min(), weights=mass.ravel())
        assert grid.probs == pytest.approx(expected, rel=1e-12, abs=1e-300)
        diffs = np.arange(d.min(), d.max() + 1)
        assert grid.values == pytest.approx(u * (diffs - (lam_u - lam_v)), rel=1e-15, abs=1e-15)

    def test_convolution_over_max_terms_refused(self):
        law = CompoundLaw(0.0, self.X3, self.PAIR)
        with pytest.raises(TailNotConverged, match="lattice convolution"):
            _law_grid(law, 5.0, SeriesConfig(max_terms=600))

    @pytest.mark.parametrize(
        "atoms, max_terms, sizes",
        [
            ([(0.7, 0.49 * 2.0), (1.3, 1.69 * 1.0)], 100, "(78 x 22)"),
            ([(0.8, 0.64 * 3.0), (-0.8, 0.64 * 1.0), (1.3, 1.69 * 0.7)], 1000, "(153 x 20)"),
        ],
        ids=["product", "pair-then-third"],
    )
    def test_composed_grid_over_max_terms_refused(self, atoms, max_terms, sizes):
        # X3 times the first factor fits; the next factor would not
        law = CompoundLaw(0.0, self.X3, LevyVarianceMeasure(atoms))
        message = f"composed grid would exceed max_terms={max_terms} {sizes}"
        with pytest.raises(TailNotConverged, match=re.escape(message)):
            _law_grid(law, 5.0, SeriesConfig(max_terms=max_terms))

    def test_law_the_product_refused_matches_brute(self):
        law = CompoundLaw(0.0, self.X3, self.PAIR)
        cfg = SeriesConfig(max_terms=700)
        grid = _law_grid(law, 5.0, cfg)
        assert grid.windows == ((0, 20), (0, 30)) and grid.values.size == 3 * 51
        value = cp_abs_moment_series(law, 5.0, cfg)
        brute = brute_compound_abs(self.X3, [(0.8, 3.0), (-0.8, 1.0)], 5.0)
        assert value == pytest.approx(brute, rel=1e-12)


class TestContourEngine:
    def test_gaussian_positive_part(self):
        law = CompoundLaw.pure(single_atom(0.0, 1.0))
        assert cp_part_moment_contour(law, 4.0, "positive") == pytest.approx(1.5, rel=1e-10)

    def test_poisson_parts_sum_to_cumulant_value(self):
        law = CompoundLaw.pure(single_atom(1.0, 1.0))
        pos = cp_part_moment_contour(law, 4.0, "positive")
        neg = cp_part_moment_contour(law, 4.0, "negative")
        assert pos + neg == pytest.approx(4.0, rel=1e-10)

    def test_fractional_dual_engine(self):
        law = CompoundLaw.pure(single_atom(1.0, 1.0))
        pos = cp_part_moment_contour(law, 5.5, "positive")
        neg = cp_part_moment_contour(law, 5.5, "negative")
        series = cp_abs_moment_series(law, 5.5)
        assert pos + neg == pytest.approx(series, rel=1e-8)

    def test_two_atom_dual_engine(self):
        law = CompoundLaw.pure(LevyVarianceMeasure([(1.0, 0.5), (-2.0, 0.5)]))
        checked = cp_abs_moment_crosscheck(law, 5.0)
        assert checked.rel_discrepancy < 1e-7

    def test_rejects_small_exponent(self):
        law = CompoundLaw.pure(single_atom(1.0, 1.0))
        with pytest.raises(ExponentTooSmall):
            cp_part_moment_contour(law, 2.0, "positive")

    def test_engine_equivalence_random(self):
        rng = np.random.default_rng(2024)
        qs = [4.5, 5.0, 5.5, 6.0, 7.0]
        for i in range(10):
            law = random_law(rng)
            q = qs[i % len(qs)]
            checked = cp_abs_moment_crosscheck(law, q)
            assert checked.rel_discrepancy < 1e-7, (law, q)

    def test_imaginary_gate_trips_at_fixed_abscissa(self):
        # at sigma = 1/(1 + |u|) the integrand is ~sigma^-8 near tau = 0 and
        # cancels down to a negative part of 3e-5, leaving ~1e-10 of roundoff
        u, w = 2.9820664757010262, 0.682124363282628
        law = CompoundLaw.pure(single_atom(u, w))
        with pytest.raises(ImaginaryResidualTooLarge):
            cp_part_moment_contour(law, 7.0, "negative", sigma=1.0 / (1.0 + u))
        series = cp_part_moment_series(law, 7.0, "negative")
        assert cp_part_moment_contour(law, 7.0, "negative") == pytest.approx(series, rel=1e-10)

    @pytest.mark.parametrize("q", [3.0, 5.0, 7.0])
    def test_vanishing_positive_part(self, q):
        # no Gaussian part, no atom at u > 0, and x0 + max X + sum w/|u| <= 0
        laws = [
            CompoundLaw(-0.6, DiscreteRV.delta(0.0), LevyVarianceMeasure([(-1.0, 0.5)])),
            CompoundLaw(-0.5, DiscreteRV.delta(0.0), LevyVarianceMeasure([(-1.0, 0.5)])),
            CompoundLaw(
                -0.9,
                DiscreteRV.two_point_zero_mean(-0.4, 0.4),
                LevyVarianceMeasure([(-1.5, 0.3), (-0.5, 0.1)]),
            ),
        ]
        for law in laws:
            for case, side in ((law, "positive"), (law.reflected(), "negative")):
                series = cp_part_moment_series(case, q, side)
                assert cp_part_moment_contour(case, q, side) == 0.0
                assert series == pytest.approx(0.0, abs=DEFAULT_CONFIG.tol)

    @pytest.mark.parametrize("top", [1e-12, 1e-6, 1e-3, 3e-3, 0.1])
    def test_small_positive_part(self, top):
        # the law's upper end x0 + 0.3 + 1.5 sits at ``top`` > 0; the saddle
        # sigma ~ (q+1)/top grows without bound as top -> 0, so the engine
        # must neither overflow nor lose the part, which is ~0.1 top^q
        law = CompoundLaw(
            -1.8 + top, DiscreteRV.two_point_zero_mean(-0.3, 0.3), LevyVarianceMeasure([(-1.0, 1.5)])
        )
        for q in (2.5, 3.0, 7.0):
            series = cp_part_moment_series(law, q)
            contour = cp_part_moment_contour(law, q)
            assert contour == pytest.approx(series, abs=DEFAULT_CONFIG.tol)


class TestSaddleAbscissa:
    def test_solves_equation_and_minimises(self):
        from scipy.optimize import minimize_scalar

        rng = np.random.default_rng(77)
        for i in range(12):
            k = int(rng.integers(2, 4))
            background = DiscreteRV(zip(rng.uniform(-1.5, 1.5, k), rng.dirichlet(np.ones(k))))
            law = CompoundLaw(float(rng.uniform(-1.0, 1.0)), background, random_law(rng).levy)
            q = 4.5 + 0.25 * i
            sigma = saddle_abscissa(law, q, DEFAULT_CONFIG.tol)
            # sigma K'(sigma) = q + 1, with K' = (log M)' by a complex step through cp_mgf
            h = 1e-20
            slope = cmath.log(cp_mgf(law, complex(sigma, h))).imag / h
            assert sigma * slope == pytest.approx(q + 1.0, rel=1e-10), (law, q)
            found = minimize_scalar(
                lambda s: math.log(cp_mgf(law, complex(s)).real) - (q + 1.0) * math.log(s),
                bounds=(0.25 * sigma, 4.0 * sigma),
                method="bounded",
                options={"xatol": 1e-10 * sigma},
            )
            assert found.x == pytest.approx(sigma, rel=1e-6), (law, q)


class TestContourTruncation:
    @pytest.mark.parametrize("q", [2.5, 4.0, 5.0, 7.0])
    def test_polynomial_tail_certified_against_passed_tol(self, q):
        # without a Gaussian part the discarded tail of int M(z)/z^{q+1} dtau
        # is at most 2 M(sigma) T^{-q}/q, and T is the smallest such width
        # above its floor max(10 sigma, 1)
        rng = np.random.default_rng(int(10 * q))
        for _ in range(4):
            law = random_law(rng, gaussian=False)
            sigma = saddle_abscissa(law, q, DEFAULT_CONFIG.tol)
            tol = 1e-12
            t = _contour_truncation(law, q, sigma, tol)
            tail = 2.0 * cp_mgf(law, complex(sigma)).real * t ** (-q) / q
            assert tail <= tol * (1.0 + 1e-12)
            assert t == max(10.0 * sigma, 1.0) or tail >= tol * (1.0 - 1e-9)

    @pytest.mark.parametrize("q", [2.5, 4.0, 5.0, 7.0])
    def test_gaussian_tail_certified_against_passed_tol(self, q):
        # Gaussian variance w0 = 0.6: the tail also has the bound
        # 2 M(sigma) sigma^{-q-1} e^{-w0 T^2/2}/(w0 T), and T takes the shorter
        law = CompoundLaw(
            0.2, DiscreteRV.two_point_zero_mean(-0.5, 0.5), LevyVarianceMeasure([(1.3, 0.4), (0.0, 0.6)])
        )
        sigma = saddle_abscissa(law, q, DEFAULT_CONFIG.tol)
        m_sigma = cp_mgf(law, complex(sigma)).real
        for tol in (1e-8, 1e-12, 1e-16):
            t = _contour_truncation(law, q, sigma, tol)
            poly = 2.0 * m_sigma * t ** (-q) / q
            gauss = 2.0 * m_sigma * sigma ** (-q - 1.0) * math.exp(-0.3 * t * t) / (0.6 * t)
            assert min(poly, gauss) <= tol * (1.0 + 1e-12)


class TestScanAgainstBrute:
    """q_scan composes two-atom laws over windows [L, K] of each Poisson
    atom; its best values match direct summation over full pmf grids."""

    @pytest.mark.parametrize(
        "p, q, A, X",
        [
            (5.5, 5.2, 1.5, DiscreteRV.rademacher()),
            (5.2, 5.0, 1.8, DiscreteRV([(-0.5, 0.3), (0.1, 0.5), (0.5, 0.2)])),
        ],
    )
    def test_best_value_matches_brute(self, p, q, A, X):
        result = q_scan(p, q, A, 1.0, X)
        best = result.best_point
        atoms = [(best.c1, best.lambda1), (best.c2, best.lambda2)]
        assert result.best_value == pytest.approx(brute_compound_abs(X, atoms, q), rel=1e-12)
        # the scan reaches atoms with lam ~ 1e4, where the window is far
        # narrower than [0, K]; against the same pmf summed from k = 0 the
        # window loses no more than its share of the tolerance
        evaluated = [cell for cell in result.cells if cell.status == "evaluated"]
        widest = max(evaluated, key=lambda cell: max(cell.lambda1, cell.lambda2))
        assert max(widest.lambda1, widest.lambda2) > 1e3
        atoms = [(widest.c1, widest.lambda1), (widest.c2, widest.lambda2)]
        full = full_range_abs(X, atoms, q)
        assert widest.value == pytest.approx(full, rel=1e-13, abs=DEFAULT_CONFIG.tol)


def full_range_abs(X: DiscreteRV, atoms, q: float) -> float:
    """E|X + sum_i c_i (Pi_i - lam_i)|^q with the package's pmf summed over
    k_i = 0 .. 2 lam_i + 12 sqrt(lam_i) + 60, untruncated below the mean."""
    values, probs = X.values, X.probs
    for c, lam in atoms:
        if lam == 0.0:
            continue
        ks = np.arange(0, int(2.0 * lam + 12.0 * math.sqrt(lam)) + 61, dtype=float)
        values = np.add.outer(values, c * (ks - lam)).ravel()
        probs = np.multiply.outer(probs, poisson_pmf(ks, lam)).ravel()
    return math.fsum((probs * np.abs(values) ** q).tolist())
