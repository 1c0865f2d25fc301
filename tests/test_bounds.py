"""Exact bound formulas, certificates, scans, and their cross-identities."""

import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest

from conftest import (
    brute_compound_abs,
    brute_poisson_abs_central,
    brute_skellam_abs,
    brute_triple_poisson_abs,
    exact_integer_moment,
)
from sharp_rosenthal.bounds import (
    best_constant,
    classical_rosenthal_constant,
    combined_bound,
    even_p_bound,
    exact_bound,
    limit_compound,
    q_point_from_c,
    q_scan,
    scan_axis,
    solve_lambda_c,
    symmetric_bound,
)
from sharp_rosenthal import bounds, compound
from sharp_rosenthal.compound import CompoundLaw, cp_abs_moment_series
from sharp_rosenthal.errors import (
    BoundExceeded,
    NotZeroMean,
    SingularSystem,
    UnsupportedExponents,
)
from sharp_rosenthal.measures import ATOM_MERGE_TOL, DiscreteRV, LevyVarianceMeasure
from sharp_rosenthal.poisson import gaussian_abs_moment, skellam_abs_moment_about
from sharp_rosenthal.verify import random_zero_mean_rv

D0 = DiscreteRV.delta(0.0)
X3 = DiscreteRV([(-1.2, 0.3), (0.3, 0.4), (0.8, 0.3)])


def gauss_abs_q(q: float) -> float:
    return 2.0 ** (q / 2.0) * math.gamma((q + 1.0) / 2.0) / math.sqrt(math.pi)


def meets_class(point, p: float, A: float, B: float, rel: float = 1e-9) -> bool:
    """Whether the two-atom point carries second moment B and p-th moment A."""
    w1, w2 = point.weights()
    pth = abs(point.c1) ** p * point.lambda1 + abs(point.c2) ** p * point.lambda2
    return abs(w1 + w2 - B) <= rel * max(1.0, B) and abs(pth - A) <= rel * max(1.0, A)


class TestSolveLambdaC:
    def test_unit_case(self):
        lc = solve_lambda_c(5.0, 1.0, 1.0)
        assert (lc.lam, lc.c) == (1.0, 1.0)

    def test_back_substitution(self):
        lc = solve_lambda_c(4.0, 2.0, 1.0)
        assert lc.lam == pytest.approx(0.5, rel=1e-12)
        assert lc.c == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert lc.c**2 * lc.lam == pytest.approx(1.0, rel=1e-12)
        assert lc.c**4 * lc.lam == pytest.approx(2.0, rel=1e-12)

    def test_third_example(self):
        lc = solve_lambda_c(6.0, 1.0, 4.0)
        assert lc.lam == pytest.approx(8.0, rel=1e-12)
        assert lc.c == pytest.approx(0.25**0.25, rel=1e-12)
        assert lc.c**2 * lc.lam == pytest.approx(4.0, rel=1e-12)
        assert lc.c**6 * lc.lam == pytest.approx(1.0, rel=1e-12)

    def test_random_residuals(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            p = float(rng.uniform(2.1, 9.0))
            A = float(rng.uniform(0.05, 20.0))
            B = float(rng.uniform(0.05, 20.0))
            lc = solve_lambda_c(p, A, B)
            assert lc.c**2 * lc.lam == pytest.approx(B, rel=1e-10)
            assert lc.c**p * lc.lam == pytest.approx(A, rel=1e-10)

    def test_overflow_is_value_error(self):
        # lambda = (B^{p/2}/A)^{2/(p-2)} ~ 1e1203 overflows float **
        with pytest.raises(ValueError, match="overflowed"):
            solve_lambda_c(2.01, 0.001, 1000.0)


class TestEvenPBound:
    def test_p4(self):
        assert even_p_bound(4, 1.0, 1.0).value == pytest.approx(4.0, rel=1e-14)

    def test_p6(self):
        assert even_p_bound(6, 1.0, 1.0).value == pytest.approx(41.0, rel=1e-14)

    def test_scaled(self):
        assert even_p_bound(4, 16.0, 4.0).value == pytest.approx(64.0, rel=1e-13)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            even_p_bound(5, 1.0, 1.0)

    def test_series_within_budget_at_large_intensity(self):
        # lam = 3.16e4: the series bound against the exact cumulant value
        series, exact = exact_bound(6.0, 6.0, 1e-9, 1.0), even_p_bound(6, 1e-9, 1.0)
        assert abs(series.value - exact.value) <= series.error_budget

    @pytest.mark.parametrize("lam", np.logspace(0.0, 5.0, 41).tolist())
    def test_series_within_budget_over_intensity(self, lam):
        # at p = 6, B = 1 the extremal intensity is lam = A^(-1/2)
        A = lam**-2.0
        series, exact = exact_bound(6.0, 6.0, A, 1.0), even_p_bound(6, A, 1.0)
        assert abs(series.value - exact.value) <= series.error_budget


class TestExactBound:
    def test_p5_unit(self):
        result = exact_bound(5.0, 5.0, 1.0, 1.0)
        assert result.value == pytest.approx(brute_poisson_abs_central(1.0, 5.0), rel=1e-11)
        assert result.achieved_sign == "both"
        assert result.regime == "p_ge_5"
        assert (result.certificate.lam, result.certificate.c) == (1.0, 1.0)

    def test_gaussian_regime(self):
        result = exact_bound(2.5, 2.5, 1.0, 1.0)
        assert result.value == pytest.approx(1.0 + gauss_abs_q(2.5), rel=1e-11)
        assert result.regime == "p_in_2_3"

    def test_noncentered_allowed_in_low_regime(self):
        shifted = DiscreteRV([(1.0, 1.0)])
        result = exact_bound(2.5, 2.5, 1.0, 1.0, shifted)
        expected = 1.0 + gaussian_abs_moment(1.0, 1.0, 2.5)
        assert result.value == pytest.approx(expected, rel=1e-11)

    def test_noncentered_rejected_high(self):
        shifted = DiscreteRV([(1.0, 1.0)])
        with pytest.raises(NotZeroMean):
            exact_bound(5.0, 5.0, 1.0, 1.0, shifted)

    def test_open_range_gates(self):
        for p in (3.5, 4.0, 4.5):
            with pytest.raises(UnsupportedExponents):
                exact_bound(p, p, 1.0, 1.0)
        with pytest.raises(UnsupportedExponents):
            exact_bound(5.0, 4.5, 1.0, 1.0)
        with pytest.raises(UnsupportedExponents):
            exact_bound(2.5, 2.4, 1.0, 1.0)
        with pytest.raises(UnsupportedExponents):
            exact_bound(1.5, 1.5, 1.0, 1.0)

    @pytest.mark.parametrize("bound", [exact_bound, combined_bound], ids=lambda f: f.__name__)
    def test_asymmetric_background_sign(self, bound):
        # c = 1 at A = B = 1; combined_bound adds the Skellam part of (A0, B0)
        X = DiscreteRV.two_point_zero_mean(-0.25, 1.0)
        if bound is exact_bound:
            result = exact_bound(5.0, 5.0, 1.0, 1.0, X)
            symmetric = []
        else:
            result = combined_bound(5.0, 5.0, 0.5, 0.5, 1.0, 1.0, X)
            c0 = solve_lambda_c(5.0, 0.5, 0.5).c
            symmetric = [(c0, 0.25), (-c0, 0.25)]
        law_plus = CompoundLaw(0.0, X, LevyVarianceMeasure(symmetric + [(1.0, 1.0)]))
        law_minus = CompoundLaw(0.0, X, LevyVarianceMeasure(symmetric + [(-1.0, 1.0)]))
        vp = cp_abs_moment_series(law_plus, 5.0)
        vm = cp_abs_moment_series(law_minus, 5.0)
        assert result.value == pytest.approx(max(vp, vm), rel=1e-12)
        assert abs(vp - vm) > result.error_budget
        assert result.achieved_sign == ("plus" if vp > vm else "minus")

    def test_homogeneity(self):
        rng = np.random.default_rng(29)
        for regime_p in (5.0, 6.5, 2.5):
            for _ in range(4):
                A = float(rng.uniform(0.2, 3.0))
                B = float(rng.uniform(0.2, 3.0))
                base = exact_bound(regime_p, regime_p, A, B).value
                for kappa in (0.5, 2.0, 3.0):
                    scaled = exact_bound(
                        regime_p, regime_p, kappa**regime_p * A, kappa**2 * B
                    ).value
                    assert scaled == pytest.approx(kappa**regime_p * base, rel=1e-9)

    def test_monotone_in_A_and_B(self):
        for p in (5.0, 2.5):
            values_a = [exact_bound(p, p, a, 1.0).value for a in np.linspace(0.2, 3.0, 10)]
            assert all(v2 >= v1 - 1e-10 for v1, v2 in zip(values_a, values_a[1:]))
            values_b = [exact_bound(p, p, 1.0, b).value for b in np.linspace(0.2, 3.0, 10)]
            assert all(v2 >= v1 - 1e-10 for v1, v2 in zip(values_b, values_b[1:]))

    def test_p4_coincidence(self):
        # E|X +- c P~lam|^4 = A + E|X + sqrt(B) Z|^4 for zero-mean X
        rng = np.random.default_rng(37)
        for i in range(10):
            X = random_zero_mean_rv(int(rng.integers(0, 2**31)))
            A = float(rng.uniform(0.3, 3.0))
            B = float(rng.uniform(0.3, 3.0))
            lc = solve_lambda_c(4.0, A, B)
            rhs = A + cp_abs_moment_series(
                CompoundLaw(0.0, X, LevyVarianceMeasure([(0.0, B)])), 4.0
            )
            for sign in (1.0, -1.0):
                law = CompoundLaw(0.0, X, LevyVarianceMeasure([(sign * lc.c, B)]))
                assert cp_abs_moment_series(law, 4.0) == pytest.approx(rhs, rel=1e-9), i


class TestSymmetricBound:
    def test_unit_case_brute_force(self):
        result = symmetric_bound(5.0, 5.0, 1.0, 1.0)
        assert result.value == pytest.approx(brute_skellam_abs(0.5, 0.5, 1.0, 5.0), rel=1e-11)

    def test_below_general_bound(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            p = float(rng.uniform(5.0, 7.0))
            q = float(rng.uniform(5.0, p))
            A = float(rng.uniform(0.3, 3.0))
            B = float(rng.uniform(0.3, 3.0))
            sym = symmetric_bound(p, q, A, B).value
            gen = exact_bound(p, q, A, B).value
            assert sym <= gen * (1.0 + 1e-11)

    def test_background_brute_force(self):
        # X folds into the same grid as the two Skellam atoms
        X = DiscreteRV([(-1.0, 0.3), (0.2, 0.5), (1.0, 0.2)])
        p, q, A, B = 5.5, 5.2, 1.3, 0.9
        lc = solve_lambda_c(p, A, B)
        brute = brute_compound_abs(X, [(lc.c, lc.lam / 2.0), (-lc.c, lc.lam / 2.0)], q)
        assert symmetric_bound(p, q, A, B, X).value == pytest.approx(brute, rel=1e-11)

    def test_second_moment_sanity_via_engine(self):
        # the same Skellam machinery at q = 2 returns the variance c^2 lam = B
        lc = solve_lambda_c(5.0, 1.0, 1.0)
        var = skellam_abs_moment_about(lc.lam / 2.0, lc.lam / 2.0, lc.c, 0.0, 2.0)
        assert var == pytest.approx(1.0, abs=1e-10)

    def test_exponent_gate(self):
        with pytest.raises(UnsupportedExponents):
            symmetric_bound(4.5, 4.5, 1.0, 1.0)


class TestCombinedBound:
    def test_vanishing_second_block(self):
        full = combined_bound(5.0, 5.0, 1.0, 1.0, 1e-8, 1e-8)
        sym = symmetric_bound(5.0, 5.0, 1.0, 1.0)
        assert full.value == pytest.approx(sym.value, rel=1e-6)

    def test_symmetric_background_sign_agreement(self):
        X = DiscreteRV.rademacher()
        result = combined_bound(5.0, 5.0, 1.0, 1.0, 1.0, 1.0, X)
        assert result.achieved_sign == "both"

    def test_triple_sum_brute_force(self):
        result = combined_bound(5.0, 5.0, 1.0, 1.0, 1.0, 1.0)
        brute = max(
            brute_triple_poisson_abs(1.0, 0.5, 1.0, 1.0, s, 5.0) for s in (1.0, -1.0)
        )
        assert result.value == pytest.approx(brute, rel=1e-10)

    def test_rounding_level_near_pair_is_one_lattice(self, monkeypatch):
        # A1, B1 = 0.7 * 3, 0.3 * 3 in floating point: c1 solves one ulp below
        # c0, and both signs merge the c1 atom into the +-c0 lattice
        sizes = []
        law_grid = compound._law_grid

        def spy(*args):
            grid = law_grid(*args)
            sizes.append(grid.values.size)
            return grid

        monkeypatch.setattr(compound, "_law_grid", spy)
        result = combined_bound(6.0, 5.5, 0.7, 0.3, 2.0999999999999996, 0.8999999999999999)
        assert sizes == [31, 31]
        lc0, lc1 = result.certificate
        assert 0.0 < abs(lc1.c - lc0.c) <= ATOM_MERGE_TOL
        # the value the 240-point product gave for the plus sign
        assert abs(result.value - 37.56654261598885) <= result.error_budget
        assert result.achieved_sign == "both"


class TestSkellamLawsAgainstCumulantOracle:
    """symmetric_bound and combined_bound against the exact even moments of
    their extremal laws, from cumulants at 50 digits (no series).  Their
    +-c0 atoms compose as one lattice; with c1 = c0 the c1 atom merges into
    one of them, and the pair has unequal intensities."""

    @staticmethod
    def draw(rng, q, k):
        p = q + float(rng.uniform(0.0, 2.0))
        A0, B0, A1, B1 = (float(v) for v in rng.uniform(0.5, 2.0, 4))
        if k % 3 == 0:
            A1, B1 = 2.0 * A0, 2.0 * B0  # A1/B1 = A0/B0 exactly, so c1 = c0
        if k % 2 == 0:
            X = D0
        else:
            n = int(rng.integers(1, 4))
            X = D0 if n == 1 else random_zero_mean_rv(int(rng.integers(2**31)), max_support=n)
        return p, A0, B0, A1, B1, X

    @staticmethod
    def oracle(q, X, measures):
        laws = (CompoundLaw(0.0, X, LevyVarianceMeasure(atoms)) for atoms in measures)
        return max(float(exact_integer_moment(law, q)) for law in laws)

    @pytest.mark.parametrize("q", [6, 8])
    def test_symmetric_within_budget(self, q):
        rng = np.random.default_rng(250 + q)
        for k in range(24):
            p, A, B, _, _, X = self.draw(rng, q, k)
            result = symmetric_bound(p, q, A, B, X)
            c = result.certificate.c
            exact = self.oracle(q, X, [[(c, B / 2.0), (-c, B / 2.0)]])
            assert abs(result.value - exact) <= result.error_budget, (p, A, B, X)

    @pytest.mark.parametrize("q", [6, 8])
    def test_combined_within_budget(self, q):
        rng = np.random.default_rng(260 + q)
        merged = 0
        for k in range(24):
            p, A0, B0, A1, B1, X = self.draw(rng, q, k)
            result = combined_bound(p, q, A0, B0, A1, B1, X)
            lc0, lc1 = result.certificate
            merged += lc1.c == lc0.c
            pair = [(lc0.c, B0 / 2.0), (-lc0.c, B0 / 2.0)]
            exact = self.oracle(q, X, [pair + [(lc1.c, B1)], pair + [(-lc1.c, B1)]])
            assert abs(result.value - exact) <= result.error_budget, (p, A0, B0, A1, B1, X)
        assert merged == 8


class TestBestConstant:
    def test_p4(self):
        assert best_constant(4.0, 1.0) == pytest.approx(4.0, rel=1e-13)
        assert classical_rosenthal_constant(4.0) == pytest.approx(1024.0, rel=1e-15)

    def test_p5(self):
        assert best_constant(5.0, 1.0) == pytest.approx(
            brute_poisson_abs_central(1.0, 5.0), rel=1e-11
        )
        assert classical_rosenthal_constant(5.0) == pytest.approx(
            2.5**2.5 * 2.0**11.25, rel=1e-15
        )

    def test_duality_identity(self):
        # E_{p;A,B} = B^{p/2} C_{p; B^{p/2}/A}
        rng = np.random.default_rng(53)
        for p in (5.0, 6.0, 2.5):
            for _ in range(4):
                A = float(rng.uniform(0.3, 3.0))
                B = float(rng.uniform(0.3, 3.0))
                direct = (
                    even_p_bound(int(p), A, B).value
                    if p == 6.0
                    else exact_bound(p, p, A, B).value
                )
                gamma = B ** (p / 2.0) / A
                assert direct == pytest.approx(
                    B ** (p / 2.0) * best_constant(p, gamma), rel=1e-9
                )


class TestQPoint:
    def test_boundary_recovery(self):
        # at c1 = c the second weight vanishes and (lam, 0) is recovered
        point = q_point_from_c(5.0, 1.0, 1.0, 1.0, 7.3)
        assert point.lambda1 == pytest.approx(1.0, rel=1e-12)
        assert point.lambda2 == pytest.approx(0.0, abs=1e-15)

    def test_hand_solved_system(self):
        point = q_point_from_c(5.0, 1.0, 1.0, 0.5, 2.0)
        w1, w2 = point.weights()
        assert w1 == pytest.approx(8.0 / 9.0, rel=1e-12)
        assert w2 == pytest.approx(1.0 / 9.0, rel=1e-12)
        assert point.lambda1 == pytest.approx(32.0 / 9.0, rel=1e-12)
        assert point.lambda2 == pytest.approx(1.0 / 36.0, rel=1e-12)
        assert meets_class(point, 5.0, 1.0, 1.0)

    def test_infeasible(self):
        assert q_point_from_c(5.0, 1.0, 1.0, 2.0, 3.0) is None

    def test_clamped_point_leaves_family(self):
        # at p = 6.6 the cell (c1, c2) = (-100, -1.668) used to solve to a
        # lambda1 of about -1e-13, which carries a macroscopic share of A; both
        # scales lie above c = 1, so the cell is infeasible
        c1, c2 = scan_axis(1.0, 20)[[0, 4]]
        assert q_point_from_c(6.6, 1.0, 1.0, float(c1), float(c2)) is None
        for c1 in scan_axis(1.0, 20):
            for c2 in scan_axis(1.0, 20):
                if abs(c1) != abs(c2):
                    point = q_point_from_c(6.6, 1.0, 1.0, float(c1), float(c2))
                    assert point is None or meets_class(point, 6.6, 1.0, 1.0)

    def test_weights_against_mpmath(self):
        # over scan grids at random (p, A, B): a cell is feasible exactly when
        # c lies between its scales, and each atom's share of B and of A,
        # c_i^2 lambda_i / B and |c_i|^p lambda_i / A, is within a few ulps of
        # the 50-digit solution of the same system
        rng = np.random.default_rng(8)
        worst = 0.0
        with mpmath.workdps(50):
            for _ in range(12):
                p = float(rng.uniform(5.0, 8.0))
                A, B = (float(10 ** rng.uniform(-1.0, 1.0)) for _ in range(2))
                c = solve_lambda_c(p, A, B).c
                a, b = mpmath.mpf(A), mpmath.mpf(B)
                axis = scan_axis(c, 20).tolist()
                for c1 in axis:
                    for c2 in axis:
                        if abs(c1) == abs(c2):
                            continue
                        point = q_point_from_c(p, A, B, c1, c2)
                        feasible = min(abs(c1), abs(c2)) <= c <= max(abs(c1), abs(c2))
                        assert (point is not None) == feasible, (p, A, B, c1, c2)
                        if point is None:
                            continue
                        a1, a2 = (abs(mpmath.mpf(x)) ** (mpmath.mpf(p) - 2) for x in (c1, c2))
                        exact = ((a2 * b - a) / (a2 - a1), (a1 * b - a) / (a1 - a2))
                        lams = (point.lambda1, point.lambda2)
                        for x, lam, w, scale in zip((c1, c2), lams, exact, (a1, a2)):
                            worst = max(
                                worst,
                                abs(x * x * lam - w) / b,
                                abs(abs(x) ** p * lam - scale * w) / a,
                            )
        assert worst <= 6.0 * np.finfo(float).eps

    def test_singular(self):
        with pytest.raises(SingularSystem):
            q_point_from_c(5.0, 1.0, 1.0, 2.0, -2.0)
        with pytest.raises(SingularSystem):
            q_point_from_c(5.0, 1.0, 1.0, 0.0, 1.0)


class TestQScan:
    def test_axis_point_reproduces_bound(self):
        point = q_point_from_c(5.0, 1.0, 1.0, 1.0, 3.0)
        w1, w2 = point.weights()
        law = CompoundLaw.pure(LevyVarianceMeasure([(1.0, w1), (3.0, w2)]))
        assert cp_abs_moment_series(law, 5.0) == pytest.approx(
            exact_bound(5.0, 5.0, 1.0, 1.0).value, rel=1e-12
        )

    def test_small_grid_argmax(self):
        result = q_scan(5.0, 5.0, 1.0, 1.0, grid=8)
        assert abs(result.best_point.c1) == pytest.approx(1.0, rel=1e-12)
        assert result.best_point.lambda2 == 0.0
        assert result.best_value <= result.reference_bound * (1.0 + 1e-8)

    def test_high_p_scan_stays_in_family(self):
        # p >= 6.6 used to evaluate clamped cells outside the (A, B) family
        # and raise BoundExceeded
        result = q_scan(6.6, 6.6, 1.0, 1.0)
        reference = exact_bound(6.6, 6.6, 1.0, 1.0).value
        assert result.best_value == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("X", [D0, X3])
    def test_swapped_cells_agree(self, X, monkeypatch):
        # (c1, c2) and (c2, c1) are the same law: same status, same value bit
        # for bit, and one grid serves them and their sign mirrors
        calls, builds = [], []
        series = compound.cp_abs_moment_series
        monkeypatch.setattr(
            compound, "cp_abs_moment_series", lambda *a, **k: calls.append(a) or series(*a, **k)
        )

        class Counted(compound.ShiftedMomentEvaluator):
            def __init__(self, *args, **kwargs):
                builds.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(compound, "ShiftedMomentEvaluator", Counted)
        result = q_scan(7.5, 6.5, 1.0, 1.0, X)
        cells = {(cell.c1, cell.c2): cell for cell in result.cells}
        for (c1, c2), cell in cells.items():
            other = cells[(c2, c1)]
            assert cell.status == other.status, (c1, c2)
            if cell.status == "evaluated":
                assert cell.value == other.value, (c1, c2)
                assert (cell.lambda1, cell.lambda2) == (other.lambda2, other.lambda1), (c1, c2)
        assert result.counts() == {"singular": 40, "infeasible": 128, "evaluated": 232}
        # two series for the reference bound and one grid per class of four cells
        assert len(calls) == 2
        assert len(builds) == 232 // 4

    @pytest.mark.parametrize("X", [D0, DiscreteRV.rademacher()])
    def test_sign_mirrored_cells_agree_for_symmetric_x(self, X):
        # the cell (-c1, -c2) with X is (c1, c2) with -X, which has the law of X
        result = q_scan(7.5, 6.5, 1.0, 1.0, X)
        cells = {(cell.c1, cell.c2): cell for cell in result.cells}
        for (c1, c2), cell in cells.items():
            other = cells[(-c1, -c2)]
            assert cell.status == other.status, (c1, c2)
            if cell.status == "evaluated":
                assert cell.value == other.value, (c1, c2)
                assert (cell.lambda1, cell.lambda2) == (other.lambda1, other.lambda2), (c1, c2)

    def test_cells_match_their_own_law(self):
        # each cell, its swap and its sign mirror against a series of its own law
        result = q_scan(7.5, 6.5, 1.0, 1.0, X3)
        evaluated = [cell for cell in result.cells if cell.status == "evaluated"]
        assert len(evaluated) == 232
        for cell in evaluated:
            w1, w2 = q_point_from_c(7.5, 1.0, 1.0, cell.c1, cell.c2).weights()
            law = CompoundLaw(0.0, X3, LevyVarianceMeasure([(cell.c1, w1), (cell.c2, w2)]))
            assert cell.value == pytest.approx(cp_abs_moment_series(law, 6.5), rel=1e-14, abs=0)

    def test_lambda_c_solved_once(self, monkeypatch):
        # the reference bound's c serves every cell; each cell's atoms and
        # intensities are bit for bit those q_point_from_c solves alone
        calls = []
        solve = bounds.solve_lambda_c
        monkeypatch.setattr(bounds, "solve_lambda_c", lambda *a: calls.append(a) or solve(*a))
        result = q_scan(5.3, 5.3, 1.0, 1.0, X3, grid=8)
        assert calls == [(5.3, 1.0, 1.0)]
        monkeypatch.setattr(bounds, "solve_lambda_c", solve)
        for cell in result.cells:
            try:
                point = q_point_from_c(5.3, 1.0, 1.0, cell.c1, cell.c2)
            except SingularSystem:
                assert cell.status == "singular"
                continue
            if point is None:
                assert cell.status == "infeasible"
            else:
                assert (cell.lambda1, cell.lambda2) == (point.lambda1, point.lambda2)

    def test_low_reference_raises(self, monkeypatch):
        exact = bounds.exact_bound
        monkeypatch.setattr(
            bounds, "exact_bound", lambda *a: dataclasses.replace(exact(*a), value=1.0)
        )
        with pytest.raises(BoundExceeded, match="exceeds exact bound 1.0 "):
            q_scan(5.5, 5.2, 1.3, 1.0, X3)

    def test_mirror_value_alone_can_raise(self, monkeypatch):
        # one call evaluates the shifts X3 and then the mirror's -X3; only the
        # second half is doubled, and the raise names a mirror cell, whose c1
        # is positive where the visited cell's is negative
        class MirrorDoubled(compound.ShiftedMomentEvaluator):
            def __call__(self, shifts):
                values = super().__call__(shifts)
                values[len(values) // 2 :] *= 2.0
                return values

        monkeypatch.setattr(compound, "ShiftedMomentEvaluator", MirrorDoubled)
        with pytest.raises(BoundExceeded) as info:
            q_scan(5.5, 5.2, 1.3, 1.0, X3)
        assert float(re.search(r"\(c1=(\S+),", str(info.value)).group(1)) > 0.0

    @pytest.mark.parametrize("grid", [21, 2, 1, 0, -3])
    def test_grid_it_would_not_honour_refused(self, grid):
        # the axis has 2 max(2, grid // 2) points, so only an even grid >= 4 is
        # scanned as asked
        with pytest.raises(ValueError, match="even integer"):
            q_scan(5.0, 5.0, 1.0, 1.0, grid=grid)

    def test_low_regime_approach_from_below(self):
        result = q_scan(2.5, 2.5, 1.0, 1.0, grid=8)
        assert result.best_value <= result.reference_bound
        # along the c1 = c/100 row the values increase with |c2|
        row = [
            cell
            for cell in result.cells
            if cell.status == "evaluated" and cell.c1 == pytest.approx(0.01, rel=1e-9)
            and cell.c2 > 1.0
        ]
        row.sort(key=lambda cell: cell.c2)
        values = [cell.value for cell in row]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))


class TestLimitCompound:
    def test_pure_limit_at_a_zero(self):
        result = limit_compound(5.0, 5.0, 1.0, 1.0, 1.0, 0.0, [10.0, 100.0])
        for entry in result.entries:
            assert entry.moment == pytest.approx(result.limit_value, rel=1e-11)

    def test_gaussian_destination(self):
        result = limit_compound(2.5, 2.5, 1.0, 1.0, 0.0, 0.5, [10.0, 100.0, 1000.0])
        assert result.limit_value == pytest.approx(0.5 + gauss_abs_q(2.5), rel=1e-10)
        assert result.gaps_decreasing

    def test_boundary_identification(self):
        # b = c, a = 0 recovers the extremal one-atom law
        result = limit_compound(5.0, 5.0, 1.0, 1.0, 1.0, 0.0, [100.0])
        assert result.limit_value == pytest.approx(
            exact_bound(5.0, 5.0, 1.0, 1.0).value, rel=1e-11
        )
