"""Brute-force verifier: exact sums, domination, and the tightness array."""

import math
import tracemalloc

import numpy as np
import pytest

from sharp_rosenthal.bounds import even_p_bound, exact_bound, solve_lambda_c
from sharp_rosenthal.errors import InfeasibleMass, NotZeroMean, SupportTooLarge
from sharp_rosenthal.measures import (
    DiscreteRV,
    LevyVarianceMeasure,
    rv_abs_moment,
    rv_second_moment,
)
from sharp_rosenthal.suites import domination_suite, fuzz_suite
from sharp_rosenthal.verify import (
    RVSequence,
    _member_moments,
    accompanying_measure,
    accompanying_sequence_moment,
    check_domination,
    check_rosenthal,
    random_domination_sequence,
    random_zero_mean_rv,
    solve_accompanying,
    sum_abs_moment,
)

RAD = DiscreteRV.rademacher()


class TestSumAbsMoment:
    def test_two_rademachers(self):
        assert sum_abs_moment(RVSequence([RAD, RAD]), 5.0) == 16.0

    def test_single_rademacher(self):
        assert sum_abs_moment(RVSequence([RAD]), 7.0) == 1.0

    def test_empty_sequence(self):
        assert sum_abs_moment(RVSequence([]), 3.0) == 0.0

    def test_rejects_noncentered_member(self):
        with pytest.raises(NotZeroMean):
            RVSequence([DiscreteRV([(1.0, 1.0)])])

    def test_support_guard(self):
        # 11 generic 4-point members need up to 4^11 > 1e6 atoms
        rng = np.random.default_rng(3)
        members = []
        while len(members) < 11:
            m = random_zero_mean_rv(int(rng.integers(0, 2**31)), max_support=4)
            if len(m.atoms) == 4:
                members.append(m)
        with pytest.raises(SupportTooLarge):
            sum_abs_moment(RVSequence(members), 3.0)


class TestCheckRosenthal:
    def test_two_rademachers_p5(self):
        report = check_rosenthal(RVSequence([RAD, RAD]), 5.0, 5.0)
        # A' = B' = 2 gives lam = 2, c = 1
        lc = solve_lambda_c(5.0, 2.0, 2.0)
        assert (lc.lam, lc.c) == (2.0, 1.0)
        assert report.lhs == 16.0
        assert report.status == "pass"
        assert report.slack > 0.0

    def test_fourth_moment_expansion_vs_even_bound(self):
        # E|S|^4 = sum mu4_i + 3 B'^2 - 3 sum sigma_i^4 <= A' + 3 B'^2
        rng = np.random.default_rng(61)
        for i in range(10):
            members = [random_zero_mean_rv(int(rng.integers(0, 2**31))) for _ in range(3)]
            seq = RVSequence(members)
            a4 = seq.sum_p_moment(4.0)
            b2 = seq.sum_second_moment()
            lhs = sum_abs_moment(seq, 4.0)
            expansion = (
                a4
                + 3.0 * b2 * b2
                - 3.0 * math.fsum(rv_second_moment(m) ** 2 for m in members)
            )
            assert lhs == pytest.approx(expansion, rel=1e-11), i
            bound = even_p_bound(4, a4, b2).value
            assert bound == pytest.approx(a4 + 3.0 * b2 * b2, rel=1e-12)
            assert lhs <= bound * (1.0 + 1e-12)

    def test_degenerate_sequence(self):
        report = check_rosenthal(RVSequence([DiscreteRV.delta(0.0)]), 5.0, 5.0)
        assert report.lhs == 0.0
        assert report.status == "pass"

    def test_jensen_growth(self):
        # appending an independent zero-mean member never decreases E|S|^q
        rng = np.random.default_rng(67)
        for _ in range(100):
            base_members = [
                random_zero_mean_rv(int(rng.integers(0, 2**31)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            extra = random_zero_mean_rv(int(rng.integers(0, 2**31)))
            q = float(rng.uniform(1.0, 6.0))
            before = sum_abs_moment(RVSequence(base_members), q)
            after = sum_abs_moment(RVSequence(base_members + [extra]), q)
            assert after >= before * (1.0 - 1e-12) - 1e-12


class TestRandomGenerators:
    def test_deterministic(self):
        assert random_zero_mean_rv(123).atoms == random_zero_mean_rv(123).atoms

    def test_zero_mean_and_support(self):
        for seed in range(50):
            rv = random_zero_mean_rv(seed, max_support=4, value_range=3.0)
            assert abs(sum(v * p for v, p in rv.atoms)) <= 1e-12
            assert 2 <= len(rv.atoms) <= 4
            assert all(abs(v) <= 6.0 for v, _ in rv.atoms)

    def test_domination_sequence_pool(self):
        for seed in range(20):
            seq = random_domination_sequence(seed)
            assert len(accompanying_measure(seq).nonzero_atoms()) <= 3


class TestAccompanyingMeasure:
    def test_two_rademachers(self):
        levy = accompanying_measure(RVSequence([RAD, RAD]))
        assert levy.atoms == ((-1.0, 1.0), (1.0, 1.0))

    def test_degenerate_member(self):
        assert accompanying_measure(RVSequence([DiscreteRV.delta(0.0)])).atoms == ()

    def test_scaling_covariance(self):
        seq = RVSequence([RAD, DiscreteRV.two_point_zero_mean(-0.5, 1.5)])
        kappa = 2.0
        scaled_members = [
            DiscreteRV([(kappa * v, p) for v, p in m.atoms]) for m in seq.members
        ]
        direct = accompanying_measure(RVSequence(scaled_members))
        # the measure of kappa * Y_H
        expected = LevyVarianceMeasure(
            [(kappa * u, kappa**2 * w) for u, w in accompanying_measure(seq).atoms]
        )
        np.testing.assert_allclose(direct.locations, expected.locations, rtol=1e-14)
        np.testing.assert_allclose(direct.weights, expected.weights, rtol=1e-14)


class TestCheckDomination:
    def test_two_rademachers_q5(self):
        report = check_domination(RVSequence([RAD, RAD]), 5.0)
        assert report.lhs == 16.0
        assert report.rhs == pytest.approx(47.45535875017478, rel=1e-9)
        assert report.status == "pass"

    def test_single_member(self):
        member = DiscreteRV.two_point_zero_mean(-1.0, 2.0)
        report = check_domination(RVSequence([member]), 3.0)
        assert report.lhs == pytest.approx(rv_abs_moment(member, 3.0), rel=1e-14)
        assert report.status == "pass"

    def test_degenerate(self):
        report = check_domination(RVSequence([DiscreteRV.delta(0.0)]), 3.0)
        assert report.lhs == 0.0 and report.rhs == 0.0
        assert report.status == "pass"

    def test_skip_wide_measures(self):
        members = [
            DiscreteRV.two_point_zero_mean(-1.0 - 0.01 * i, 1.0 + 0.01 * i) for i in range(4)
        ]
        report = check_domination(RVSequence(members), 3.0)
        assert report.status == "skipped"


class TestSolveAccompanying:
    def test_limit_parameters(self):
        lc = solve_lambda_c(4.0, 1.0, 1.0)
        params = solve_accompanying(
            LevyVarianceMeasure([(lc.c, lc.lam)]), 10**6, 4.0, 1.0, 1.0
        )
        assert params.kappa == pytest.approx(1.0, abs=1e-3)
        assert params.gamma == pytest.approx(1.0, abs=1e-3)

    def test_exact_reproduction(self):
        lc = solve_lambda_c(5.0, 2.0, 1.5)
        n = 64
        params = solve_accompanying(LevyVarianceMeasure([(lc.c, lc.lam)]), n, 5.0, 2.0, 1.5)
        f2, fp = _member_moments(
            params.kappa, params.gamma, n, np.array([lc.c]), np.array([lc.lam]), (2.0, 5.0)
        )
        assert f2 == pytest.approx(1.5, rel=1e-11)
        assert fp == pytest.approx(2.0, rel=1e-11)

    def test_infeasible_mass(self):
        with pytest.raises(InfeasibleMass):
            solve_accompanying(LevyVarianceMeasure([(1.0, 100.0)]), 4, 4.0, 100.0, 100.0)

    @staticmethod
    def _solve_and_reproduce(p, A, B, n, rel):
        lc = solve_lambda_c(p, A, B)
        params = solve_accompanying(LevyVarianceMeasure([(lc.c, lc.lam)]), n, p, A, B)
        f2, fp = _member_moments(
            params.kappa, params.gamma, n, np.array([lc.c]), np.array([lc.lam]), (2.0, p)
        )
        assert f2 == pytest.approx(B, rel=rel)
        assert fp == pytest.approx(A, rel=rel)
        pi = params.kappa * lc.lam / n
        assert 0.0 < pi <= 0.5
        return pi

    def test_feasible_sweep_reproduces(self):
        # every input with lambda <= n solves, on the root pi <= 1/2
        rng = np.random.default_rng(2013)
        solved = 0
        for _ in range(400):
            p = 40.0 - float(rng.uniform(0.0, 38.0))
            A, B = np.exp(rng.uniform(-8.0, 8.0, 2))
            n = int(rng.choice([2, 3, 7, 64, 4096, 2**21]))
            try:
                lam = solve_lambda_c(p, A, B).lam
            except ValueError:  # (lambda, c) overflows a double
                continue
            if lam > n:
                continue
            self._solve_and_reproduce(p, A, B, n, 1e-13)
            solved += 1
        assert solved >= 200

    @pytest.mark.parametrize("p, n", [(4.0, 16), (6.613, 2)])
    def test_feasibility_edge(self, p, n):
        # B = 1 and A = n^{-(p-2)/2} put lambda at n; at p = 6.613 the
        # computed psi(1/2) rounds to just below n
        A = n ** (-(p - 2.0) / 2.0)
        assert solve_lambda_c(p, A, 1.0).lam == n
        assert self._solve_and_reproduce(p, A, 1.0, n, 1e-13) == 0.5
        G = LevyVarianceMeasure([(1.0, 1.0)])
        with pytest.raises(InfeasibleMass):
            solve_accompanying(G, n, p, A / (1.0 + 1e-9) ** ((p - 2.0) / 2.0), 1.0)

    def test_inputs_the_newton_solve_missed(self):
        p, A, B = 5.601809838920818, 0.1265176410210817, 1.1221612517597384
        self._solve_and_reproduce(p, A, B, 16, 1e-13)
        moment = accompanying_sequence_moment(p, A, B, 16)
        assert moment == pytest.approx(16.4097, rel=1e-5)
        assert moment < exact_bound(p, p, A, B).value
        p, A, B = 4.727095592053946, 0.26538361066834265, 0.9147228697858845
        assert solve_lambda_c(p, A, B).lam == pytest.approx(2.27, abs=0.01)
        self._solve_and_reproduce(p, A, B, 3, 1e-13)

    @pytest.mark.parametrize("atoms", [[(1.0, 0.5), (-2.0, 0.25)], [(0.0, 1.0)]])
    def test_rejects_unusable_measure(self, atoms):
        with pytest.raises(ValueError):
            solve_accompanying(LevyVarianceMeasure(atoms), 16, 5.0, 1.0, 1.0)


class TestAccompanyingSequenceMoment:
    def test_small_n_exact(self):
        # E|S_2|^4 = A + 3 B^2 (n-1)/n at n = 2
        assert accompanying_sequence_moment(4.0, 1.0, 1.0, 2) == pytest.approx(2.5, rel=1e-12)

    @pytest.mark.parametrize("n", [256, 4096, 2**16, 2**21])
    def test_exact_at_p4(self, n):
        # E S_n^4 = n E Z^4 + 3 n(n-1) (E Z^2)^2 = A + 3 B^2 (n-1)/n, so 4 - 3/n
        # at A = B = 1; log-factorial pmfs lose n log(n) eps and miss by 1.4e-9 at 2^21
        exact = 4.0 - 3.0 / n
        assert abs(accompanying_sequence_moment(4.0, 1.0, 1.0, n) - exact) <= 1e-14 * exact

    def test_memory_stays_near_live_weights(self):
        # at n = 2^21, pi ~ 1/n, 178 binomial weights are nonzero; arrays of
        # length n + 1 would peak near 67 MB
        tracemalloc.start()
        try:
            accompanying_sequence_moment(4.0, 1.0, 1.0, 2**21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_n_trend_p4(self):
        bound = even_p_bound(4, 1.0, 1.0).value
        values = [accompanying_sequence_moment(4.0, 1.0, 1.0, 2**k) for k in range(4, 13)]
        assert all(v2 >= v1 - 1e-10 for v1, v2 in zip(values, values[1:]))
        assert bound - values[-1] < 0.02 * bound

    def test_feasibility_of_construction(self):
        # the solved parameters reproduce (B, A) through the member moments
        n = 4096
        lc = solve_lambda_c(6.0, 1.0, 1.0)
        params = solve_accompanying(LevyVarianceMeasure([(lc.c, lc.lam)]), n, 6.0, 1.0, 1.0)
        f2, fp = _member_moments(
            params.kappa, params.gamma, n, np.array([lc.c]), np.array([lc.lam]), (2.0, 6.0)
        )
        assert f2 == pytest.approx(1.0, rel=1e-10)
        assert fp == pytest.approx(1.0, rel=1e-10)


class TestSuitesSmall:
    def test_fuzz_all_pass(self):
        reports = fuzz_suite(50, 1234, 5.0)
        assert all(r.status == "pass" for r in reports)
        reports_low = fuzz_suite(50, 1234, 2.5)
        assert all(r.status == "pass" for r in reports_low)

    def test_domination_all_pass(self):
        for q in (3.0, 5.0):
            reports = domination_suite(50, 99, q)
            assert all(r.status == "pass" for r in reports)
