"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single ``[criterion N] PASS`` line (visible with -s or in
captured output) along with its runtime, and asserts both the numerical
gate and the runtime budget.
"""

import math
import time

import numpy as np
import pytest

from conftest import single_atom
from sharp_rosenthal.bounds import (
    best_constant,
    even_p_bound,
    exact_bound,
    limit_compound,
    q_scan,
    solve_lambda_c,
)
from sharp_rosenthal.compound import (
    CompoundLaw,
    cp_abs_moment_crosscheck,
    cp_abs_moment_series,
)
from sharp_rosenthal.measures import DiscreteRV, LevyVarianceMeasure
from sharp_rosenthal.poisson import DEFAULT_CONFIG
from sharp_rosenthal.suites import (
    domination_suite,
    fuzz_suite,
    tightness_suite,
    variation_suite,
)
from sharp_rosenthal.variation import positivity_kernel, variational_F
from sharp_rosenthal.verify import random_zero_mean_rv

D0 = DiscreteRV.delta(0.0)


class _Timer:
    def __init__(self, budget: float):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(n: int, timer: _Timer, detail: str) -> None:
    print(f"[criterion {n}] PASS in {timer.elapsed:.1f}s (budget {timer.budget:.0f}s) - {detail}")
    assert timer.elapsed < timer.budget


def test_criterion_1_even_p_exact_values():
    """E_{4;1,1} = 4 and E_{6;1,1} = 41, matching the series engine to 1e-9."""
    with _Timer(1.0) as timer:
        for p, expected in ((4, 4.0), (6, 41.0)):
            closed = even_p_bound(p, 1.0, 1.0).value
            assert closed == pytest.approx(expected, rel=1e-12)
            series = cp_abs_moment_series(
                CompoundLaw.pure(single_atom(1.0, 1.0)), float(p), DEFAULT_CONFIG
            )
            assert series == pytest.approx(closed, rel=1e-9)
    _report(1, timer, "E_{4;1,1}=4, E_{6;1,1}=41 vs series engine")


def test_criterion_2_dual_engine_oracle():
    """Series vs contour agreement within 1e-7 relative, 30 laws x 5 exponents."""
    qs = (4.5, 5.0, 5.5, 6.0, 7.0)
    rng = np.random.default_rng(20240901)
    worst = 0.0
    with _Timer(60.0) as timer:
        for _ in range(30):
            n_atoms = int(rng.integers(1, 3))
            atoms = [
                (float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)), float(rng.uniform(0.1, 2.0)))
                for _ in range(n_atoms)
            ]
            if rng.random() < 0.4:
                atoms.append((0.0, float(rng.uniform(0.1, 1.0))))
            law = CompoundLaw.pure(LevyVarianceMeasure(atoms))
            for q in qs:
                checked = cp_abs_moment_crosscheck(law, q)
                worst = max(worst, checked.rel_discrepancy)
                assert checked.rel_discrepancy < 1e-7, (atoms, q)
    _report(2, timer, f"150 cross-checks, worst relative discrepancy {worst:.2e}")


def test_criterion_3_variational_identities():
    """Analytic derivatives vs Richardson differences: 1e-5 first, 1e-4 second."""
    with _Timer(120.0) as timer:
        reports = variation_suite(10, 5150)
        assert len(reports) == 20
        for report in reports:
            assert report.status == "pass", report
    worst = max(abs(r.lhs - r.rhs) / max(1.0, abs(r.rhs)) for r in reports)
    _report(3, timer, f"20 perturbation paths, worst relative error {worst:.2e}")


def test_criterion_4_fuzz_no_violation():
    """1000 random sequences at p=q=5 and p=q=2.5 plus domination at q in {3,5}."""
    with _Timer(600.0) as timer:
        counts = {}
        for p in (5.0, 2.5):
            reports = fuzz_suite(1000, 777, p)
            counts[f"rosenthal p={p}"] = len(reports)
            for report in reports:
                assert report.status == "pass", report
        for q in (3.0, 5.0):
            reports = domination_suite(1000, 778, q)
            counts[f"domination q={q}"] = len(reports)
            for report in reports:
                assert report.status == "pass", report
    _report(4, timer, f"4000 cases, zero violations ({counts})")


def test_criterion_5_tightness():
    """Array moments close to within 2% of the bound by n = 4096, monotonically."""
    with _Timer(60.0) as timer:
        final_gaps = {}
        for p in (4, 6):
            reports = tightness_suite(p, 1.0, 1.0, powers=range(4, 13), gap_budget=0.02)
            trend = reports[-1]
            assert trend.status == "pass", trend
            at_4096 = next(r for r in reports if r.case_id == f"tight-{p}-n4096")
            bound = at_4096.rhs
            assert bound - at_4096.lhs < 0.02 * bound
            final_gaps[p] = trend.lhs
    _report(5, timer, f"relative gaps at n=4096: {final_gaps}")


def test_criterion_6_extremal_location():
    """20x20 scan: argmax on the axis, nothing above the bound + 1e-8 relative."""
    with _Timer(300.0) as timer:
        result = q_scan(5.0, 5.0, 1.0, 1.0, grid=20)
        best = result.best_point
        assert abs(abs(best.c1) - 1.0) <= 1e-12
        assert best.lambda1 == pytest.approx(1.0, rel=1e-12)
        assert best.lambda2 == 0.0
        assert result.best_value <= result.reference_bound * (1.0 + 1e-8)
        evaluated = [c for c in result.cells if c.status == "evaluated"]
        assert all(
            c.value <= result.reference_bound * (1.0 + 1e-8) for c in evaluated
        )
    _report(
        6,
        timer,
        f"argmax at (c1={best.c1}, lambda1={best.lambda1}, lambda2=0), "
        f"{len(evaluated)} cells evaluated",
    )


def test_criterion_7_limit_regime():
    """Two-atom family at c1=0.01: its limit value sits within 1% of
    A + B^{p/2} E|Z|^p and the gaps decay monotonically along |c2|."""
    with _Timer(30.0) as timer:
        A = B = 1.0
        p = q = 2.5
        gauss_form = A + B ** (p / 2.0) * (
            2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
        )
        result = limit_compound(p, q, A, B, b=0.01, a=A, c2_sequence=[10.0, 100.0, 1000.0])
        rel_gap_to_gauss = abs(result.limit_value - gauss_form) / gauss_form
        assert rel_gap_to_gauss < 0.01
        assert result.gaps_decreasing
        gaps = [abs(e.gap) for e in result.entries]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    _report(
        7,
        timer,
        f"limit value within {100 * rel_gap_to_gauss:.4f}% of the Gaussian form; "
        f"gaps {['%.3f' % g for g in gaps]} decay",
    )


def test_criterion_8_homogeneity_and_duality():
    """bound(k^p A, k^2 B) = k^p bound(A, B) and E_{p;A,B} = B^{p/2} C_{p;B^{p/2}/A}."""
    rng = np.random.default_rng(88)
    with _Timer(10.0) as timer:
        for p, evaluate in (
            (5.0, lambda A, B: exact_bound(5.0, 5.0, A, B).value),
            (6.0, lambda A, B: even_p_bound(6, A, B).value),
            (2.5, lambda A, B: exact_bound(2.5, 2.5, A, B).value),
        ):
            for _ in range(10):
                A = float(rng.uniform(0.3, 3.0))
                B = float(rng.uniform(0.3, 3.0))
                kappa = float(rng.uniform(0.5, 3.0))
                base = evaluate(A, B)
                scaled = evaluate(kappa**p * A, kappa**2 * B)
                assert scaled == pytest.approx(kappa**p * base, rel=1e-9)
                gamma = B ** (p / 2.0) / A
                assert base == pytest.approx(
                    B ** (p / 2.0) * best_constant(p, gamma), rel=1e-9
                )
    _report(8, timer, "30 homogeneity and 30 duality identities within 1e-9")


def test_criterion_9_positivity_kernel():
    """positivity_kernel > 0 on a 5x5x5 grid and variational_F > 0, for
    p >= q in {5.1, 5.5, 6}."""
    rng = np.random.default_rng(99)
    with _Timer(60.0) as timer:
        checked = 0
        for q in (5.1, 5.5, 6.0):
            for p in (q, q + 0.7):
                H = single_atom(
                    float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)),
                    float(rng.uniform(0.5, 2.0)),
                )
                pts = np.linspace(0.15, 0.95, 5)
                for u in pts:
                    for alpha in pts:
                        for s in pts:
                            value = positivity_kernel(u, alpha, s, p, q, D0, H)
                            assert value > 0.0, (p, q, u, alpha, s)
                            checked += 1
                for b in (0.25, 0.6):
                    for s in (0.5, 1.0):
                        assert variational_F(b, s, p, q, D0, H) > 0.0, (p, q, b, s)
                        checked += 1
    _report(9, timer, f"{checked} strictly positive kernel/F evaluations")


def test_criterion_10_p4_coincidence():
    """E|X +- c P~lam|^4 = A + E|X + sqrt(B) Z|^4 within 1e-9, 10 random cases."""
    rng = np.random.default_rng(1010)
    with _Timer(10.0) as timer:
        for i in range(10):
            X = random_zero_mean_rv(int(rng.integers(0, 2**31)))
            A = float(rng.uniform(0.3, 3.0))
            B = float(rng.uniform(0.3, 3.0))
            lc = solve_lambda_c(4.0, A, B)
            gaussian_side = A + cp_abs_moment_series(
                CompoundLaw(0.0, X, LevyVarianceMeasure([(0.0, B)])), 4.0
            )
            for sign in (1.0, -1.0):
                law = CompoundLaw(0.0, X, LevyVarianceMeasure([(sign * lc.c, B)]))
                assert cp_abs_moment_series(law, 4.0) == pytest.approx(gaussian_side, rel=1e-9), i
    _report(10, timer, "both signs equal the Gaussian form in 10 random cases")
