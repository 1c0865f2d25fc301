"""Poisson / Skellam / Gaussian moments against independent oracles; single
Poisson moments come from the series engine on the one-atom law [(1.0, lam)]."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from conftest import brute_poisson_abs_central, brute_skellam_abs
from sharp_rosenthal import poisson
from sharp_rosenthal.compound import CompoundLaw, cp_abs_moment_series, cp_part_moment_series
from sharp_rosenthal.errors import TailNotConverged
from sharp_rosenthal.measures import LevyVarianceMeasure
from sharp_rosenthal.poisson import (
    SeriesConfig,
    certified_lower_cutoff,
    certified_upper_cutoff,
    gaussian_abs_moment,
    gaussian_part_moment,
    poisson_central_moment_even,
    skellam_abs_moment_about,
)


def poisson_law(lam: float) -> CompoundLaw:
    """Pi_lam - lam as the one-atom compound law [(1.0, lam)]."""
    return CompoundLaw.pure(LevyVarianceMeasure([(1.0, lam)]))


class TestPoissonAbsCentralMoment:
    def test_variance(self):
        assert cp_abs_moment_series(poisson_law(1.0), 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_fourth_moment_cumulant_oracle(self):
        # lam + 3 lam^2 from the cumulant recursion, and direct summation
        assert cp_abs_moment_series(poisson_law(1.0), 4.0) == pytest.approx(4.0, abs=1e-11)
        assert cp_abs_moment_series(poisson_law(1.0), 4.0) == pytest.approx(
            brute_poisson_abs_central(1.0, 4.0), rel=1e-12
        )

    def test_fractional_vs_brute_force(self):
        for lam, q in [(0.7, 5.5), (2.3, 3.1), (4.0, 2.5)]:
            assert cp_abs_moment_series(poisson_law(lam), q) == pytest.approx(
                brute_poisson_abs_central(lam, q), rel=1e-12
            )

    def test_large_lambda_guard(self):
        with pytest.raises(TailNotConverged):
            cfg = SeriesConfig(tol=1e-12, max_terms=10**4)
            cp_abs_moment_series(poisson_law(1e5), 4.0, cfg)

    def test_monotone_in_lambda_even(self):
        for n in (2, 4, 6, 8):
            values = [poisson_central_moment_even(lam, n) for lam in np.linspace(0.2, 8, 12)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_lyapunov_log_convexity(self):
        qs = np.arange(2.0, 8.5, 0.5)
        for lam in (0.5, 1.0, 3.0):
            logm = np.log([cp_abs_moment_series(poisson_law(lam), q) for q in qs])
            mid = 0.5 * (logm[:-2] + logm[2:])
            assert np.all(logm[1:-1] <= mid + 1e-9)


def mp_pmf(ks: np.ndarray, lam: float) -> np.ndarray:
    """Poisson(lam) probabilities at ``ks`` from 40-digit mpmath."""
    with mpmath.workdps(40):
        lam_mp = mpmath.mpf(lam)
        log_lam = mpmath.log(lam_mp)
        return np.array(
            [float(mpmath.exp(k * log_lam - lam_mp - mpmath.loggamma(k + 1))) for k in ks.tolist()]
        )


def max_rel_error(pmf: np.ndarray, reference: np.ndarray) -> float:
    live = reference > 0.0
    return float(np.max(np.abs(pmf[live] / reference[live] - 1.0)))


class TestLogFactorialTable:
    @pytest.mark.parametrize("dtype", [int, float])
    def test_pmf_reads_the_table(self, dtype):
        # a window ending below 64 takes the log form with exact log k!
        lam, lo, hi = 37.5, 9, 63
        ks = np.arange(lo, hi + 1, dtype=dtype)
        log_factorial = np.array([math.log(math.factorial(k)) for k in range(lo, hi + 1)])
        expected = np.exp(ks * math.log(lam) - lam - log_factorial)
        np.testing.assert_array_equal(poisson.poisson_pmf(ks, lam), expected)


class TestRatioPmf:
    @pytest.mark.parametrize("lam", [30.0, 700.0, 7e3, 1e4, 2e5])
    def test_within_1e14_over_twelve_sd(self, lam):
        half = 12.0 * math.sqrt(lam)
        ks = np.arange(max(0, math.floor(lam - half)), math.ceil(lam + half) + 1, dtype=float)
        assert max_rel_error(poisson.poisson_pmf(ks, lam), mp_pmf(ks, lam)) <= 1e-14

    @pytest.mark.parametrize(
        "lam, lo, hi",
        [(700.0, 720, 900), (700.0, 500, 690), (1e4, 10100, 10500), (1e4, 9500, 9990)],
        ids=["700-above", "700-below", "1e4-above", "1e4-below"],
    )
    def test_anchor_clamped_into_window(self, lam, lo, hi):
        # the window misses floor(lam): the anchor sits at its end nearest the mode
        ks = np.arange(lo, hi + 1, dtype=float)
        assert max_rel_error(poisson.poisson_pmf(ks, lam), mp_pmf(ks, lam)) <= 1e-14

    def test_split_at_64(self):
        # a window ending at 63 is the log form; one ending at 64 the ratios
        lam = 30.0
        below, above = np.arange(0, 64, dtype=float), np.arange(0, 65, dtype=float)
        log_form = np.exp(below * math.log(lam) - lam - poisson._LOG_FACTORIAL)
        np.testing.assert_array_equal(poisson.poisson_pmf(below, lam), log_form)
        assert max_rel_error(poisson.poisson_pmf(below, lam), mp_pmf(below, lam)) <= 1e-13
        assert max_rel_error(poisson.poisson_pmf(above, lam), mp_pmf(above, lam)) <= 1e-14


class TestPoissonPartMoment:
    def test_negative_side_hand_sum(self):
        # only k = 0 contributes (1-0)^4 e^{-1}; k = 1 gives 0
        assert cp_part_moment_series(poisson_law(1.0), 4.0, "negative") == pytest.approx(
            math.exp(-1.0), rel=1e-15
        )

    def test_positive_side_positivity(self):
        assert cp_part_moment_series(poisson_law(0.5), 5.0, "positive") > 0.0

    def test_decomposition_identity(self):
        cfg = SeriesConfig(tol=1e-12, max_terms=10**6)
        rng = np.random.default_rng(17)
        for _ in range(50):
            lam = float(rng.uniform(0.1, 8.0))
            q = float(rng.uniform(2.1, 7.0))
            law = poisson_law(lam)
            total = cp_abs_moment_series(law, q, cfg)
            parts = cp_part_moment_series(law, q, "positive", cfg) + cp_part_moment_series(
                law, q, "negative", cfg
            )
            assert parts == pytest.approx(total, abs=2 * cfg.tol + 1e-13 * total)


class TestPoissonCentralMomentEven:
    def test_hand_unrolled(self):
        assert poisson_central_moment_even(1.0, 4) == 4.0
        assert poisson_central_moment_even(2.0, 6) == 222.0
        assert poisson_central_moment_even(3.0, 2) == 3.0

    def test_against_series_engine(self):
        for lam in (0.5, 1.0, 2.0, 5.0):
            for n in (2, 4, 6, 8):
                exact = poisson_central_moment_even(lam, n)
                series = cp_abs_moment_series(poisson_law(lam), float(n))
                assert series == pytest.approx(exact, rel=1e-9)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            poisson_central_moment_even(1.0, 3)


class TestSkellam:
    def test_variance_identities(self):
        assert skellam_abs_moment_about(0.5, 0.5, 1.0, 0.0, 2.0) == pytest.approx(1.0, abs=1e-10)
        assert skellam_abs_moment_about(0.5, 0.5, 2.0, 0.0, 2.0) == pytest.approx(4.0, abs=1e-10)
        rng = np.random.default_rng(3)
        for _ in range(10):
            lam = float(rng.uniform(0.2, 4.0))
            c = float(rng.uniform(0.2, 3.0))
            assert skellam_abs_moment_about(lam, lam, c, 0.0, 2.0) == pytest.approx(
                2.0 * lam * c * c, abs=1e-10 * max(1.0, 2 * lam * c * c)
            )

    def test_fifth_moment_brute_force(self):
        assert skellam_abs_moment_about(1.0, 1.0, 1.0, 0.0, 5.0) == pytest.approx(
            brute_skellam_abs(1.0, 1.0, 1.0, 5.0), rel=1e-12
        )

    def test_shifted_brute_force(self):
        grid = np.arange(0, 60)
        pj = stats.poisson.pmf(grid, 1.3)
        pk = stats.poisson.pmf(grid, 0.8)
        x0, q = 0.4, 3.5
        # c < 0 flips the sign of the drift c (lam1 - lam2) against x0
        for c in (1.1, -1.1):
            brute = float(pj @ (np.abs(x0 + c * np.subtract.outer(grid, grid)) ** q) @ pk)
            assert skellam_abs_moment_about(1.3, 0.8, c, x0, q) == pytest.approx(brute, rel=1e-12)


def envelope_terms(lam: float, q: float, offset: float, scale: float, kmax: int) -> np.ndarray:
    """scale^q pmf(k; lam) (offset + |k - lam|)^q for k = 0..kmax, from scipy's pmf."""
    ks = np.arange(0, kmax + 1)
    return scale**q * stats.poisson.pmf(ks, lam) * (offset + np.abs(ks - lam)) ** q


WINDOW_CASES = [
    (lam, q, offset)
    for lam in (0.01, 0.7, 5.0, 40.0, 300.0, 1e4)  # 5 .. 1e4 are integers
    for q in (0.5, 2.5, 5.0, 8.7)
    for offset in (0.0, 0.5, 3.0, 40.0)
]


class TestCertifiedWindow:
    """The window [L, K] of one Poisson atom: each discarded side of the
    envelope is at most its budget, checked by brute summation."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-8])
    def test_head_and_tail_within_budget(self, tol):
        budget = tol / 2.0
        for lam, q, offset in WINDOW_CASES:
            lo = certified_lower_cutoff(lam, q, budget, offset)
            hi = certified_upper_cutoff(lam, q, budget, 10**6, offset)
            assert 0 <= lo <= math.ceil(lam) <= hi
            t = envelope_terms(lam, q, offset, 1.0, int(hi + 40.0 * math.sqrt(lam) + 200))
            assert math.fsum(t[:lo]) <= budget, (lam, q, offset)
            assert math.fsum(t[hi + 1 :]) <= budget, (lam, q, offset)

    def test_cutoffs_near_minimal(self):
        # one index further in, the brute head (tail) spends at least 90% of
        # the budget: the ratio certificate gives away less than one index
        budget = 5e-13
        raised = 0
        for lam, q, offset in WINDOW_CASES:
            lo = certified_lower_cutoff(lam, q, budget, offset)
            hi = certified_upper_cutoff(lam, q, budget, 10**6, offset)
            t = envelope_terms(lam, q, offset, 1.0, int(hi + 40.0 * math.sqrt(lam) + 200))
            if lo > 0:
                raised += 1
                assert math.fsum(t[: lo + 1]) > 0.9 * budget, (lam, q, offset)
            if hi > math.ceil(lam):
                assert math.fsum(t[hi:]) > 0.9 * budget, (lam, q, offset)
        assert raised >= 32  # every lam >= 300 case truncates its head

    @pytest.mark.parametrize("lam", [40.0, 300.0, 1e4])
    def test_lower_cutoff_one_too_high_fails_head(self, lam):
        budget = 5e-13
        lo = certified_lower_cutoff(lam, 5.0, budget)
        t = envelope_terms(lam, 5.0, 0.0, 1.0, int(lam + 40.0 * math.sqrt(lam) + 200))
        assert math.fsum(t[:lo]) <= budget < math.fsum(t[: lo + 1])

    def test_small_lambda_keeps_zero(self):
        # t(0) alone exceeds the budget: nothing below the mean can be dropped
        for lam in (0.01, 0.7, 5.0, 20.0):
            assert certified_lower_cutoff(lam, 5.0, 2.5e-13, 1.0) == 0

    @pytest.mark.parametrize("q", [0.5, 2.5, 5.0, 8.7])
    def test_large_lambda_window_width(self, q):
        # a scan atom at |u| = c/100 carries lam ~ 1e4; its window is
        # O(sqrt(lam)) wide where [0, K] held over 2e4 points
        lam, budget, scale = 1e4, 2.5e-13, 0.01
        log_scale = q * math.log(scale)
        lo = certified_lower_cutoff(lam, q, budget, 1.0, log_scale)
        hi = certified_upper_cutoff(lam, q, budget, 10**6, 1.0, log_scale)
        assert hi - lo + 1 < 2000
        t = envelope_terms(lam, q, 1.0, scale, int(hi + 4000))
        assert math.fsum(t[:lo]) <= budget and math.fsum(t[hi + 1 :]) <= budget

    def test_upper_cutoff_respects_max_terms(self):
        with pytest.raises(TailNotConverged):
            certified_upper_cutoff(1e4, 5.0, 1e-12, 10_100)


def log_envelope(k, lam, q, offset, log_scale) -> float:
    """log t(k) = log(scale * pmf(k; lam) * (offset + |k - lam|)^q), summed
    left to right in the package's order."""
    return (
        log_scale
        + k * math.log(lam)
        - lam
        - math.lgamma(k + 1.0)
        + q * math.log(offset + abs(k - lam))
    )


def tail_passes(cut, lam, q, tol, offset, log_scale) -> bool:
    """The ratio certificate of the envelope's tail beyond ``cut``:
    t(k)/(1 - r(k)) <= tol at k = cut + 1, written out here."""
    k = cut + 1.0
    log_ratio = math.log(lam / (k + 1.0)) + q * math.log1p(1.0 / (offset + k - lam))
    if log_ratio >= 0.0:
        return False
    log_first = log_envelope(k, lam, q, offset, log_scale)
    return log_first - math.log(-math.expm1(log_ratio)) <= math.log(tol)


def head_passes(k, lam, q, tol, offset, log_scale) -> bool:
    """The certificate of the envelope's head at and below index k < lam:
    t(0) <= tol at k = 0, else t(k)/(1 - s(k)) <= tol."""
    log_t = log_envelope(k, lam, q, offset, log_scale)
    if k == 0:
        return log_t <= math.log(tol)
    log_ratio = math.log(k / lam) + q * math.log1p(1.0 / (offset + lam - k))
    if log_ratio >= 0.0:
        return False
    return log_t - math.log(-math.expm1(log_ratio)) <= math.log(tol)


def bisect_upper(lam, q, tol, offset, log_scale, top=10**6) -> int:
    """Smallest K >= ceil(lam) passing tail_passes, by plain bisection."""
    failed, found = math.ceil(lam) - 1, top
    while found - failed > 1:
        mid = (failed + found) // 2
        if tail_passes(mid, lam, q, tol, offset, log_scale):
            found = mid
        else:
            failed = mid
    return found


def bisect_lower(lam, q, tol, offset, log_scale) -> int:
    """Largest L <= ceil(lam) whose head below passes head_passes, by plain
    bisection; 0 when even t(0) exceeds tol."""
    if not head_passes(0, lam, q, tol, offset, log_scale):
        return 0
    passed, failed = 0, math.ceil(lam)  # the index ceil(lam) is never discarded
    while failed - passed > 1:
        mid = (passed + failed) // 2
        if head_passes(mid, lam, q, tol, offset, log_scale):
            passed = mid
        else:
            failed = mid
    return passed + 1


class TestCutoffSearch:
    """Each cutoff search starts from a closed-form guess; wherever that
    guess lands, the cutoff is the nearest index the certificate accepts."""

    @pytest.mark.parametrize(
        "seed, lam_range, scale_range, offsets",
        [
            (1, (-2.0, 4.0), (-5.0, 5.0), (0.0, 0.5, 3.0, 40.0)),
            (2, (-2.0, 4.0), (-5.0, 5.0), (0.0, 0.5, 3.0, 40.0)),
            # tiny atoms (|u| << 1 scales the envelope down by |u|^q) and
            # offsets far beyond the window, where the guess falls short
            (3, (-12.0, 1.0), (-80.0, 10.0), (0.0, 3.0, 40.0, 200.0)),
            # intensities so small that the window ends within a few indices
            # of the mean, each index past it costing a factor lam
            (4, (-300.0, -8.0), (-120.0, 20.0), (0.0, 3.0, 40.0, 1e4)),
            # windows up to a few thousand indices wide, under envelopes
            # scaled from far below tol to far above it
            (5, (-2.0, 5.0), (-120.0, 20.0), (0.0, 3.0, 40.0, 1e4)),
        ],
        ids=["unit-1", "unit-2", "extreme", "tiny", "wide"],
    )
    def test_minimal_window_matches_bisection(self, seed, lam_range, scale_range, offsets):
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            lam = float(10 ** rng.uniform(*lam_range))
            q = float(rng.uniform(0.5, 8.7))
            tol = float(10 ** rng.uniform(-16.0, -8.0))
            offset = float(rng.choice(offsets))
            log_scale = float(rng.uniform(*scale_range))
            case = (lam, q, tol, offset, log_scale)
            hi = certified_upper_cutoff(lam, q, tol, 10**6, offset, log_scale)
            assert tail_passes(hi, *case), case
            assert hi == math.ceil(lam) or not tail_passes(hi - 1, *case), case
            assert hi == bisect_upper(*case), case
            lo = certified_lower_cutoff(lam, q, tol, offset, log_scale)
            assert lo == 0 or head_passes(lo - 1, *case), case
            assert lo == math.ceil(lam) or not head_passes(lo, *case), case
            assert lo == bisect_lower(*case), case

    def test_ratio_tests_per_cutoff_do_not_grow(self, monkeypatch):
        # 20 000 seeded cutoffs on each side.  The bounds are what the
        # earlier head and tail searches, one written per side, made on the
        # same draws: 34 675 ratio tests above the mean, at most 12 for one
        # cutoff, and 9 434 below it, at most 10
        calls = [0]
        certified = poisson._certified

        def counted(*args):
            calls[0] += 1
            return certified(*args)

        monkeypatch.setattr(poisson, "_certified", counted)
        rng = np.random.default_rng(14)
        upper, lower = [], []
        for _ in range(20_000):
            lam = float(10 ** rng.uniform(-12.0, 4.0))
            q = float(rng.uniform(0.5, 8.7))
            tol = float(10 ** rng.uniform(-16.0, -8.0))
            offset = float(rng.choice((0.0, 0.5, 3.0, 40.0)))
            log_scale = float(rng.uniform(-5.0, 5.0))
            calls[0] = 0
            certified_upper_cutoff(lam, q, tol, 10**6, offset, log_scale)
            upper.append(calls[0])
            calls[0] = 0
            certified_lower_cutoff(lam, q, tol, offset, log_scale)
            lower.append(calls[0])
        assert sum(upper) <= 34_675 and max(upper) <= 12
        assert sum(lower) <= 9_434 and max(lower) <= 10


def mp_abs_moment(mean: float, sd: float, q: float) -> mpmath.mpf:
    """E|mean + sd Z|^q at 30 digits from mpmath's 1F1."""
    with mpmath.workdps(30):
        m, s, q = mpmath.mpf(mean), mpmath.mpf(sd), mpmath.mpf(q)
        return (
            s**q
            * 2 ** (q / 2)
            * mpmath.gamma((q + 1) / 2)
            / mpmath.sqrt(mpmath.pi)
            * mpmath.hyp1f1(-q / 2, 0.5, -(m * m) / (2 * s * s))
        )


def mp_positive_part(mean: float, sd: float, q: float) -> mpmath.mpf:
    """E(mean + sd Z)_+^q at 30 digits from mpmath's parabolic cylinder
    function, valid on both sides of 0."""
    with mpmath.workdps(30):
        mu, s, q = mpmath.mpf(mean) / mpmath.mpf(sd), mpmath.mpf(sd), mpmath.mpf(q)
        return (
            s**q
            * mpmath.gamma(q + 1)
            / mpmath.sqrt(2 * mpmath.pi)
            * mpmath.exp(-mu * mu / 4)
            * mpmath.pcfd(-q - 1, -mu)
        )


def random_gaussian_cases(seed: int, n: int):
    rng = np.random.default_rng(seed)
    return [
        (float(rng.uniform(-30, 30)), float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.5, 8.0)))
        for _ in range(n)
    ]


class TestGaussianMoments:
    def test_closed_forms(self):
        assert gaussian_abs_moment(0.0, 1.0, 2.0) == pytest.approx(1.0, rel=1e-14)
        assert gaussian_abs_moment(0.0, 1.0, 4.0) == pytest.approx(3.0, rel=1e-14)
        assert gaussian_abs_moment(0.0, 1.0, 3.0) == pytest.approx(
            2.0 * math.sqrt(2.0 / math.pi), rel=1e-13
        )

    def test_quadrature_vs_closed_form_scaling(self):
        # E|m + sZ|^2 = m^2 + s^2 exactly
        for m, s in [(0.5, 1.0), (-2.0, 0.3), (10.0, 2.0)]:
            assert gaussian_abs_moment(m, s, 2.0) == pytest.approx(m * m + s * s, rel=1e-12)

    def test_far_kink_regime(self):
        # degenerate-within-float case that once returned 0: narrow bump far
        # from the kink
        val = gaussian_abs_moment(100.0, 1.0, 2.5)
        quad_ref = integrate.quad(
            lambda t: abs(100.0 + t) ** 2.5 * stats.norm.pdf(t), -40, 40
        )[0]
        assert val == pytest.approx(quad_ref, rel=1e-10)

    def test_sd_zero(self):
        assert gaussian_abs_moment(-1.5, 0.0, 3.0) == 1.5**3
        means = np.array([-1.5, 0.0, 2.0])
        np.testing.assert_array_equal(gaussian_abs_moment(means, 0.0, 3.0), np.abs(means) ** 3)
        np.testing.assert_array_equal(
            gaussian_part_moment(means, 0.0, 3.0, "positive"), [0.0, 0.0, 8.0]
        )
        np.testing.assert_array_equal(
            gaussian_part_moment(means, 0.0, 3.0, "negative"), [1.5**3, 0.0, 0.0]
        )

    def test_part_decomposition(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = float(rng.uniform(-3, 3))
            s = float(rng.uniform(0.1, 2))
            q = float(rng.uniform(0.5, 6))
            total = gaussian_abs_moment(m, s, q)
            parts = gaussian_part_moment(m, s, q, "positive") + gaussian_part_moment(
                m, s, q, "negative"
            )
            assert parts == pytest.approx(total, rel=1e-11)

    def test_abs_moment_vs_mpmath(self):
        for m, s, q in random_gaussian_cases(41, 300):
            ref = mp_abs_moment(m, s, q)
            assert abs(gaussian_abs_moment(m, s, q) - ref) <= 1e-13 * ref

    def test_part_moments_vs_mpmath(self):
        for m, s, q in random_gaussian_cases(42, 300):
            scale = 1e-14 * float(mp_abs_moment(m, s, q))
            pos = gaussian_part_moment(m, s, q, "positive")
            neg = gaussian_part_moment(m, s, q, "negative")
            assert abs(pos - mp_positive_part(m, s, q)) <= scale
            assert abs(neg - mp_positive_part(-m, s, q)) <= scale

    def test_array_mean_matches_scalar_and_mpmath(self):
        means = np.linspace(-12.0, 12.0, 49).reshape(7, 7)
        sd, q = 1.7, 5.3
        values = {
            "abs": gaussian_abs_moment(means, sd, q),
            "positive": gaussian_part_moment(means, sd, q, "positive"),
            "negative": gaussian_part_moment(means, sd, q, "negative"),
        }
        for kind, arr in values.items():
            assert isinstance(arr, np.ndarray) and arr.shape == means.shape
        for m, a, pos, neg in zip(
            means.ravel(), values["abs"].ravel(), values["positive"].ravel(), values["negative"].ravel()
        ):
            assert a == gaussian_abs_moment(float(m), sd, q)
            assert pos == gaussian_part_moment(float(m), sd, q, "positive")
            assert neg == gaussian_part_moment(float(m), sd, q, "negative")
            ref = mp_abs_moment(m, sd, q)
            assert abs(a - ref) <= 1e-13 * ref
            assert abs(pos - mp_positive_part(m, sd, q)) <= 1e-14 * ref
            assert abs(neg - mp_positive_part(-m, sd, q)) <= 1e-14 * ref

    def test_scalar_returns_float(self):
        assert type(gaussian_abs_moment(1.0, 2.0, 3.0)) is float
        assert type(gaussian_part_moment(np.float64(-1.0), 2.0, 3.0, "negative")) is float

    @pytest.mark.parametrize("q", [0.5, 2.5, 4.0, 7.9, 12.0])
    def test_far_mean_ratio(self, q):
        # |m|/s up to 1e6: the abs moment tends to |m|^q, the small side underflows
        for ratio in (1e2, 1e4, 1e6, -1e6):
            sd = 0.37
            m = ratio * sd
            ref = mp_abs_moment(m, sd, q)
            assert abs(gaussian_abs_moment(m, sd, q) - ref) <= 1e-13 * ref
            for side, mean in (("positive", m), ("negative", -m)):
                assert abs(gaussian_part_moment(m, sd, q, side) - mp_positive_part(mean, sd, q)) <= (
                    1e-14 * ref
                )

    @pytest.mark.parametrize("q", [4.0, 6.0, 12.0])
    def test_even_order_beyond_hypergeometric_range(self, q):
        # scipy's hyp1f1(-q/2, 1/2, -x) is NaN for even q >= 4 and |m|/s >= 1e10
        m = 3.0e10
        ref = mp_abs_moment(m, 1.0, q)
        assert abs(gaussian_abs_moment(m, 1.0, q) - ref) <= 1e-13 * ref
        assert gaussian_part_moment(-m, 1.0, q, "negative") == pytest.approx(float(ref), rel=1e-13)

    def test_mean_zero(self):
        for q in (0.5, 2.5, 5.0, 7.5):
            ref = mp_abs_moment(0.0, 1.3, q)
            assert abs(gaussian_abs_moment(0.0, 1.3, q) - ref) <= 1e-13 * ref
            for side in ("positive", "negative"):
                assert abs(gaussian_part_moment(0.0, 1.3, q, side) - ref / 2) <= 1e-14 * ref

    @pytest.mark.parametrize("mu", [37.0, 38.5, 40.0, 60.0, 5000.0])
    def test_small_side_underflow_guard(self, mu):
        # beyond |mu| ~ 37.6 the small side underflows; pbdv is NaN near 5000
        q = 3.5
        small = gaussian_part_moment(-mu, 1.0, q, "positive")
        large = gaussian_part_moment(mu, 1.0, q, "positive")
        assert math.isfinite(small) and math.isfinite(large)
        assert small == pytest.approx(float(mp_positive_part(-mu, 1.0, q)), rel=1e-12, abs=1e-300)
        ref = mp_abs_moment(mu, 1.0, q)
        assert abs(large - ref) <= 1e-13 * ref

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gaussian_abs_moment(1.0, -1.0, 3.0)
        with pytest.raises(ValueError):
            gaussian_part_moment(1.0, 1.0, 0.0, "positive")
        with pytest.raises(ValueError):
            gaussian_part_moment(1.0, 1.0, 3.0, "both")
