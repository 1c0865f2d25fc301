"""Core value types: discrete laws, atomic measures, the (p; A, B) class."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharp_rosenthal.bounds import solve_lambda_c
from sharp_rosenthal.measures import (
    DiscreteRV,
    LevyVarianceMeasure,
    SignedAtomMeasure,
    rv_abs_moment,
    rv_center,
    rv_convolve,
    rv_mean,
)


class TestDiscreteRV:
    def test_mean_examples(self):
        assert rv_mean(DiscreteRV.rademacher()) == 0.0
        assert rv_mean(DiscreteRV.delta(0.0)) == 0.0
        assert rv_mean(DiscreteRV([(1.0, 0.25), (2.0, 0.75)])) == pytest.approx(1.75, abs=0)

    def test_abs_moment_examples(self):
        assert rv_abs_moment(DiscreteRV.rademacher(), 5.0) == 1.0
        assert rv_abs_moment(DiscreteRV.delta(0.0), 3.0) == 0.0
        two = DiscreteRV([(-2.0, 0.5), (2.0, 0.5)])
        assert rv_abs_moment(two, 2.5) == pytest.approx(2.0**2.5, rel=1e-15)

    def test_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            DiscreteRV([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError):
            DiscreteRV([(0.0, -0.1), (1.0, 1.1)])
        with pytest.raises(ValueError):
            DiscreteRV([(0.0, 0.5), (1.0, 0.4)])

    def test_merges_duplicate_values(self):
        rv = DiscreteRV([(1.0, 0.5), (1.0 + 1e-13, 0.5)])
        assert len(rv.atoms) == 1
        assert rv.atoms[0][1] == 1.0

    def test_values_strictly_increasing(self):
        rv = DiscreteRV([(2.0, 0.3), (-1.0, 0.5), (3.0, 0.2)])
        assert list(rv.values) == sorted(rv.values)

    def test_json_round_trip(self):
        rv = DiscreteRV([(-1.5, 0.25), (0.5, 0.75)])
        assert DiscreteRV.from_json_dict(rv.to_json_dict()) == rv


class TestConvolve:
    def test_rademacher_square(self):
        law = rv_convolve(DiscreteRV.rademacher(), DiscreteRV.rademacher())
        assert law.atoms == ((-2.0, 0.25), (0.0, 0.5), (2.0, 0.25))

    def test_identity_element(self):
        x = DiscreteRV([(-1.0, 0.3), (2.0, 0.7)])
        assert rv_convolve(x, DiscreteRV.delta(0.0)) == x

    def test_binomial(self):
        b = DiscreteRV([(0.0, 0.5), (1.0, 0.5)])
        law = rv_convolve(b, b)
        assert law.atoms == ((0.0, 0.25), (1.0, 0.5), (2.0, 0.25))

    def test_commutative_associative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            laws = []
            for _ in range(3):
                n = rng.integers(2, 4)
                v = rng.uniform(-2, 2, n)
                p = rng.dirichlet(np.ones(n))
                laws.append(DiscreteRV(zip(v, p)))
            x, y, z = laws
            xy = rv_convolve(x, y)
            yx = rv_convolve(y, x)
            assert xy.values == pytest.approx(yx.values, abs=1e-12)
            assert xy.probs == pytest.approx(yx.probs, abs=1e-12)
            left = rv_convolve(rv_convolve(x, y), z)
            right = rv_convolve(x, rv_convolve(y, z))
            assert left.values == pytest.approx(right.values, abs=1e-12)
            assert left.probs == pytest.approx(right.probs, abs=1e-12)


class TestCenter:
    def test_examples(self):
        assert rv_center(DiscreteRV([(0.0, 0.5), (2.0, 0.5)])).atoms == ((-1.0, 0.5), (1.0, 0.5))
        assert rv_center(DiscreteRV.rademacher()) == DiscreteRV.rademacher()
        assert rv_center(DiscreteRV([(1.0, 1.0)])).atoms == ((0.0, 1.0),)

    @given(
        st.lists(
            st.tuples(
                st.floats(-50, 50, allow_nan=False),
                st.floats(0.01, 1.0),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_centered_mean_and_variance_identity(self, pairs):
        total = sum(p for _, p in pairs)
        rv = DiscreteRV([(v, p / total) for v, p in pairs])
        centered = rv_center(rv)
        assert abs(rv_mean(centered)) <= 1e-12
        direct_var = math.fsum(p * (v - rv_mean(rv)) ** 2 for v, p in rv.atoms)
        assert rv_abs_moment(rv, 2.0) - rv_mean(rv) ** 2 == pytest.approx(
            direct_var, abs=1e-12 * max(1.0, direct_var)
        )


class TestLevyVarianceMeasure:
    def test_moments(self):
        h = LevyVarianceMeasure([(1.0, 1.0), (-2.0, 0.5)])
        assert h.total_weight() == 1.5
        assert h.p_moment(5.0) == pytest.approx(1.0 + 8.0 * 0.5, rel=1e-15)
        assert h.gaussian_variance() == 0.0

    def test_gaussian_atom_and_merge(self):
        h = LevyVarianceMeasure([(0.0, 0.3), (1.0, 0.5), (1.0, 0.25)])
        assert h.gaussian_variance() == 0.3
        assert h.nonzero_atoms() == ((1.0, 0.75),)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            LevyVarianceMeasure([(1.0, -0.1)])

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            atoms = [(rng.uniform(-3, 3), rng.uniform(0.1, 2)) for _ in range(3)]
            h = LevyVarianceMeasure(atoms)
            p = rng.uniform(2.5, 7.0)
            for kappa in (0.5, 2.0, 3.0):
                hs = h.scaled(kappa)
                assert hs.total_weight() == pytest.approx(
                    kappa**2 * h.total_weight(), rel=1e-12
                )
                assert hs.p_moment(p) == pytest.approx(kappa**p * h.p_moment(p), rel=1e-12)

    def test_json_round_trip(self):
        h = LevyVarianceMeasure([(0.0, 0.25), (1.5, 0.5)])
        assert LevyVarianceMeasure.from_json_dict(h.to_json_dict()) == h


class TestSignedAtomMeasure:
    def test_cancellation(self):
        d = SignedAtomMeasure([(1.0, 1.0), (1.0, -1.0)])
        assert d.atoms == ()
        assert d.total_variation() == 0.0

    def test_total_variation(self):
        d = SignedAtomMeasure([(0.0, -0.5), (2.0, 1.5)])
        assert d.total_variation() == 2.0


class TestMomentConstraints:
    def test_validation(self):
        solve_lambda_c(2.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_lambda_c(2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_lambda_c(3.0, 0.0, 1.0)


class TestMeasureInClass:
    def test_examples(self):
        # (p; A, B) = (5; 1, 1): total weight B and |x|^{p-2} moment A
        h = LevyVarianceMeasure([(1.0, 1.0)])
        assert (h.total_weight(), h.p_moment(5.0)) == (1.0, 1.0)
        half = LevyVarianceMeasure([(1.0, 0.5)])
        assert (half.total_weight(), half.p_moment(5.0)) == (0.5, 0.5)
        far = LevyVarianceMeasure([(2.0, 1.0)])
        assert (far.total_weight(), far.p_moment(5.0)) == (1.0, 8.0)
        assert far.max_abs_location() > 1.0

    def test_support_bound(self):
        # (p; A, B) = (5; 16, 2) is met by 2 delta_2, whose support is [-2, 2]
        h = LevyVarianceMeasure([(2.0, 2.0)])
        assert (h.total_weight(), h.p_moment(5.0)) == (2.0, 16.0)
        assert h.max_abs_location() == 2.0
        assert LevyVarianceMeasure([(-2.0, 2.0), (0.0, 0.5)]).max_abs_location() == 2.0
