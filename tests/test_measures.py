"""Core value types: discrete laws, atomic measures, the (p; A, B) class."""

import math

import numpy as np
import pytest

from sharp_rosenthal.bounds import solve_lambda_c
from sharp_rosenthal.measures import (
    DiscreteRV,
    LevyVarianceMeasure,
    SignedAtomMeasure,
    rv_abs_moment,
    rv_convolve,
    rv_mean,
)


def class_moments(h, p):
    """(integral of H, integral of |x|^{p-2} H(dx)): the (B, A) that H meets."""
    total = math.fsum(w for _, w in h.atoms)
    pth = math.fsum(abs(u) ** (p - 2.0) * w for u, w in h.atoms if u != 0.0)
    return total, pth


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
        assert DiscreteRV.from_json_dict({"atoms": [[v, p] for v, p in rv.atoms]}) == rv


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

    def test_merge_and_renormalization(self):
        # 0.1 + 0.2 and 0.7 - 0.4 round to neighbours of 0.3 and merge onto
        # the smaller, the first value of their cluster
        law = rv_convolve(
            DiscreteRV([(0.1, 0.5), (0.7, 0.5)]), DiscreteRV([(0.2, 0.5), (-0.4, 0.5)])
        )
        assert len(law.atoms) == 3
        assert law.atoms[1] == (0.29999999999999993, 0.5)
        # a cluster is measured from its first value: 1.6e-12 lies within the
        # merge tolerance of 0.8e-12 but not of 0
        chain = DiscreteRV([(0.0, 0.25), (0.8e-12, 0.25), (1.6e-12, 0.5)])
        assert chain.atoms == ((0.0, 0.5), (1.6e-12, 0.5))
        # a total of 1 + 8e-13 is accepted, but the raw products of its square
        # sum to 1 + 1.6e-12, beyond the drift tolerance, so they are renormalized
        x = DiscreteRV([(0.0, 0.5), (1.0, 0.5 + 8e-13)])
        raw = {0.0: [0.25], 1.0: [0.5 * (0.5 + 8e-13)] * 2, 2.0: [(0.5 + 8e-13) ** 2]}
        raw_total = math.fsum(sum(raw.values(), []))
        assert abs(raw_total - 1.0) > 1.5e-12
        law = rv_convolve(x, x)
        assert law.values.tolist() == [0.0, 1.0, 2.0]
        assert abs(math.fsum(law.probs) - 1.0) <= 1e-15
        for v, p in law.atoms:
            expected = math.fsum(raw[v]) / raw_total
            assert abs(p - expected) <= 1e-15 * expected


class TestLevyVarianceMeasure:
    def test_moments(self):
        h = LevyVarianceMeasure([(1.0, 1.0), (-2.0, 0.5)])
        total, pth = class_moments(h, 5.0)
        assert total == 1.5
        assert pth == pytest.approx(1.0 + 8.0 * 0.5, rel=1e-15)
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
            total, pth = class_moments(h, p)
            for kappa in (0.5, 2.0, 3.0):
                # the measure of kappa * Y_H
                hs = LevyVarianceMeasure([(kappa * u, kappa**2 * w) for u, w in h.atoms])
                scaled_total, scaled_pth = class_moments(hs, p)
                assert scaled_total == pytest.approx(kappa**2 * total, rel=1e-12)
                assert scaled_pth == pytest.approx(kappa**p * pth, rel=1e-12)


class TestSignedAtomMeasure:
    def test_cancellation(self):
        d = SignedAtomMeasure([(1.0, 1.0), (1.0, -1.0)])
        assert d.atoms == ()

    def test_total_variation(self):
        d = SignedAtomMeasure([(2.0, 1.5), (0.0, -0.5), (2.0, 0.25)])
        assert d.atoms == ((0.0, -0.5), (2.0, 1.75))
        assert math.fsum(abs(w) for _, w in d.atoms) == 2.25


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
        assert class_moments(h, 5.0) == (1.0, 1.0)
        half = LevyVarianceMeasure([(1.0, 0.5)])
        assert class_moments(half, 5.0) == (0.5, 0.5)
        far = LevyVarianceMeasure([(2.0, 1.0)])
        assert class_moments(far, 5.0) == (1.0, 8.0)
        assert far.locations.tolist() == [2.0]

    def test_support_bound(self):
        # (p; A, B) = (5; 16, 2) is met by 2 delta_2, whose support is [-2, 2]
        h = LevyVarianceMeasure([(2.0, 2.0)])
        assert class_moments(h, 5.0) == (2.0, 16.0)
        assert np.abs(h.locations).max() == 2.0
        assert np.abs(LevyVarianceMeasure([(-2.0, 2.0), (0.0, 0.5)]).locations).max() == 2.0
