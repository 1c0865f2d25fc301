"""Foundational value types: discrete laws and atomic measures on the real line.

Everything here is exact desk-scale arithmetic on finitely supported objects:
a :class:`DiscreteRV` is a finitely supported probability law, a
:class:`LevyVarianceMeasure` is a finite nonnegative atomic measure whose
weights carry units of variance (an atom at 0 encodes a Gaussian variance
component), and a :class:`SignedAtomMeasure` is a finite signed atomic
measure used as a perturbation direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from .errors import NotZeroMean

#: Absolute tolerance for merging atom locations/values.
ATOM_MERGE_TOL = 1e-12

#: Tolerance on sum(prob) - 1 before probabilities are renormalized.
PROB_DRIFT_TOL = 1e-12

#: Largest |E X| accepted as a zero mean.
ZERO_MEAN_TOL = 1e-10


def _merge_atoms(pairs: Iterable[Tuple[float, float]], tol: float) -> list[tuple[float, float]]:
    """Sort (position, mass) pairs and merge positions closer than ``tol``."""
    items = sorted((float(x), float(m)) for x, m in pairs)
    merged: list[tuple[float, float]] = []
    for x, m in items:
        if merged and abs(x - merged[-1][0]) <= tol:
            x0, m0 = merged[-1]
            merged[-1] = (x0, m0 + m)
        else:
            merged.append((x, m))
    return merged


@dataclass(frozen=True)
class DiscreteRV:
    """A finitely supported probability distribution on the reals.

    ``atoms`` is an ordered tuple of (value, prob) pairs with strictly
    increasing values, every prob > 0, and sum(prob) = 1 within 1e-12.
    Values closer than :data:`ATOM_MERGE_TOL` are merged at construction;
    nonpositive probabilities are rejected rather than dropped so that
    constructor bugs surface early.
    """

    atoms: Tuple[Tuple[float, float], ...]

    def __init__(self, atoms: Iterable[Tuple[float, float]]):
        pairs = list(atoms)
        if not pairs:
            raise ValueError("DiscreteRV needs at least one atom")
        for _, prob in pairs:
            if not prob > 0.0:
                raise ValueError(f"atom probability must be > 0, got {prob}")
        merged = _merge_atoms(pairs, ATOM_MERGE_TOL)
        total = math.fsum(m for _, m in merged)
        if abs(total - 1.0) > PROB_DRIFT_TOL:
            raise ValueError(f"probabilities must sum to 1 within {PROB_DRIFT_TOL}, got {total!r}")
        object.__setattr__(self, "atoms", tuple(merged))

    @classmethod
    def delta(cls, value: float = 0.0) -> "DiscreteRV":
        """Point mass at ``value``."""
        return cls([(value, 1.0)])

    @classmethod
    def rademacher(cls) -> "DiscreteRV":
        """Fair +-1 random variable."""
        return cls([(-1.0, 0.5), (1.0, 0.5)])

    @classmethod
    def two_point_zero_mean(cls, a: float, b: float) -> "DiscreteRV":
        """The unique zero-mean law on {a, b} with a < 0 < b."""
        if not (a < 0.0 < b):
            raise ValueError(f"need a < 0 < b, got a={a}, b={b}")
        p = b / (b - a)
        return cls([(a, p), (b, 1.0 - p)])

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.atoms])

    @property
    def probs(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms])

    def reflected(self) -> "DiscreteRV":
        """Law of -X."""
        return DiscreteRV([(-v, p) for v, p in self.atoms])

    @classmethod
    def from_json_dict(cls, data: dict) -> "DiscreteRV":
        """The law ``{"atoms": [[value, prob], ...]}``; ValueError on any other shape."""
        try:
            return cls([(float(v), float(p)) for v, p in data["atoms"]])
        except (KeyError, TypeError) as exc:
            raise ValueError(f'expected {{"atoms": [[value, prob], ...]}}, got {data!r}') from exc


def rv_mean(x: DiscreteRV) -> float:
    """E X = sum of value * prob."""
    return math.fsum(v * p for v, p in x.atoms)


def require_zero_mean(X: DiscreteRV, what: str = "X") -> None:
    """Raise :class:`NotZeroMean` unless |E X| <= ZERO_MEAN_TOL."""
    mu = rv_mean(X)
    if abs(mu) > ZERO_MEAN_TOL:
        raise NotZeroMean(f"{what} must have mean 0 within {ZERO_MEAN_TOL}, got {mu}")


def rv_abs_moment(x: DiscreteRV, q: float) -> float:
    """E|X|^q = sum of |value|^q * prob, for q > 0."""
    if not q > 0.0:
        raise ValueError(f"moment order must be > 0, got {q}")
    return math.fsum(abs(v) ** q * p for v, p in x.atoms)


def rv_second_moment(x: DiscreteRV) -> float:
    return math.fsum(v * v * p for v, p in x.atoms)


def rv_convolve(x: DiscreteRV, y: DiscreteRV) -> DiscreteRV:
    """Exact law of X + Y for independent X, Y.

    The raw sums and products go to :class:`DiscreteRV`, whose one merge
    joins sums that collide within :data:`ATOM_MERGE_TOL`.  The products are
    renormalized only if their sum drifts from 1 by more than
    :data:`PROB_DRIFT_TOL`, so that convolutions of dyadic inputs stay exact.
    """
    sums = np.add.outer(x.values, y.values).ravel()
    masses = np.multiply.outer(x.probs, y.probs).ravel()
    total = math.fsum(masses.tolist())
    if abs(total - 1.0) > PROB_DRIFT_TOL:
        masses = masses / total
    return DiscreteRV(zip(sums.tolist(), masses.tolist()))


@dataclass(frozen=True)
class LevyVarianceMeasure:
    """A finite nonnegative atomic measure H with variance-unit weights.

    Weight w at location u means H({u}) = w.  An atom at location 0 encodes
    a Gaussian component of variance w; an atom at u != 0 encodes the scaled
    centered Poisson component u * (Pi_{w/u^2} - w/u^2).  Duplicate locations
    are merged (weights add) and zero-weight atoms are dropped, which matches
    the additivity of independent components at the same scale.
    """

    atoms: Tuple[Tuple[float, float], ...]

    def __init__(self, atoms: Iterable[Tuple[float, float]] = ()):
        merged = _merge_atoms(atoms, ATOM_MERGE_TOL)
        for u, w in merged:
            if w < 0.0:
                raise ValueError(f"weight at location {u} must be >= 0, got {w}")
        object.__setattr__(self, "atoms", tuple((u, w) for u, w in merged if w > 0.0))

    @property
    def locations(self) -> np.ndarray:
        return np.array([u for u, _ in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    def gaussian_variance(self) -> float:
        """Weight sitting at location 0."""
        return math.fsum(w for u, w in self.atoms if u == 0.0)

    def nonzero_atoms(self) -> Tuple[Tuple[float, float], ...]:
        return tuple((u, w) for u, w in self.atoms if u != 0.0)

    def reflected(self) -> "LevyVarianceMeasure":
        """The measure H^- with H^-(du) = H(-du); governs -Y_H."""
        return LevyVarianceMeasure([(-u, w) for u, w in self.atoms])


@dataclass(frozen=True)
class SignedAtomMeasure:
    """A finite signed atomic measure; the perturbation direction Delta.

    Atoms at duplicate locations are merged by summing their signed weights;
    exact cancellations are dropped.
    """

    atoms: Tuple[Tuple[float, float], ...]

    def __init__(self, atoms: Iterable[Tuple[float, float]] = ()):
        merged = _merge_atoms(atoms, ATOM_MERGE_TOL)
        object.__setattr__(self, "atoms", tuple((u, d) for u, d in merged if d != 0.0))
