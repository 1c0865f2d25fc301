"""Exception hierarchy shared across the package."""


class SharpRosenthalError(Exception):
    """Base class for all package-specific errors."""


class TailNotConverged(SharpRosenthalError):
    """A series truncation could not be certified within the term budget."""


class TooManyAtoms(SharpRosenthalError):
    """A compound law has more nonzero-location atoms than the series engine supports."""


class QuadratureNotConverged(SharpRosenthalError):
    """An adaptive quadrature failed to reach its error target."""


class ImaginaryResidualTooLarge(SharpRosenthalError):
    """The contour integral returned a non-negligible imaginary part.

    Signals a branch-cut or abscissa misuse rather than ordinary roundoff.
    """


class ExponentTooSmall(SharpRosenthalError):
    """The requested operation needs a larger moment exponent."""


class InfeasiblePath(SharpRosenthalError):
    """A perturbed measure leaves the cone of nonnegative measures."""


class UnsupportedExponents(SharpRosenthalError):
    """(p, q) falls in a regime with no known exact bound.

    The exponent ranges p in (3,4) and (4,5), and q < 5 when p >= 5, are open
    problems; they are rejected rather than extrapolated.
    """


class NotZeroMean(SharpRosenthalError):
    """An input random variable must be centered but is not."""


class SingularSystem(SharpRosenthalError):
    """The 2x2 weight system for a two-atom family is singular."""


class NewtonDiverged(SharpRosenthalError):
    """The solved accompanying-law parameters failed their residual check
    against (B, A).  The name predates the bracketed solve that replaced
    Newton's method."""


class InfeasibleMass(SharpRosenthalError):
    """The accompanying-law construction needs total mass kappa*G(R)/n <= 1."""


class SupportTooLarge(SharpRosenthalError):
    """An exact convolution would exceed the atom budget."""


class BoundExceeded(SharpRosenthalError):
    """A scanned moment exceeded the certified exact bound beyond tolerance."""
