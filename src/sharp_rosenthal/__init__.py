"""Exact Rosenthal-type moment bounds for sums of independent zero-mean
random variables, with the full supporting machinery: fractional moments
of compound-Poisson laws (a single centered Poisson is the one-atom case,
a scaled Skellam difference the symmetric two-atom case) from one certified
series engine, a Fourier-Laplace contour engine, a calculus of variations
over Lévy measures, extremal-family scans, and a brute-force verification
harness."""

from .errors import (
    BoundExceeded,
    ExponentTooSmall,
    ImaginaryResidualTooLarge,
    InfeasibleMass,
    InfeasiblePath,
    NewtonDiverged,
    NotZeroMean,
    QuadratureNotConverged,
    SharpRosenthalError,
    SingularSystem,
    SupportTooLarge,
    TailNotConverged,
    TooManyAtoms,
    UnsupportedExponents,
)
from .measures import (
    DiscreteRV,
    LevyVarianceMeasure,
    SignedAtomMeasure,
    rv_abs_moment,
    rv_convolve,
    rv_mean,
)
from .poisson import (
    DEFAULT_CONFIG,
    SeriesConfig,
    gaussian_abs_moment,
    gaussian_part_moment,
    poisson_central_moment_even,
    skellam_abs_moment_about,
)
from .compound import (
    CompoundLaw,
    cp_abs_moment_crosscheck,
    cp_abs_moment_series,
    cp_mgf,
    cp_part_moment_contour,
    cp_part_moment_series,
    r1_exp,
)
from .variation import (
    PerturbationPath,
    first_variation,
    moment_along_path,
    positivity_kernel,
    second_variation,
    variational_F,
)
from .bounds import (
    BoundResult,
    LambdaC,
    QPoint,
    best_constant,
    classical_rosenthal_constant,
    combined_bound,
    even_p_bound,
    exact_bound,
    limit_compound,
    q_point_from_c,
    q_scan,
    solve_lambda_c,
    symmetric_bound,
)
from .verify import (
    AccompanyingParams,
    CaseReport,
    RVSequence,
    accompanying_measure,
    accompanying_sequence_moment,
    check_domination,
    check_rosenthal,
    random_zero_mean_rv,
    solve_accompanying,
    sum_abs_moment,
)

__version__ = "0.1.0"
