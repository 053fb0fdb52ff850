"""Discrete spectral toolbox for multipeakon wave dynamics.

Forward solver (eigenvalues, norming constants, Weyl functions), inverse
reconstruction from spectral and interior data, pole-splitting enumeration
of interior solution families, and exact isospectral time evolution.
"""

from .config import DEFAULT, GridSpec, RunConfig, Tolerances
from .errors import (
    BadResidueAtZero,
    ConsistencyFail,
    DegreeMismatch,
    DuplicatePoint,
    Infeasible,
    InfeasibleData,
    LengthBudgetExceeded,
    NearCollision,
    NegativeVee,
    NonConverged,
    NonPositiveLength,
    NotHerglotz,
    NullPoint,
    NumericalError,
    PeakonError,
    PoleHit,
    TraceMismatch,
    UnresolvedPole,
    ValidationError,
)
from .measures import PeakonMeasure, counts, validate
from .ratfun import (
    CFStage,
    HerglotzRational,
    StieltjesCF,
    cf_evaluate,
    cf_expand,
    herglotz,
    neg_reciprocal,
)
from .forward import (
    InteriorData,
    SpectralData,
    eigenfunction_zero_count,
    eigenvalues,
    interior_data,
    spectral_data,
    weyl,
)
from .inverse import HalfLineMeasure, measure_from_spectral_data, measure_from_weyl
from .interior import (
    CountDescriptor,
    FeasibilityReport,
    PoleAssignment,
    SolutionFamily,
    alpha_beta,
    enumerate_solutions,
    feasibility,
    modulus_family_count,
    pole_split,
    solution_count,
    sum_weyl,
)
from .evolution import (
    FlowState,
    ScanRecord,
    SupResult,
    collision_scan,
    evolve_spectral,
    measure_at,
    solution_at,
    sup_u,
)

__version__ = "0.1.0"
