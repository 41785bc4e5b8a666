"""Numerical invariants and conjugacies of strictly convex billiards.

Computes Mather's beta-function and its conjugacy-invariant normalization,
Marvizi-Melrose perimeter coefficients, and, for elliptic tables, the
explicit near-boundary conjugacy in caustic action-angle coordinates
together with the eccentricity-rigidity witness built from
hyperbolic-caustic periodic orbits.
"""

from .dynamics import (
    PhasePoint,
    generating,
    rotation_estimate,
    step,
    step_lifted,
    trajectory,
)
from .elliptic import carlson_rf, ellip_f, ellip_fk, ellip_k, invert_monotone, jacobi_am
from .ellipse_maps import (
    CausticCoord,
    ConjugacyMap,
    HyperbolicDecision,
    action_angle,
    action_angle_inverse,
    build_conjugacy,
    caustic_param,
    eccentricity_witness,
    hyperbolic_orbit_exists,
    orbit_shift,
    rotation_number_of_caustic,
)
from .errors import (
    BilliardsError,
    BracketError,
    ConditioningError,
    ConvexityError,
    DomainError,
    SolverError,
    TableConfigError,
)
from .invariants import (
    BetaSamples,
    InvariantReport,
    RatioRow,
    fit_normalized_beta,
    lazutkin_parameter,
    mather_alpha,
    mm_fit_from_samples,
    mm_invariants,
    mm_ratio_check,
    sample_beta,
)
from .orbits import OrbitConfig, find_orbit, find_orbits, lq_bounds
from .tables import (
    CircleTable,
    EllipseTable,
    PerturbedCircleTable,
    Table,
    load_table,
    table_from_config,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PhasePoint", "generating", "rotation_estimate", "step", "step_lifted",
    "trajectory",
    "carlson_rf", "ellip_f", "ellip_fk", "ellip_k", "invert_monotone", "jacobi_am",
    "CausticCoord", "ConjugacyMap", "HyperbolicDecision", "action_angle",
    "action_angle_inverse", "build_conjugacy", "caustic_param",
    "eccentricity_witness", "hyperbolic_orbit_exists", "orbit_shift",
    "rotation_number_of_caustic",
    "BilliardsError", "BracketError", "ConditioningError", "ConvexityError",
    "DomainError", "SolverError", "TableConfigError",
    "BetaSamples", "InvariantReport", "RatioRow", "fit_normalized_beta",
    "lazutkin_parameter", "mather_alpha", "mm_fit_from_samples",
    "mm_invariants", "mm_ratio_check", "sample_beta",
    "OrbitConfig", "find_orbit", "find_orbits", "lq_bounds",
    "CircleTable", "EllipseTable", "PerturbedCircleTable",
    "Table", "load_table", "table_from_config",
]
