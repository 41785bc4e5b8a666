import numpy as np
import pytest

import billiards
from billiards import dynamics, ellipse_maps, elliptic, errors, invariants, orbits, tables

MODULES = (dynamics, elliptic, ellipse_maps, errors, invariants, orbits, tables)

# every name a user imports from the package
PUBLIC = [
    "__version__",
    "PhasePoint", "generating", "rotation_estimate", "step", "step_angle", "step_lifted",
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


def test_public_names():
    names = billiards.__all__
    assert len(names) == len(set(names)) == 52
    assert sorted(names) == sorted(PUBLIC)
    assert all(hasattr(billiards, name) for name in names)


def test_package_reexports_each_module_all():
    for module in MODULES:
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        for name in module.__all__:
            assert getattr(billiards, name) is getattr(module, name), name


@pytest.mark.parametrize("ok,values,shown", [
    (False, 2.0, "2.0"),
    (np.array(2.0) < 1.0, np.array(2.0), "2.0"),
    (np.array([1.0, 2.0, 3.0]) < 2.0, [1.0, 2.0, 3.0], "2.0"),
    (np.array(False), np.array(np.nan), "nan"),
], ids=["bool", "np-bool", "array", "0-d-array"])
def test_require_failure(ok, values, shown):
    # Each kind of condition fails with the same type and message; the first
    # failing element of values is shown.
    assert isinstance(ok, (bool, np.bool_, np.ndarray))
    with pytest.raises(errors.DomainError) as info:
        errors._require(ok, "x must be small", values)
    assert str(info.value) == f"x must be small, got {shown}"


@pytest.mark.parametrize("ok", [True, np.array(0.5) < 1.0, np.array([True, True]), np.array(True)],
                         ids=["bool", "np-bool", "array", "0-d-array"])
def test_require_holds(ok):
    assert errors._require(ok, "never shown", 0.0) is None
