"""Sharp Bohr radii for six families of harmonic mappings.

The package solves, for each family, the equation B(r) = d* where B is the
majorant sum built from the family's sharp coefficient bounds and d* is the
distance from the origin to the boundary of the extremal image.  Closed
forms are used where they exist; everything else is a certified Newton
iteration over rigorously bounded series, run on a whole parameter grid at
once (``solve_radii``) and cross-checked by the oracles in
:mod:`harmbohr.verifier`.
"""

from .classes import (
    CANONICAL_PARAM,
    PH_M_SUP,
    ClassSpec,
    ExtremalFunction,
    Family,
    GrowthEnvelope,
    bohr_sum,
    coefficient_bound,
    coefficient_rule,
    distance_bound,
    extremal_coefficients,
    gh_k_alpha,
    growth_envelope,
    gt_beta,
    majorant_tail_bound,
    make_spec,
    ph_alpha,
    ph_m,
    start_index,
    tb_m,
    validate,
    wh_alpha,
)
from .errors import (
    ConvergenceError,
    DomainError,
    HarmBohrError,
    ValidationError,
)
from .series import (
    CoefficientRule,
    SeriesValue,
    alt_constant,
    alt_log_tail,
    alt_nn1_tail,
    g_alt_constant,
    log_tail,
    nn1_tail,
    signed_power_series,
    sum_power_series,
)
from .solver import (
    BohrEquation,
    Method,
    RadiusResult,
    SolverConfig,
    build_equation,
    closed_form_radius,
    jacobian_functional,
    jacobian_radius,
    solve_radii,
    solve_radius,
)

__version__ = "0.1.0"

__all__ = [
    "CANONICAL_PARAM",
    "PH_M_SUP",
    "BohrEquation",
    "ClassSpec",
    "CoefficientRule",
    "ConvergenceError",
    "DomainError",
    "ExtremalFunction",
    "Family",
    "GrowthEnvelope",
    "HarmBohrError",
    "Method",
    "RadiusResult",
    "SeriesValue",
    "SolverConfig",
    "ValidationError",
    "alt_constant",
    "alt_log_tail",
    "alt_nn1_tail",
    "bohr_sum",
    "build_equation",
    "closed_form_radius",
    "coefficient_bound",
    "coefficient_rule",
    "distance_bound",
    "extremal_coefficients",
    "g_alt_constant",
    "gh_k_alpha",
    "growth_envelope",
    "gt_beta",
    "jacobian_functional",
    "jacobian_radius",
    "log_tail",
    "majorant_tail_bound",
    "make_spec",
    "nn1_tail",
    "ph_alpha",
    "ph_m",
    "signed_power_series",
    "solve_radii",
    "solve_radius",
    "start_index",
    "sum_power_series",
    "tb_m",
    "validate",
    "wh_alpha",
]
