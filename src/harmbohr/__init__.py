"""Sharp Bohr radii for six families of harmonic mappings.

The package solves, for each family, the equation B(r) = d* where B is the
majorant sum built from the family's sharp coefficient bounds and d* is the
distance from the origin to the boundary of the extremal image.  Closed
forms are used where they exist; everything else is a certified Newton
iteration over rigorously bounded series, run on a whole parameter grid at
once (``solve_radii``) and cross-checked by the oracles in
:mod:`harmbohr.verifier`.  The series engine lives in :mod:`harmbohr.series`.
"""

from .classes import (
    PH_M_SUP,
    ClassSpec,
    Family,
    GrowthEnvelope,
    bohr_sum,
    distance_bound,
    extremal_coefficients,
    gh_k_alpha,
    growth_envelope,
    gt_beta,
    make_spec,
    ph_alpha,
    ph_m,
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
from .series import SeriesValue
from .solver import (
    Method,
    RadiusResult,
    SolverConfig,
    closed_form_radius,
    jacobian_radius,
    solve_radii,
    solve_radius,
)

__version__ = "0.1.0"

__all__ = [
    "PH_M_SUP",
    "ClassSpec",
    "ConvergenceError",
    "DomainError",
    "Family",
    "GrowthEnvelope",
    "HarmBohrError",
    "Method",
    "RadiusResult",
    "SeriesValue",
    "SolverConfig",
    "ValidationError",
    "bohr_sum",
    "closed_form_radius",
    "distance_bound",
    "extremal_coefficients",
    "gh_k_alpha",
    "growth_envelope",
    "gt_beta",
    "jacobian_radius",
    "make_spec",
    "ph_alpha",
    "ph_m",
    "solve_radii",
    "solve_radius",
    "tb_m",
    "validate",
    "wh_alpha",
]
