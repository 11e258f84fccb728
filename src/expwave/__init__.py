"""Traveling-wave solutions of wave equations with one and two
exponential nonlinearities.

The package classifies the equation family from its exponents and
amplitudes, reduces the PDE along a traveling frame to a first-integral
quadrature, constructs every catalogued closed-form solution (power-law,
soliton, periodic, Weierstrass/Jacobi elliptic, kink, amplitude, and
implicit hypergeometric forms), and verifies each one numerically with
independent residual and shooting oracles.
"""

from . import specfun
from .errors import (
    CaseMismatchError,
    ConvergenceError,
    DomainError,
    EmptyGridError,
    ExpwaveError,
    FrameDegenerateError,
    InvalidParamsError,
    PoleProximityError,
    SignDomainError,
    StepSizeUnderflowError,
    UnsupportedFamilyError,
)
from .reduction import (
    C1_DEGENERATE,
    C1_LEMNISCATIC,
    CaseLabel,
    EllipticData,
    EquationParams,
    FamilyLabel,
    FrameParams,
    OdeDescriptor,
    QuadratureDescriptor,
    classify_case,
    classify_family,
    conserved_c1,
    elliptic_data,
    family_params,
    first_integral,
    traveling_ode,
)
from .singular import Singularities
from .solutions import (
    ImplicitRelation,
    Solution,
    construct,
    from_descriptor,
    implicit_relation,
)
from .verify import (
    Grid,
    VerificationReport,
    first_integral_residual,
    implicit_residual_check,
    ode_residual,
    pde_residual,
    rk_integrate,
    shoot_and_compare,
    weierstrass_grid,
    weierstrass_ode_residual,
)

__version__ = "1.0.0"

__all__ = [
    "specfun",
    "ExpwaveError", "DomainError", "InvalidParamsError", "FrameDegenerateError",
    "UnsupportedFamilyError", "CaseMismatchError", "SignDomainError",
    "PoleProximityError", "ConvergenceError", "EmptyGridError",
    "StepSizeUnderflowError",
    "FamilyLabel", "CaseLabel", "EquationParams", "FrameParams",
    "OdeDescriptor", "QuadratureDescriptor", "EllipticData",
    "classify_family", "classify_case", "traveling_ode", "first_integral",
    "elliptic_data", "family_params", "conserved_c1",
    "C1_DEGENERATE", "C1_LEMNISCATIC",
    "Singularities", "Solution", "ImplicitRelation",
    "construct", "from_descriptor", "implicit_relation",
    "Grid", "VerificationReport", "ode_residual", "first_integral_residual",
    "weierstrass_ode_residual", "weierstrass_grid", "shoot_and_compare",
    "pde_residual", "implicit_residual_check", "rk_integrate",
]
