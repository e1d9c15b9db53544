"""Numerical certification of ultraspherical-type generating functions.

The package evaluates, for five families of standardized compactly supported
probability measures, the generating function

    psi(z, x) = sum_n (lambda)_n / n! * P_n(x) z^n
              = 1 / (u(z) (f(z) - x)^lambda)

both as a truncated series and in closed form, re-derives the families by
polynomial coefficient matching in the underlying Riccati equation, and
checks each configuration's closed form and coefficient table against the
identities that read them (moments, the Riccati equations and the m2
moment ODE, and each Beta law's table against the classical Jacobi table)
at desk scale.
"""

__version__ = "0.1.0"

from .errors import (
    BranchCutError,
    DomainError,
    InconsistencyError,
    NumericalBreakdownError,
    OpgfError,
    ParameterError,
    RedirectToFreeMeixner,
    SingularityError,
)
from .families import Family
from .recurrence import JacobiSzegoSequence, eval_monic
from .measures import QuadratureRule, family_sequence, gauss_quadrature
from .genfun import (
    GenFunClosedForm,
    PsiSeriesResult,
    closed_form,
    psi_analytic,
    psi_family_moments,
    psi_series_stack,
)
from .riccati import (
    ClassificationSolution,
    RiccatiCoefficients,
    coefficients,
    nonsymmetric_omega2_roots,
    residual_f,
    residual_moment_ode,
    residual_u,
    solve_nonsymmetric,
    solve_symmetric,
)
from . import identities

__all__ = [
    "__version__",
    "Family",
    "JacobiSzegoSequence",
    "QuadratureRule",
    "GenFunClosedForm",
    "PsiSeriesResult",
    "RiccatiCoefficients",
    "ClassificationSolution",
    "identities",
    "eval_monic",
    "family_sequence",
    "gauss_quadrature",
    "closed_form",
    "psi_analytic",
    "psi_series_stack",
    "psi_family_moments",
    "coefficients",
    "residual_f",
    "residual_u",
    "residual_moment_ode",
    "solve_symmetric",
    "solve_nonsymmetric",
    "nonsymmetric_omega2_roots",
    "OpgfError",
    "ParameterError",
    "RedirectToFreeMeixner",
    "DomainError",
    "BranchCutError",
    "SingularityError",
    "NumericalBreakdownError",
    "InconsistencyError",
]
