"""Numerical certification of ultraspherical-type generating functions.

The package evaluates, for five families of standardized compactly supported
probability measures, the generating function

    psi(z, x) = sum_n (lambda)_n / n! * P_n(x) z^n
              = 1 / (u(z) (f(z) - x)^lambda)

both as a truncated series and in closed form, re-derives the families by
polynomial coefficient matching in the underlying Riccati equation, and
validates the supporting special-function identities at desk scale.
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
from .recurrence import (
    JacobiSzegoSequence,
    eval_monic,
    norm_squared,
    stieltjes_from_quadrature,
)
from .measures import (
    MeasureSpec,
    QuadratureRule,
    build_measure,
    family_sequence,
    gauss_quadrature,
    moment,
    recurrence_of,
)
from .genfun import (
    GenFunClosedForm,
    PsiSeriesResult,
    closed_form,
    psi_analytic,
    psi_closed,
    psi_family_moments,
    psi_series,
)
from .riccati import (
    ClassificationSolution,
    RiccatiCoefficients,
    SeriesSolution,
    coefficients,
    degree_bound_check,
    free_meixner_uniqueness,
    h_lambda_initial,
    nonsymmetric_omega2_roots,
    residual_f,
    residual_moment_ode,
    residual_u,
    solve_nonsymmetric,
    solve_symmetric,
    symmetric_omega2_quadratic,
)
from . import identities

__all__ = [
    "__version__",
    "Family",
    "JacobiSzegoSequence",
    "MeasureSpec",
    "QuadratureRule",
    "GenFunClosedForm",
    "PsiSeriesResult",
    "RiccatiCoefficients",
    "ClassificationSolution",
    "SeriesSolution",
    "identities",
    "eval_monic",
    "norm_squared",
    "stieltjes_from_quadrature",
    "build_measure",
    "family_sequence",
    "gauss_quadrature",
    "moment",
    "recurrence_of",
    "closed_form",
    "psi_closed",
    "psi_analytic",
    "psi_series",
    "psi_family_moments",
    "coefficients",
    "residual_f",
    "residual_u",
    "residual_moment_ode",
    "solve_symmetric",
    "solve_nonsymmetric",
    "symmetric_omega2_quadratic",
    "nonsymmetric_omega2_roots",
    "degree_bound_check",
    "free_meixner_uniqueness",
    "h_lambda_initial",
    "OpgfError",
    "ParameterError",
    "RedirectToFreeMeixner",
    "DomainError",
    "BranchCutError",
    "SingularityError",
    "NumericalBreakdownError",
    "InconsistencyError",
]
