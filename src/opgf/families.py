"""The five families of classified measures and their scalar parameters.

Every measure here is standardized (mean 0, variance 1), so alpha_0 = 0 and
omega_1 = 1.  A family is pinned down by lambda (the power in the generating
function) except for the free Meixner family, which lives at lambda = 1 and
carries the two parameters (a, b) of its constant recurrence tail.  Each
family's tail is written once, in table_entries, for tables and closed forms.
"""
from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import ParameterError, RedirectToFreeMeixner

# Refuse the ill-conditioned neighborhoods of the excluded lambda values.
LAMBDA_ONE_GUARD = 1e-6
# Quadrature guard band above the lambda = 1/2 degeneration of Sym2/NonSym.
LAMBDA_HALF_MIN = 0.51


class Family(str, Enum):
    """Tags for the classified families; values double as CLI names."""

    SYM1 = "sym1"
    SYM2 = "sym2"
    NONSYM_PLUS = "nonsym-plus"
    NONSYM_MINUS = "nonsym-minus"
    FREE_MEIXNER = "free-meixner"

    @property
    def nonsymmetric(self) -> bool:
        return self in (Family.NONSYM_PLUS, Family.NONSYM_MINUS)


def nonsym_sign(family: Family) -> float:
    if family is Family.NONSYM_PLUS:
        return 1.0
    if family is Family.NONSYM_MINUS:
        return -1.0
    raise ParameterError(f"{family.value} is not a non-symmetric family")


def validate_params(family, lam=None, a=None, b=None):
    """Check family parameters and return them normalized as (lam, a, b).

    For the free Meixner family lam is forced to 1 and (a, b) are required;
    for the other families (a, b) must be absent and lam must lie in the
    family's validity range.
    """
    family = Family(family)
    if family is Family.FREE_MEIXNER:
        if a is None or b is None:
            raise ParameterError("free-meixner requires both a and b")
        if lam is not None and lam != 1.0:
            raise ParameterError("free-meixner has lambda = 1; drop the lambda argument")
        for name, value in (("a", a), ("b", b)):
            if not math.isfinite(value):
                raise ParameterError(f"free-meixner requires a finite {name}, got {name}={value}")
        if b < -1.0:
            raise ParameterError(f"free-meixner requires b >= -1, got b={b}")
        return 1.0, float(a), float(b)

    if a is not None or b is not None:
        raise ParameterError(f"{family.value} does not take (a, b) parameters")
    if lam is None:
        raise ParameterError(f"{family.value} requires lambda")
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ParameterError(f"lambda must be > 0, got {lam}")
    if abs(lam - 1.0) < LAMBDA_ONE_GUARD:
        raise RedirectToFreeMeixner(
            f"lambda = 1 is the degenerate case for {family.value}; "
            "use the free-meixner family instead"
        )
    if family is not Family.SYM1 and lam < LAMBDA_HALF_MIN:
        raise ParameterError(
            f"{family.value} requires lambda > 1/2 (guard band lambda >= "
            f"{LAMBDA_HALF_MIN}), got {lam}"
        )
    return lam, None, None


def table_entries(family, lam, a, b, n1, n2):
    """(alpha_n at n = n1 >= 1, omega_n at n = n2 >= 2) of the family's
    Jacobi-Szego table, for floats or arrays n1 and n2; the head alpha_0 = 0,
    omega_1 = 1 is the caller's.  Each entry is a product of ratios of O(1),
    so it is finite wherever n + 2 lambda is; free Meixner's tail is
    constant, np.full(shape, a) and np.full(shape, 1 + b)."""
    family = Family(family)
    if family is Family.SYM1:
        return 0.0 * n1, ((1.0 + lam) / (n2 + lam) * (0.5 * n2)
                          * ((n2 + 2.0 * lam - 1.0) / (n2 + lam - 1.0)))
    if family is Family.SYM2:
        return 0.0 * n1, (lam / (n2 + lam - 1.0) * (0.5 * n2)
                          * ((n2 + 2.0 * lam - 3.0) / (n2 + lam - 2.0)))
    if family.nonsymmetric:
        ratio = lam / (n2 + lam - 1.0)
        return (nonsym_sign(family) * (n1 / (n1 + lam - 1.0)) * ((n1 + 2.0 * lam - 1.0) / (n1 + lam))
                / math.sqrt(2.0 * lam - 1.0),
                ratio * ratio * n2 * ((n2 + 2.0 * lam - 2.0) / (2.0 * lam - 1.0)))
    return np.full(np.shape(n1), a), np.full(np.shape(n2), 1.0 + b)


def support_interval(family, lam, a=None, b=None):
    """Closed support [lo, hi] (the absolutely continuous band for free Meixner)."""
    family = Family(family)
    if family is Family.SYM1:
        s = math.sqrt(2.0 * (1.0 + lam))
        return -s, s
    if family is Family.SYM2:
        s = math.sqrt(2.0 * lam)
        return -s, s
    if family is Family.NONSYM_PLUS:
        r = math.sqrt(2.0 * lam - 1.0)
        return (1.0 - 2.0 * lam) / r, (1.0 + 2.0 * lam) / r
    if family is Family.NONSYM_MINUS:
        r = math.sqrt(2.0 * lam - 1.0)
        return -(1.0 + 2.0 * lam) / r, (2.0 * lam - 1.0) / r
    half = 2.0 * math.sqrt(1.0 + b)
    return a - half, a + half


def beta_exponents(family, lam):
    """(e_hi, e_lo) of the Beta law (hi - x)^e_hi (x - lo)^e_lo on
    support_interval: the Jacobi parameters (alf, bet) of its map onto
    [-1, 1].  Free Meixner, which has no Beta law, raises ParameterError."""
    family = Family(family)
    if family is Family.FREE_MEIXNER:
        raise ParameterError("free-meixner is not a Beta law")
    return (lam - (0.5 if family in (Family.SYM1, Family.NONSYM_PLUS) else 1.5),
            lam - (0.5 if family in (Family.SYM1, Family.NONSYM_MINUS) else 1.5))
