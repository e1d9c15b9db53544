"""Differential-equation machinery for the classification of the families.

The central objects are the polynomial coefficients of the Riccati equation

    Q_2(z) f'(z) = f(z)^2 - Q_1(z) f(z) + R_1(z)

satisfied by the closed-form f of every family, and the equivalent form

    Q_2(z) g'(z) = g(z)^2 + Q~_2(z),      g = f - Q_1/2.

Writing g = E(z)/z with E a polynomial of degree at most 2 and matching
coefficients of Q_2 (z E' - E) - E^2 = z^2 Q~_2 yields small algebraic
systems whose solutions are the families' (omega_2, alpha_1, E).

The solvers here build those coefficient equations generically by polynomial
convolution (never by transcribing the solved systems), sample them at a few
points to extract the exact linear/quadratic dependence on each unknown, and
solve with the numerically stable quadratic formula.  The solved closed forms
then act as independent oracles in the test suite.

residual_f, residual_u and residual_moment_ode evaluate a family's closed
form in the Riccati equation, in the equation of u'/u and in the m2 moment
identity, which also reads the coefficient table.

The matching kernel (coefficients, _poly_mul, _matching_residual) is plain
arithmetic on short tuples, with no array overhead.  Halvings are written
x / 2 and constants are integer literals, so the same code runs exactly on
fractions.Fraction inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Optional

import numpy as np

from . import families, genfun
from .errors import (
    DomainError,
    InconsistencyError,
    ParameterError,
    RedirectToFreeMeixner,
    SingularityError,
)
from .families import Family
from .recurrence import JacobiSzegoSequence

_VALID_OMEGA2_MIN = 1e-9  # below this the measure degenerates to finite support


@dataclass(frozen=True)
class RiccatiCoefficients:
    """Ascending coefficient tuples of Q_2, Q_1, R_1, Q~_2 for given
    (lambda, alpha_1, omega_2)."""

    q2: tuple
    q1: tuple
    r1: tuple
    q2_tilde: tuple
    lam: float
    alpha1: float
    omega2: float


@dataclass(frozen=True)
class ClassificationSolution:
    """One ansatz solution E = a0 z^2 + a1 z + a2 with its diagnostics.

    e_coeffs is ordered (a0, a1, a2); a2 = 1 always.  max_residual is the
    largest coefficient of the matching identity evaluated at the solution.
    """

    lam: float
    symmetric: bool
    omega2: float
    alpha1: float
    e_coeffs: tuple[float, float, float]
    branch_label: str
    max_residual: float
    valid: bool = True
    invalid_reason: Optional[str] = None


def _poly_mul(a, b) -> list:
    """Product of two ascending coefficient sequences; each coefficient is
    summed from 0 in ascending index of a."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def coefficients(lam: float, alpha1: float, omega2: float) -> RiccatiCoefficients:
    """Exact coefficients of Q_2, Q_1, R_1 and Q~_2 (ascending powers); floats
    or Fractions in, the same type out.  The (C, 1) columns of a stack of
    closed forms give columns: the coefficients of C configurations."""
    # numpy-free for scalars: the classification path runs on plain floats
    if any(value <= 0 for value in getattr(lam, "flat", (lam,))):
        raise ParameterError(f"lambda must be > 0, got {lam}")
    q2 = (-1, -lam * alpha1, lam * (lam - (lam + 1) / 2 * omega2))
    q1 = (alpha1, (lam + 1) * omega2)
    r1 = (-1, 0, lam / 2 * (lam + 1) * omega2)
    q2_tilde = tuple([r - s / 4 - (lam + 1) / 2 * omega2 * q
                      for r, s, q in zip(r1, _poly_mul(q1, q1), q2)])
    return RiccatiCoefficients(
        q2=q2, q1=q1, r1=r1, q2_tilde=q2_tilde,
        lam=lam, alpha1=alpha1, omega2=omega2,
    )


def _polyval_ascending(coeffs, z):
    out = 0.0 + 0.0j
    for c in reversed(coeffs):
        out = out * z + c
    return out


def residual_f(cf: genfun.GenFunClosedForm, coeffs: RiccatiCoefficients, z):
    """Q_2(z) f'(z) - f(z)^2 + Q_1(z) f(z) - R_1(z); ~0 on every family.

    z is a scalar or a 1-D array (residuals of the same shape).  For a stack
    of C closed forms, coeffs holds their coefficients as columns and the
    residuals have a leading axis of length C.  A bad point (outside the
    domain radius, or z = 0) raises, for the first one (of the first
    configuration that has one), the error a scalar call there raises.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    genfun.raise_first((zs,), [
        genfun.radius_guard(cf, zs),
        (zs == 0, lambda _: DomainError("z = 0 is a pole of f")),
    ])
    fz = cf.f(zs)
    residual = (
        _polyval_ascending(coeffs.q2, zs) * cf.f_prime(zs)
        - fz * fz
        + _polyval_ascending(coeffs.q1, zs) * fz
        - _polyval_ascending(coeffs.r1, zs)
    )
    return genfun.as_shape(residual, genfun._stack_shape(cf) + np.shape(z))


def residual_u(cf: genfun.GenFunClosedForm, z):
    """u'(z)/u(z) - lambda (1 - f'(z)) / (f(z) - lambda z); ~0 on every family.

    z is a scalar or a 1-D array; stacks are taken, and bad points raise, as
    in residual_f.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    with np.errstate(divide="ignore", invalid="ignore"):  # z = 0 raises below
        denom = cf.f(zs) - cf.lam * zs
    genfun.raise_first((zs,), [
        genfun.radius_guard(cf, zs),
        (zs == 0, lambda _: DomainError("z = 0 is a branch point of u")),
        (np.abs(denom) < 1e-14, lambda zk: SingularityError(f"f(z) = lambda z at z = {zk}")),
    ])
    residual = cf.u_log_deriv(zs) - cf.lam * (1.0 - cf.f_prime(zs)) / denom
    return genfun.as_shape(residual, genfun._stack_shape(cf) + np.shape(z))


def residual_moment_ode(cf: genfun.GenFunClosedForm, seq: JacobiSzegoSequence, z):
    """Residual of the m2 moment identity

        d/dz [(lambda z f - m2) u] = lambda (1 - lambda) z u f'

    with m2(z) = lambda(lambda+1)/2 omega_2 z^2 + lambda alpha_1 z + 1 taken
    from alpha_1 and omega_2 of the coefficient table seq.  The left side is
    differentiated in closed form by the product rule
    (u h)' = u (h u'/u + h'), with u'/u = u_log_deriv and f' = f_prime; the
    residual is absolute.  (The other first-order identity,
    d/dz [u (f - lambda z)] = (1 - lambda) u f', is residual_u's times
    u (f - lambda z), and is not repeated here.)  z is a float or a 1-D
    array of reals, and the residual comes back in z's shape (a scalar is
    evaluated as the length-1 array).  For a stack of C closed forms seq is
    a stack of C tables and the residual has a leading axis of length C.
    A point outside the domain radius, or z = 0, raises for the first one
    (of the first configuration that has one) the error a scalar call there
    raises; a table of fewer than 3 entries raises ParameterError.
    """
    lead = genfun._table_lead(seq, cf)
    if seq.omegas.shape[-1] < 3:
        raise ParameterError(f"the moment ODE reads alpha_1 and omega_2, but the table has "
                             f"{seq.omegas.shape[-1]} entries")
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    genfun.raise_first((zs,), [
        genfun.radius_guard(cf, zs),
        (zs == 0, lambda _: DomainError("z = 0 is a branch point of u")),
    ])
    lam, a1, w2 = cf.lam, seq.alphas[..., 1:2], seq.omegas[..., 2:3]
    u, fz, fpz = cf.u(zs), cf.f(zs), cf.f_prime(zs)
    m2 = 0.5 * lam * (lam + 1.0) * w2 * zs * zs + lam * a1 * zs + 1.0
    m2_prime = lam * (lam + 1.0) * w2 * zs + lam * a1
    h, h_prime = lam * zs * fz - m2, lam * fz + lam * zs * fpz - m2_prime
    residual = np.abs(u * (h * cf.u_log_deriv(zs) + h_prime) - lam * (1.0 - lam) * zs * u * fpz)
    return genfun.as_shape(residual, lead + np.shape(z))


# ----------------------------------------------------------------------------
# Coefficient-matching machinery


def _matching_residual(lam: float, alpha1: float, omega2: float, e_asc) -> list:
    """Coefficients (ascending) of Q_2 (z E' - E) - E^2 - z^2 Q~_2."""
    co = coefficients(lam, alpha1, omega2)
    lhs = _poly_mul(co.q2, [(i - 1) * c for i, c in enumerate(e_asc)])
    esq = _poly_mul(e_asc, e_asc)
    rhs = (0, 0) + co.q2_tilde
    return [l - s - r for l, s, r in zip_longest(lhs, esq, rhs, fillvalue=0)]


def _coeff_at(lam, alpha1, omega2, e_asc, index) -> float:
    res = _matching_residual(lam, alpha1, omega2, e_asc)
    return res[index] if index < len(res) else 0.0


def _linear_solve(sample) -> float:
    """Root of t -> sample(t), known to be exactly linear in t."""
    r0 = sample(0.0)
    r1 = sample(1.0)
    slope = r1 - r0
    if slope == 0.0:
        raise InconsistencyError("expected a linear equation, got a constant one")
    return -r0 / slope


def _quadratic_fit(sample) -> tuple[float, float, float]:
    """(c2, c1, c0) of t -> sample(t), known to be exactly quadratic."""
    p0 = sample(0.0)
    p1 = sample(1.0)
    p2 = sample(2.0)
    c2 = 0.5 * (p2 - 2.0 * p1 + p0)
    c1 = p1 - p0 - c2
    return c2, c1, p0


def _quadratic_roots(c2: float, c1: float, c0: float) -> tuple[float, float]:
    """Real roots by the sign-aware stable formula."""
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        raise InconsistencyError(f"negative discriminant {disc} in quadratic solve")
    sq = math.sqrt(disc)
    if c1 == 0.0:
        r = sq / (2.0 * c2)
        return -r, r
    q = -0.5 * (c1 + math.copysign(sq, c1))
    return q / c2, (c0 / q if q != 0.0 else 0.0)


def _guard_lambda(lam: float, need_half: bool) -> None:
    if lam <= 0.0:
        raise ParameterError(f"lambda must be > 0, got {lam}")
    if abs(lam - 1.0) < families.LAMBDA_ONE_GUARD:
        raise RedirectToFreeMeixner(
            "lambda = 1 is degenerate here; the free-meixner family covers it"
        )
    if need_half and lam - 0.5 < families.LAMBDA_ONE_GUARD:
        raise ParameterError(f"lambda must exceed 1/2, got {lam}")


def _sym_a0_of(lam: float, w: float) -> float:
    return _linear_solve(lambda t: _coeff_at(lam, 0.0, w, [1.0, 0.0, t], 2))


def _symmetric_omega2_fit(lam: float) -> tuple[float, float, float]:
    """(c2, c1, c0) of the z^4 equation as a quadratic in omega_2, with a0
    eliminated through the z^2 equation."""
    _guard_lambda(lam, need_half=False)

    def phi(w: float) -> float:
        return _coeff_at(lam, 0.0, w, [1.0, 0.0, _sym_a0_of(lam, w)], 4)

    return _quadratic_fit(phi)


def solve_symmetric(lam: float) -> list[ClassificationSolution]:
    """Both symmetric branches (alpha_1 = 0, E = a0 z^2 + 1).

    Matching coefficients of z^0..z^4 reduces to a linear equation for a0 and
    a quadratic for omega_2; the two roots are returned sorted descending
    (first the Gegenbauer(lambda) branch, then the Gegenbauer(lambda-1) one,
    which is flagged invalid when its omega_2 is not positive).
    """
    roots = sorted(_quadratic_roots(*_symmetric_omega2_fit(lam)), reverse=True)
    labels = (Family.SYM1.value, Family.SYM2.value)
    out = []
    for w, label in zip(roots, labels):
        a0 = _sym_a0_of(lam, w)
        residual = max(abs(c) for c in _matching_residual(lam, 0.0, w, [1.0, 0.0, a0]))
        valid = w > _VALID_OMEGA2_MIN
        out.append(
            ClassificationSolution(
                lam=lam, symmetric=True, omega2=w, alpha1=0.0,
                e_coeffs=(a0, 0.0, 1.0), branch_label=label,
                max_residual=residual, valid=valid,
                invalid_reason=None if valid else (
                    f"omega2 = {w:.6g} is not positive: finitely supported or "
                    "signed measure"
                ),
            )
        )
    return out


def nonsymmetric_omega2_roots(lam: float) -> tuple[float, float]:
    """(degenerate, solution) roots of the non-symmetric omega_2 equation.

    The degenerate root is omega_2 = 0 (rejected: no variance-1 measure);
    the other root is the family's omega_2.
    """
    _guard_lambda(lam, need_half=True)
    a1_trial = _linear_solve(lambda t: _coeff_at(lam, 1.0, 1.0, [1.0, t, 0.0], 1))

    def a0_of(w: float) -> float:
        return _linear_solve(lambda t: _coeff_at(lam, 1.0, w, [1.0, a1_trial, t], 3))

    def phi(w: float) -> float:
        return _coeff_at(lam, 1.0, w, [1.0, a1_trial, a0_of(w)], 4)

    c2, c1, c0 = _quadratic_fit(phi)
    roots = _quadratic_roots(c2, c1, c0)
    degenerate, solution = sorted(roots, key=abs)
    return degenerate, solution


def solve_nonsymmetric(lam: float) -> tuple[float, list[ClassificationSolution]]:
    """The rejected degenerate omega_2 root and the two non-symmetric
    solutions (the sign choices of alpha_1), from one solve of the omega_2
    equation.

    Solves the five coefficient equations of the degree-2 ansatz with
    alpha_1 != 0: a1 is linear in alpha_1, a0 is fixed by the z^3 equation,
    omega_2 solves a quadratic whose 0 root is rejected as degenerate, and
    alpha_1^2 follows from the z^2 equation.
    """
    degenerate, w = nonsymmetric_omega2_roots(lam)
    a1_trial = _linear_solve(lambda t: _coeff_at(lam, 1.0, w, [1.0, t, 0.0], 1))
    a0 = _linear_solve(lambda t: _coeff_at(lam, 1.0, w, [1.0, a1_trial, t], 3))

    def z2_at(t: float) -> float:
        alpha1 = math.sqrt(t)
        a1 = alpha1 * a1_trial
        return _coeff_at(lam, alpha1, w, [1.0, a1, a0], 2)

    alpha1_sq = _linear_solve(z2_at)
    if alpha1_sq <= 0.0:
        raise InconsistencyError(
            f"alpha_1^2 = {alpha1_sq} is not positive at lambda = {lam}"
        )
    out = []
    for sign, label in ((1.0, Family.NONSYM_PLUS.value),
                        (-1.0, Family.NONSYM_MINUS.value)):
        alpha1 = sign * math.sqrt(alpha1_sq)
        a1 = alpha1 * a1_trial
        residual = max(abs(c) for c in _matching_residual(lam, alpha1, w, [1.0, a1, a0]))
        out.append(
            ClassificationSolution(
                lam=lam, symmetric=False, omega2=w, alpha1=alpha1,
                e_coeffs=(a0, a1, 1.0), branch_label=label,
                max_residual=residual, valid=True,
            )
        )
    return degenerate, out
