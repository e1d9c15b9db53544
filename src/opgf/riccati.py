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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import families, genfun, measures
from .errors import (
    DomainError,
    InconsistencyError,
    ParameterError,
    RedirectToFreeMeixner,
    SingularityError,
)
from .families import Family

_VALID_OMEGA2_MIN = 1e-9  # below this the measure degenerates to finite support


@dataclass(frozen=True)
class RiccatiCoefficients:
    """Ascending coefficient arrays of Q_2, Q_1, R_1, Q~_2 for given
    (lambda, alpha_1, omega_2)."""

    q2: np.ndarray
    q1: np.ndarray
    r1: np.ndarray
    q2_tilde: np.ndarray
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


@dataclass(frozen=True)
class SeriesSolution:
    """Power-series solution h(z) = h0 + sum_{n>=1} c_n z^n of the free
    Meixner uniqueness recursion."""

    c: np.ndarray
    h0: float
    n_terms: int


def coefficients(lam: float, alpha1: float, omega2: float) -> RiccatiCoefficients:
    """Exact coefficient arrays of Q_2, Q_1, R_1 and Q~_2 (ascending powers)."""
    if lam <= 0.0:
        raise ParameterError(f"lambda must be > 0, got {lam}")
    q2 = np.array([-1.0, -lam * alpha1, lam * (lam - 0.5 * (lam + 1.0) * omega2)])
    q1 = np.array([alpha1, (lam + 1.0) * omega2])
    r1 = np.array([-1.0, 0.0, 0.5 * lam * (lam + 1.0) * omega2])
    q1_sq = np.convolve(q1, q1)
    q2_tilde = r1 - 0.25 * q1_sq - 0.5 * (lam + 1.0) * omega2 * q2
    return RiccatiCoefficients(
        q2=q2, q1=q1, r1=r1, q2_tilde=q2_tilde,
        lam=lam, alpha1=alpha1, omega2=omega2,
    )


def _polyval_ascending(coeffs, z: complex) -> complex:
    out = 0.0 + 0.0j
    for c in reversed(coeffs):
        out = out * z + c
    return out


def residual_f(cf: genfun.GenFunClosedForm, coeffs: RiccatiCoefficients,
               z: complex) -> complex:
    """Q_2(z) f'(z) - f(z)^2 + Q_1(z) f(z) - R_1(z); ~0 on every family."""
    z = genfun.check_radius(cf, z)
    if z == 0:
        raise DomainError("z = 0 is a pole of f")
    fz = cf.f(z)
    return (
        _polyval_ascending(coeffs.q2, z) * cf.f_prime(z)
        - fz * fz
        + _polyval_ascending(coeffs.q1, z) * fz
        - _polyval_ascending(coeffs.r1, z)
    )


def residual_u(cf: genfun.GenFunClosedForm, z: complex) -> complex:
    """u'(z)/u(z) - lambda (1 - f'(z)) / (f(z) - lambda z); ~0 on every family."""
    z = genfun.check_radius(cf, z)
    if z == 0:
        raise DomainError("z = 0 is a branch point of u")
    denom = cf.f(z) - cf.lam * z
    if abs(denom) < 1e-14:
        raise SingularityError(f"f(z) = lambda z at z = {z}")
    return cf.u_log_deriv(z) - cf.lam * (1.0 - cf.f_prime(z)) / denom


def _derivative_5pt(fn, z: float, h: float) -> complex:
    """Fourth-order central difference along the real axis."""
    return (-fn(z + 2 * h) + 8.0 * fn(z + h) - 8.0 * fn(z - h) + fn(z - 2 * h)) / (12.0 * h)


def residual_moment_ode(cf: genfun.GenFunClosedForm, measure: measures.MeasureSpec,
                        z: float, step: Optional[float] = None) -> tuple[float, float]:
    """Finite-difference residuals of the two first-order moment identities.

    First:  d/dz [u (f - lambda z)]            = (1 - lambda) u f'
    Second: d/dz [(lambda z f - m2) u]         = lambda (1 - lambda) z u f'

    with m2(z) = lambda(lambda+1)/2 omega_2 z^2 + lambda alpha_1 z + 1 taken
    from the measure's recurrence coefficients.  Differentiation uses a
    five-point central stencil of width ``step`` along the real axis.
    """
    z = float(z)
    if step is None:
        step = 1e-5 * cf.domain_radius
    if step <= 0.0:
        raise ParameterError(f"step must be > 0, got {step}")
    if abs(z) + 2.0 * step >= cf.domain_radius or abs(z) <= 2.0 * step:
        raise DomainError(
            f"z = {z} with stencil width {step} leaves the domain or crosses 0"
        )
    lam = cf.lam
    seq = measures.recurrence_of(measure, 3)
    a1, w2 = float(seq.alphas[1]), float(seq.omegas[2])

    def m2(s: float) -> float:
        return 0.5 * lam * (lam + 1.0) * w2 * s * s + lam * a1 * s + 1.0

    def first(s: float) -> complex:
        return cf.u(s) * (cf.f(s) - lam * s)

    def second(s: float) -> complex:
        return (lam * s * cf.f(s) - m2(s)) * cf.u(s)

    r_first = abs(
        _derivative_5pt(first, z, step) - (1.0 - lam) * cf.u(z) * cf.f_prime(z)
    )
    r_second = abs(
        _derivative_5pt(second, z, step)
        - lam * (1.0 - lam) * z * cf.u(z) * cf.f_prime(z)
    )
    return float(r_first), float(r_second)


# ----------------------------------------------------------------------------
# Coefficient-matching machinery


def _matching_residual(lam: float, alpha1: float, omega2: float, e_asc) -> np.ndarray:
    """Coefficients (ascending) of Q_2 (z E' - E) - E^2 - z^2 Q~_2."""
    co = coefficients(lam, alpha1, omega2)
    e = np.asarray(e_asc, dtype=float)
    ze_minus_e = (np.arange(e.size) - 1.0) * e
    lhs = np.convolve(co.q2, ze_minus_e)
    esq = np.convolve(e, e)
    rhs = np.concatenate([[0.0, 0.0], co.q2_tilde])
    size = max(lhs.size, esq.size, rhs.size)

    def pad(arr):
        return np.pad(arr, (0, size - arr.size))

    return pad(lhs) - pad(esq) - pad(rhs)


def _coeff_at(lam, alpha1, omega2, e_asc, index) -> float:
    res = _matching_residual(lam, alpha1, omega2, e_asc)
    return float(res[index]) if index < res.size else 0.0


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
            "lambda = 1 is degenerate here; the free Meixner recursion "
            "(free_meixner_uniqueness) handles it"
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


def symmetric_omega2_quadratic(lam: float) -> tuple[float, float, float]:
    """The quadratic A w^2 + B w + C = 0 satisfied by the symmetric omega_2,
    normalized so that A = -(lambda+1)(lambda+2); its discriminant is 9."""
    c2, c1, c0 = _symmetric_omega2_fit(lam)
    scale = c2 / (-(lam + 1.0) * (lam + 2.0))
    return c2 / scale, c1 / scale, c0 / scale


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
        residual = float(np.abs(_matching_residual(lam, 0.0, w, [1.0, 0.0, a0])).max())
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


def solve_nonsymmetric(lam: float) -> list[ClassificationSolution]:
    """The two non-symmetric solutions (the sign choices of alpha_1).

    Solves the five coefficient equations of the degree-2 ansatz with
    alpha_1 != 0: a1 is linear in alpha_1, a0 is fixed by the z^3 equation,
    omega_2 solves a quadratic whose 0 root is rejected as degenerate, and
    alpha_1^2 follows from the z^2 equation.
    """
    _guard_lambda(lam, need_half=True)
    _, w = nonsymmetric_omega2_roots(lam)
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
        residual = float(
            np.abs(_matching_residual(lam, alpha1, w, [1.0, a1, a0])).max()
        )
        out.append(
            ClassificationSolution(
                lam=lam, symmetric=False, omega2=w, alpha1=alpha1,
                e_coeffs=(a0, a1, 1.0), branch_label=label,
                max_residual=residual, valid=True,
            )
        )
    return out


def degree_bound_check(lam: float, alpha1: float, omega2: float, degree: int) -> float:
    """Magnitude of the leading E coefficient forced by the top equations.

    For an ansatz of degree d >= 3 the z^(2d) coefficient of the matching
    identity is -t^2 where t is the leading coefficient, independently of all
    lower-order coefficients; so t is forced to 0, and the argument cascades
    down to degree 2.  Returns the largest forced |t| over the cascade
    (contract: 0).
    """
    if degree not in (3, 4, 5, 6):
        raise ParameterError(f"degree must be in 3..6, got {degree}")
    forced = 0.0
    for k in range(degree, 2, -1):
        # Arbitrary fixed lower-order coefficients; the top equation must not
        # involve them.
        lower = [1.0] + [(-1.0) ** j / (j + 2.0) for j in range(1, k)]

        def phi(t: float) -> float:
            return _coeff_at(lam, alpha1, omega2, lower + [t], 2 * k)

        c2, c1, c0 = _quadratic_fit(phi)
        if abs(c2 + 1.0) > 1e-9:
            raise InconsistencyError(
                f"top equation at degree {k} is not -t^2 (leading {c2})"
            )
        forced = max(forced, max(abs(r) for r in _quadratic_roots(c2, c1, c0)))
    return forced


def free_meixner_uniqueness(a: float, b: float, n_terms: int) -> SeriesSolution:
    """Series solution of the lambda = 1 reduced equation; every c_n is 0.

    With h(z) = h0 + sum c_n z^n and h0 = a/2 forced by the 1/z singularity,
    the equation -(b z^2 + a z + 1) h' = h^2 - a^2/4 + (2/z)(h - a/2) gives
    the recursion (m+3) c_{m+1} = -a(m+1) c_m - b(m-1) c_{m-1} - conv_m,
    whose right side vanishes inductively.
    """
    if n_terms < 1 or n_terms > 30:
        raise ParameterError(f"n_terms must be in 1..30, got {n_terms}")
    if b < -1.0:
        raise ParameterError(f"b must be >= -1, got {b}")
    c = np.zeros(n_terms + 1)  # c[0] is the (empty) constant slot
    for m in range(n_terms):
        conv = float(np.dot(c[1:m], c[m - 1:0:-1])) if m >= 2 else 0.0
        prev = c[m - 1] if m >= 1 else 0.0
        c[m + 1] = (-a * (m + 1.0) * c[m] - b * (m - 1.0) * prev - conv) / (m + 3.0)
    return SeriesSolution(c=c[1:], h0=0.5 * a, n_terms=n_terms)


def h_lambda_initial(lam: float, alpha1: float, omega2: float) -> float:
    """h(0) = lambda alpha_1 / 2, verified against the closed form.

    The parameters must come from a valid classification solution; the value
    is cross-checked against lim_{z->0} (g(z) - 1/z) computed from that
    family's closed form by Richardson extrapolation at z = 1e-5, 1e-6.
    """
    match_tol = 1e-9
    if abs(lam - 1.0) <= match_tol:
        cf = genfun.closed_form(Family.FREE_MEIXNER, a=alpha1, b=omega2 - 1.0)
    elif abs(alpha1) <= 1e-12:
        if abs(omega2 - families.omega2_value(Family.SYM1, lam)) <= match_tol:
            cf = genfun.closed_form(Family.SYM1, lam)
        elif lam > 0.5 and abs(omega2 - families.omega2_value(Family.SYM2, lam)) <= match_tol:
            cf = genfun.closed_form(Family.SYM2, lam)
        else:
            raise ParameterError(
                f"(lambda={lam}, alpha1=0, omega2={omega2}) matches no symmetric branch"
            )
    else:
        if lam <= 0.5 or abs(omega2 - families.omega2_value(Family.NONSYM_PLUS, lam)) > match_tol:
            raise ParameterError(
                f"(lambda={lam}, omega2={omega2}) matches no non-symmetric branch"
            )
        expected_a1 = families.alpha1_value(Family.NONSYM_PLUS, lam)
        if abs(alpha1 - expected_a1) <= match_tol:
            cf = genfun.closed_form(Family.NONSYM_PLUS, lam)
        elif abs(alpha1 + expected_a1) <= match_tol:
            cf = genfun.closed_form(Family.NONSYM_MINUS, lam)
        else:
            raise ParameterError(
                f"alpha1 = {alpha1} matches neither sign of the non-symmetric branch"
            )

    def h(z: float) -> float:
        return complex(cf.g(z) - 1.0 / z).real

    z1, z2 = 1e-5, 1e-6
    extrapolated = (z1 * h(z2) - z2 * h(z1)) / (z1 - z2)
    expected = 0.5 * lam * alpha1
    if abs(extrapolated - expected) > 1e-6:
        raise InconsistencyError(
            f"h(0) from the closed form is {extrapolated:.9g}, expected {expected:.9g}"
        )
    return expected
