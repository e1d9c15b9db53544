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

residual_f, residual_u and residual_moment_ode match the coefficients of
the Riccati equation, the equation of u'/u and the m2 moment identity (which
also reads the table), each cleared of denominators, on _Running values.

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
    InconsistencyError,
    ParameterError,
    RedirectToFreeMeixner,
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
    lam: float
    alpha1: float
    omega2: float

    @property
    def q2_tilde(self) -> tuple:
        """Q~_2 = R_1 - Q_1^2 / 4 - (lambda+1)/2 omega_2 Q_2, formed when read."""
        return tuple([r - s / 4 - (self.lam + 1) / 2 * self.omega2 * q
                      for r, s, q in zip(self.r1, _poly_mul(self.q1, self.q1), self.q2)])


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
    summed in ascending index of a, from its first product."""
    out = [None] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = x * y if out[i + j] is None else out[i + j] + x * y
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
    return RiccatiCoefficients(q2=q2, q1=q1, r1=r1, lam=lam, alpha1=alpha1, omega2=omega2)


# A term of a coefficient below multiplies at most two rounded entries of a
# closed form or table (each within 12 roundings of exact) in at most 12
# more roundings, so a correct configuration reads at most gamma_36 ~ 2^5.2
# u (Higham, ch. 3); the rows allow 2^10 u.
IDENTITY_BOUND = 2**10 * genfun.UNIT_ROUNDOFF


class _Running:
    """A value beside its running-error scale, the sum of the magnitudes of
    its terms (Higham, ch. 3): sums add scales and products multiply them,
    so coefficients and _poly_mul, run on these, carry every coefficient's
    scale.  value and scale are floats, Fractions or (C, 1) columns."""

    __slots__ = ("value", "scale")

    def __init__(self, value, scale):
        self.value, self.scale = value, scale

    @staticmethod
    def of(x):
        return x if x.__class__ is _Running else _Running(x, abs(x))

    flat = property(lambda self: np.ravel(self.value))  # coefficients checks lambda > 0

    def __add__(self, other):
        other = _Running.of(other)
        return _Running(self.value + other.value, self.scale + other.scale)

    def __sub__(self, other):
        other = _Running.of(other)
        return _Running(self.value - other.value, self.scale + other.scale)

    def __mul__(self, other):
        other = _Running.of(other)
        return _Running(self.value * other.value, self.scale * other.scale)

    def __truediv__(self, other):  # by a positive constant
        return _Running(self.value / other, self.scale / other)

    def __neg__(self):
        return _Running(-self.value, self.scale)

    __radd__, __rmul__ = __add__, __mul__


def _scaled(coeffs, lead) -> np.ndarray:
    """|value| / scale of each _Running coefficient, on a last axis after the
    leading axes lead: 0 where every term is 0, 1 (the most it can read)
    where the scale overflows and the terms cannot be compared."""
    ratios = np.array([abs(c.value) / (c.scale + (c.scale == 0)) for c in coeffs])
    finite = np.array([c.scale for c in coeffs]) < math.inf
    return np.where(finite, ratios, 1.0).T.reshape(lead + (-1,))


def _closed(cf) -> tuple:
    """lambda, F = z f, N = z^lambda / u, z^2 f' = z F' - F and
    z N u'/u = lambda N - z N' of the closed form cf, as _Running values."""
    lam = _Running.of(cf.lam)
    zf, num = ([_Running.of(c) for c in p] for p in (cf.zf_coeffs, cf.numerator_coeffs))
    return lam, zf, num, (-zf[0], 0, zf[2]), [(lam - k) * d for k, d in enumerate(num)]


def residual_f(cf: genfun.GenFunClosedForm) -> np.ndarray:
    """The Riccati equation of cf, with its own lambda, alpha_1 and omega_2,
    as the identity of degree 4 Q_2 (z F' - F) - F^2 + z Q_1 F - z^2 R_1 = 0
    (F = z f): its 5 coefficients over their running-error scales, on a last
    axis after an axis of length C for a stack of C."""
    lam, zf, _, z2f_prime, _ = _closed(cf)
    co = coefficients(lam, _Running.of(cf.alpha1), _Running.of(cf.omega2))
    terms = zip(_poly_mul(co.q2, z2f_prime), _poly_mul(zf, zf),
                (0, *_poly_mul(co.q1, zf)), (0, 0, *co.r1))
    return _scaled([q - s + p - r for q, s, p, r in terms], genfun._stack_shape(cf))


def residual_u(cf: genfun.GenFunClosedForm) -> np.ndarray:
    """u'/u = lambda (1 - f') / (f - lambda z) of cf as the identity of degree
    4 (lambda N - z N') M - lambda N (z^2 - z F' + F) = 0 (N = z^lambda / u,
    M = F - lambda z^2), scaled and laid out as residual_f's."""
    lam, zf, num, _, zn_logu = _closed(cf)
    terms = zip(_poly_mul(zn_logu, (zf[0], zf[1], zf[2] - lam)),
                _poly_mul(num, (zf[0], 0, -(zf[2] - 1))))
    return _scaled([p - lam * q for p, q in terms], genfun._stack_shape(cf))


def residual_moment_ode(cf: genfun.GenFunClosedForm, seq: JacobiSzegoSequence) -> np.ndarray:
    """The m2 moment identity d/dz [(lambda z f - m2) u] = lambda (1 - lambda)
    z u f', m2 = lambda(lambda+1)/2 omega_2 z^2 + lambda alpha_1 z + 1 with
    alpha_1, omega_2 of the table seq (a stack of C tables for a stack of C),
    as the identity of degree 4 h (lambda N - z N') + z N h' - lambda (1 -
    lambda) N (z F' - F) = 0 (h = lambda F - m2), scaled and laid out as
    residual_f's.  A table of fewer than 3 entries raises ParameterError."""
    lead = genfun._table_lead(seq, cf)
    if seq.omegas.shape[-1] < 3:
        raise ParameterError(f"the moment ODE reads alpha_1 and omega_2, but the table has "
                             f"{seq.omegas.shape[-1]} entries")
    a1, w2 = seq.alphas[..., 1:2], seq.omegas[..., 2:3]
    if not lead:  # a table's entries as Python numbers, as a closed form's fields
        a1, w2 = a1.tolist()[0], w2.tolist()[0]
    lam, zf, num, z2f_prime, zn_logu = _closed(cf)
    a1, w2 = _Running.of(a1), _Running.of(w2)
    h = (lam * zf[0] - 1, lam * zf[1] - lam * a1, lam * zf[2] - lam * (lam + 1) / 2 * w2)
    factor = -(lam * (lam - 1))  # lambda (1 - lambda)
    terms = zip(_poly_mul(h, zn_logu), (0, *_poly_mul(num, (h[1], 2 * h[2]))),
                _poly_mul(num, z2f_prime))
    return _scaled([p + q - factor * r for p, q, r in terms], lead)


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
