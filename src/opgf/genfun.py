"""Generating functions of ultraspherical type.

The object of study is

    psi(z, x) = sum_{n>=0} (lambda)_n / n! * P_n(x) z^n
              = 1 / (u(z) * (f(z) - x)^lambda),

where (lambda)_n is the Pochhammer symbol, P_n are the monic orthogonal
polynomials of the measure, and powers take the principal branch.  Both
z*f(z) = 1 + c1 z + c2 z^2 and N(z) = z^lambda/u(z) = 1 + d1 z + d2 z^2 are
quadratics for every family, so psi = N(z) / (1 + (c1 - x) z + c2 z^2)^lambda
tends to 1 as z -> 0.

Two evaluators are provided.  ``psi_closed`` is the literal product
u(z) * exp(lambda*Log(f(z)-x)) and refuses the branch cut of either factor.
``psi_analytic`` evaluates the equivalent factorization

    N(z) / (z*f(z) - z*x)^lambda

whose power argument stays near 1 for small |z|; it agrees with psi_closed
off the negative real axis and continues the series across the cut, which is
what moment checks at negative real z need.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import families, measures
from .errors import BranchCutError, DomainError, ParameterError, SingularityError
from .families import Family
from .recurrence import JacobiSzegoSequence, majorant_values, monic_values

# Hard cap on the number of series terms; the tail bound normally stops the
# sum well before.
SERIES_CAP = 200
_TAIL_WARN_FACTOR = 1e-8
# The unit roundoff of a double: a series tail below this share of the sum's
# magnitude is below the rounding of the sum itself.
UNIT_ROUNDOFF = 2.0**-53
# Gauss nodes of the moment checks' rule.
MOMENT_ORDER = 24


@dataclass(frozen=True)
class GenFunClosedForm:
    """Closed-form data of one family's generating function.

    Two quadratics carry the whole family: z f(z) = 1 + c1 z + c2 z^2
    (zf_coeffs) and N(z) = z^lambda / u(z) = 1 + d1 z + d2 z^2
    (numerator_coeffs), so psi(z, x) = N(z) / (1 + (c1 - x) z + c2 z^2)^lambda.
    g is f - Q_1/2 with Q_1(z) = (lambda+1) omega_2 z + alpha_1.  The methods
    take a scalar or a numpy array of z, elementwise.  excludes_negative_axis
    marks the families whose u carries the branch cut of z^lambda (all but
    free Meixner, where lambda = 1).
    """

    family: Family
    lam: float
    a: Optional[float]
    b: Optional[float]
    alpha1: float
    omega2: float
    zf_coeffs: tuple[float, float, float]
    numerator_coeffs: tuple[float, float, float]
    domain_radius: float
    excludes_negative_axis: bool

    def f(self, z):
        _, c1, c2 = self.zf_coeffs
        return 1.0 / z + c1 + c2 * z

    def f_prime(self, z):
        return self.zf_coeffs[2] - 1.0 / (z * z)

    def numerator(self, z):
        """N(z) = z^lambda / u(z), analytic at 0 with N(0) = 1."""
        d0, d1, d2 = self.numerator_coeffs
        return d0 + d1 * z + d2 * z * z

    def u(self, z):
        return np.power(np.asarray(z, dtype=complex), self.lam) / self.numerator(z)

    def u_log_deriv(self, z):
        _, d1, d2 = self.numerator_coeffs
        return self.lam / z - (d1 + 2.0 * d2 * z) / self.numerator(z)

    def g(self, z):
        return self.f(z) - 0.5 * (self.lam + 1.0) * self.omega2 * z - 0.5 * self.alpha1


def _nearest_zero(c1: float, c2: float) -> float:
    """Smallest |zero| of 1 + c1 z + c2 z^2 (inf if it has none).

    The zeros are q/c2 and 1/q with q = -(c1 + sign(c1) sqrt(c1^2 - 4 c2))/2,
    whose sign choice avoids cancellation; c2 = 0 leaves 1/q = -1/c1 alone.
    """
    q = -0.5 * (c1 + math.copysign(1.0, c1) * cmath.sqrt(c1 * c1 - 4.0 * c2))
    return min(abs(q / c2) if c2 else math.inf, 1.0 / abs(q) if q else math.inf)


def closed_form(family, lam=None, a=None, b=None) -> GenFunClosedForm:
    """Closed-form data of a family: z f(z) = 1 + c1 z + c2 z^2 and
    z^lambda / u(z) = 1 + d1 z + d2 z^2.  The domain radius is 0.9 times the
    smallest |zero| of the two quadratics, the zeros of f and the poles of u
    nearest 0."""
    family = Family(family)
    lam, a, b = families.validate_params(family, lam, a, b)
    if family is Family.SYM1:
        c1, c2, d1, d2 = 0.0, 0.5 * (1.0 + lam), 0.0, 0.0
    elif family is Family.SYM2:
        c1, c2, d1, d2 = 0.0, 0.5 * lam, 0.0, -0.5 * lam
    elif family.nonsymmetric:
        sign = families.nonsym_sign(family)
        root = math.sqrt(2.0 * lam - 1.0)
        c1, c2, d1, d2 = sign / root, lam * lam / (2.0 * lam - 1.0), sign * lam / root, 0.0
    else:
        c1, c2, d1, d2 = a, 1.0 + b, a, b
    return GenFunClosedForm(
        family=family, lam=lam, a=a, b=b,
        alpha1=families.alpha1_value(family, lam, a, b),
        omega2=families.omega2_value(family, lam, a, b),
        zf_coeffs=(1.0, c1, c2), numerator_coeffs=(1.0, d1, d2),
        domain_radius=0.9 * min(_nearest_zero(c1, c2), _nearest_zero(d1, d2)),
        excludes_negative_axis=family is not Family.FREE_MEIXNER,
    )


def raise_first(points, checks) -> None:
    """Raise the error that a per-point loop over the grid, z-major, would
    raise first.

    points are arrays that broadcast to the grid (the point's z first);
    checks lists (mask, error) pairs in the order a scalar call tests them,
    each mask broadcasting to the grid.  At the first point where any mask
    holds, the first check holding there raises error(*values), the values
    of points at that point as Python scalars.
    """
    bad = functools.reduce(np.logical_or, [mask for mask, _ in checks])
    if not np.any(bad):
        return
    shape = np.broadcast_shapes(np.shape(bad), *(np.shape(p) for p in points))
    index = np.unravel_index(np.argmax(np.broadcast_to(bad, shape)), shape)
    values = [np.broadcast_to(p, shape)[index].item() for p in points]
    for mask, error in checks:
        if np.broadcast_to(mask, shape)[index]:
            raise error(*values)


def radius_guard(cf: GenFunClosedForm, z) -> tuple:
    """(mask, error) check for raise_first: DomainError where |z| reaches the
    domain radius.  The error takes the point's z first."""
    def error(zk, *_):
        return DomainError(
            f"|z| = {abs(zk):.6g} is outside the domain radius {cf.domain_radius:.6g} "
            f"of {cf.family.value}"
        )
    return np.abs(z) >= cf.domain_radius, error


def grid_points(z, x) -> tuple:
    """z (complex) and x (float) as at-least-1-D axes in grid_axes's layout.

    A scalar is evaluated as a length-1 array, so a scalar call rounds
    exactly like the same point of a grid call; as_shape drops the axis."""
    return grid_axes(np.atleast_1d(np.asarray(z, dtype=complex)),
                     np.atleast_1d(np.asarray(x, dtype=float)))


def as_shape(values, shape):
    """values reshaped to shape, a Python scalar for shape ()."""
    values = np.reshape(values, shape)
    return values.item() if values.ndim == 0 else values


def psi_closed(cf: GenFunClosedForm, z, x):
    """psi(z, x) = 1 / (u(z) * exp(lambda * Log(f(z) - x))), principal branch.

    z and x are scalars or 1-D arrays laid out as in psi_series: arrays give
    the (Z, X) grid, scalars a complex.  Outside the domain radius, on the
    closed negative real z axis of a family that excludes it, at z = 0, where
    f(z) = x and where f(z) - x is on the branch cut the call raises, for the
    first such point in z-major order, the error a scalar call there raises.
    """
    zs, xs = grid_points(z, x)
    with np.errstate(divide="ignore", invalid="ignore"):  # z = 0 raises below
        w = cf.f(zs) - xs
    negative_axis = cf.excludes_negative_axis & (zs.imag == 0.0) & (zs.real <= 0.0)
    raise_first((zs, xs, w), [
        radius_guard(cf, zs),
        (negative_axis, lambda zk, *_: DomainError(
            f"z = {zk} lies on the closed negative real axis, excluded for "
            f"{cf.family.value}")),
        (zs == 0, lambda *_: DomainError("z = 0 is a pole of f")),
        (w == 0, lambda zk, xk, _: SingularityError(
            f"f(z) - x vanishes at z = {zk}, x = {xk}")),
        ((w.imag == 0.0) & (w.real < 0.0), lambda zk, xk, wk: BranchCutError(
            f"f(z) - x = {wk.real:.6g} lies on the branch cut (z = {zk}, x = {xk})",
            z=zk, x=xk)),
    ])
    values = 1.0 / (cf.u(zs) * np.exp(cf.lam * np.log(w)))
    return as_shape(values, np.shape(z) + np.shape(x))


def psi_analytic(cf: GenFunClosedForm, z, x):
    """psi via the factorization that is analytic at z = 0.

    Evaluates N(z) / (z f(z) - z x)^lambda with N(z) = z^lambda / u(z); the
    power argument tends to 1 as z -> 0, so this continues the series across
    the negative real z axis as long as z f(z) - z x stays off the
    non-positive reals.  psi(0, x) = N(0) = 1.  z and x are laid out, and bad
    points raise, as in psi_closed.
    """
    zs, xs = grid_points(z, x)
    c0, c1, c2 = cf.zf_coeffs
    w = c0 + (c1 - xs) * zs + c2 * zs * zs
    raise_first((zs, xs, w), [
        radius_guard(cf, zs),
        (w == 0, lambda zk, xk, _: SingularityError(
            f"z*(f(z) - x) vanishes at z = {zk}, x = {xk}")),
        ((w.imag == 0.0) & (w.real < 0.0), lambda zk, xk, wk: BranchCutError(
            f"z*(f(z) - x) = {wk.real:.6g} lies on the branch cut (z = {zk}, x = {xk})",
            z=zk, x=xk)),
    ])
    values = np.where(zs == 0, 1.0 + 0.0j, cf.numerator(zs) / np.exp(cf.lam * np.log(w)))
    return as_shape(values, np.shape(z) + np.shape(x))


class PsiSeriesResult(NamedTuple):
    """Partial sum (a complex for a scalar (z, x), a (Z, X) array for a
    grid), the call's bound on the omitted tail, the number of terms summed
    and a convergence flag per element (tail_bound <= 1e-8 |value|)."""

    value: complex
    tail_bound: float
    n_terms: int
    converged: bool


def pochhammer_over_factorial(lam: float) -> Iterator[float]:
    """Yield (lam)_n / n! for n = 0, 1, ... by the stable ratio recurrence."""
    c = 1.0
    for n in itertools.count():
        yield c
        c *= (lam + n) / (n + 1.0)


def grid_axes(z, x) -> tuple:
    """z and x as arrays that broadcast to psi_series's (Z, X) grid: z down
    the first axis, x along the last.  Scalars stay 0-d."""
    z, x = np.asarray(z), np.asarray(x)
    return z.reshape(z.shape + (1,) * x.ndim), x


def psi_series(seq: JacobiSzegoSequence, lam: float, z, x,
               n_terms: int = SERIES_CAP) -> PsiSeriesResult:
    """Partial sum of sum_n (lambda)_n/n! P_n(x) z^n, truncated where a
    proved bound on the tail falls below the rounding of the sum itself.

    z and x are scalars or 1-D arrays; arrays give the (Z, X) grid of every
    pair.  The term count N is chosen before any summation, for the whole
    call, from recurrence.majorant_values: with r = max|z|, c_n =
    (lambda)_n/n! and M_n >= |P_n(x)| at every x of the call, the terms
    past K are bounded by the geometric series

        sum_{n>=K} c_n M_n r^n <= c_K A_K r^K / (1 - q_K),
        A_K = max(M_K, rho_K M_{K-1}),  q_K = max(1, (lambda+K)/(K+1)) rho_K r,

    valid when q_K < 1 and lambda + K > 0 (the ratio c_{n+1}/c_n =
    (lambda+n)/(n+1) is then at most max(1, its value at K) for n >= K).  N
    is the first K whose bound is at most 2^-53 sum_{n<K} c_n M_n r^n, and
    tail_bound is that bound.  If no K <= min(n_terms, table length + 1)
    qualifies, all those terms are summed and tail_bound is inf.  The bound
    assumes that past the end of the table the recurrence coefficients stay
    within the table's suffix maxima.

    The sum is one recurrence pass for P_0 .. P_{N-1} over all x and one
    matrix product (c_n z^n) @ P, so a grid element equals a call at its
    own point only within the two calls' bounds and rounding: a narrower x
    range may give a smaller N.
    """
    if n_terms < 1:
        raise ParameterError(f"n_terms must be >= 1, got {n_terms}")
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    r = float(np.abs(zs).max())
    count, bound = min(n_terms, seq.alphas.size + 1), math.inf
    majorant_sum = m_prev = 0.0
    pairs = zip(pochhammer_over_factorial(lam), majorant_values(seq, xs, r))
    for k, (c, (m, growth)) in enumerate(itertools.islice(pairs, count + 1)):
        q = max(1.0, (lam + k) / (k + 1.0)) * growth
        if k and q < 1.0 and lam + k > 0.0:
            tail = c * max(m, growth * m_prev) / (1.0 - q)
            if tail <= UNIT_ROUNDOFF * majorant_sum:
                count, bound = k, tail
                break
        majorant_sum += c * m
        m_prev = m
    coeffs = np.fromiter(itertools.islice(pochhammer_over_factorial(lam), count),
                         float, count)
    p = np.array(list(itertools.islice(monic_values(seq, xs), count)))
    values = (np.vander(zs, count, increasing=True) * coeffs) @ p
    shape = np.shape(z) + np.shape(x)
    return PsiSeriesResult(as_shape(values, shape), bound, count,
                           as_shape(bound <= _TAIL_WARN_FACTOR * np.abs(values), shape))


def psi_family_moments(measure: measures.MeasureSpec, cf: GenFunClosedForm, z) -> tuple:
    """Moments m_i = integral of x^i psi(z, x) d(measure), i = 0, 1, 2.

    For real z in the domain these satisfy m0 = 1, m1 = lambda*z and
    m2 = lambda(lambda+1)/2 * omega_2 z^2 + lambda*alpha_1 z + 1.  z is a
    float or a 1-D array, which gives three arrays from one Gauss rule.  The
    rule has MOMENT_ORDER nodes, or as many as the measure has support points
    if that is fewer (free Meixner at b = -1 has two), where it is exact.
    """
    zs = np.asarray(z, dtype=float)
    raise_first((zs,), [radius_guard(cf, zs)])
    # one coefficient table gives both the support size and the rule
    seq = measures.recurrence_of(measure, MOMENT_ORDER)
    rule = measures._gauss_rule(seq, min(MOMENT_ORDER, measures._support_points(seq)))
    # a scalar z is the length-1 grid, so it takes the same sums as an array
    psi = psi_analytic(cf, np.atleast_1d(zs), rule.nodes).real
    w_x = rule.weights * rule.nodes
    sums = [(psi * w).sum(axis=-1) for w in (rule.weights, w_x, w_x * rule.nodes)]
    return tuple(as_shape(m, zs.shape) for m in sums)
