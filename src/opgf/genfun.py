"""Generating functions of ultraspherical type.

The object of study is

    psi(z, x) = sum_{n>=0} (lambda)_n / n! * P_n(x) z^n
              = 1 / (u(z) * (f(z) - x)^lambda),

where (lambda)_n is the Pochhammer symbol, P_n are the monic orthogonal
polynomials of the measure, and powers take the principal branch.  Both
z*f(z) = 1 + c1 z + c2 z^2 and N(z) = z^lambda/u(z) = 1 + d1 z + d2 z^2 are
quadratics for every family, so psi = N(z) / (1 + (c1 - x) z + c2 z^2)^lambda
tends to 1 as z -> 0.  A closed form's alpha_1 and omega_2 are its table's,
bit for bit: both come from families.table_entries.

The closed side is ``psi_analytic``, the factorization

    N(z) / (z*f(z) - z*x)^lambda

of the literal product 1 / (u(z) (f(z) - x)^lambda).  Its power argument
stays near 1 for small |z|: it does not overflow where the product's factors
do at large lambda, and it continues the series across the negative real z
axis, which the moment checks at negative real z need.

The series side is ``psi_series_stack``, a truncation with a proved tail
bound, for a stack of coefficient tables at once: one array step counts
every row's terms, and one recurrence pass serves them all.  A single
configuration is the stack of one.

The closed side stacks the same way.  ``stack_closed_forms`` turns C closed
forms into one whose fields are (C, 1) columns; psi_analytic,
psi_family_moments and ``riccati.coefficient_residuals`` then evaluate all C
configurations in one call, with a leading configuration axis, and a closed
form of its own is evaluated as the stack of one; where a check also reads
tables, their layout follows the closed forms'.  Each row equals its own
configuration's call bit for bit, and a bad point raises the error of the
first configuration that has one.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import families, measures
from .errors import BranchCutError, DomainError, ParameterError, SingularityError
from .families import Family
from .recurrence import JacobiSzegoSequence, _points, eval_monic

# Cap on the number of series terms, and the length of the coefficient tables
# that verify sums (a table of N coefficients caps a series at N + 1 terms);
# the tail bound normally stops the sum well before.
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
    numerator takes a scalar or a numpy array of z, elementwise.  A stack
    of C closed forms (stack_closed_forms) holds every field as a (C, 1)
    column, so numerator gives a (C, Z) array at a 1-D z.
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

    def numerator(self, z):
        """N(z) = z^lambda / u(z), analytic at 0 with N(0) = 1."""
        d0, d1, d2 = self.numerator_coeffs
        return d0 + d1 * z + d2 * z * z


def _nearest_zero(c1: float, c2: float) -> float:
    """Smallest |zero| of 1 + c1 z + c2 z^2 (inf if it has none).

    The zeros are q/c2 and 1/q with q = -(c1 + sign(c1) sqrt(c1^2 - 4 c2))/2,
    whose sign choice avoids cancellation; c2 = 0 leaves 1/q = -1/c1 alone.
    They are found for the polynomial in w = 2^e z, with coefficients
    c1 / 2^e and c2 / 4^e, e chosen so that the larger of |c1| and sqrt|c2|
    is near 1: the discriminant cannot overflow, and scaling by powers of
    two is exact while the numbers stay clear of the subnormals.
    """
    e = max(math.frexp(c1)[1], (math.frexp(c2)[1] + 1) // 2)
    c1, c2 = math.ldexp(c1, -e), math.ldexp(c2, -2 * e)
    q = -0.5 * (c1 + math.copysign(1.0, c1) * cmath.sqrt(c1 * c1 - 4.0 * c2))
    return math.ldexp(min(abs(q / c2) if c2 else math.inf, 1.0 / abs(q) if q else math.inf), -e)


def closed_form(family, lam=None, a=None, b=None) -> GenFunClosedForm:
    """Closed-form data of a family: z f(z) = 1 + c1 z + c2 z^2 and
    z^lambda / u(z) = 1 + d1 z + d2 z^2, and alpha_1, omega_2 as the
    family's table has them.  The domain radius is 0.9 times the smallest
    |zero| of the two quadratics, the zeros of f and the poles of u nearest
    0."""
    family = Family(family)
    lam, a, b = families.validate_params(family, lam, a, b)
    if family is Family.SYM1:
        c1, c2, d1, d2 = 0.0, 0.5 * (1.0 + lam), 0.0, 0.0
    elif family is Family.SYM2:
        c1, c2, d1, d2 = 0.0, 0.5 * lam, 0.0, -0.5 * lam
    elif family.nonsymmetric:
        sign = families.nonsym_sign(family)
        root = math.sqrt(2.0 * lam - 1.0)
        c1, c2, d1, d2 = sign / root, lam * (lam / (2.0 * lam - 1.0)), sign * lam / root, 0.0
    else:
        c1, c2, d1, d2 = a, 1.0 + b, a, b
    alpha1, omega2 = (float(v) for v in families.table_entries(family, lam, a, b, 1.0, 2.0))
    return GenFunClosedForm(
        family=family, lam=lam, a=a, b=b, alpha1=alpha1, omega2=omega2,
        zf_coeffs=(1.0, c1, c2), numerator_coeffs=(1.0, d1, d2),
        domain_radius=0.9 * min(_nearest_zero(c1, c2), _nearest_zero(d1, d2)),
    )


def stack_closed_forms(cfs) -> GenFunClosedForm:
    """The closed forms cfs as one stack of C configurations: every field is
    a (C, 1) column, and each coefficient tuple a tuple of columns.

    psi_analytic, psi_family_moments and riccati.coefficient_residuals take
    a stack wherever they take a closed form and give results with a leading
    axis of length C whose row c is bit for bit the call with cfs[c].
    """
    cfs = list(cfs)
    columns = np.array([(cf.lam, cf.alpha1, cf.omega2, cf.domain_radius,
                         *cf.zf_coeffs, *cf.numerator_coeffs) for cf in cfs]).T[..., None]
    # Family tags and the optional a, b stay Python objects
    family, a, b = np.array([(cf.family, cf.a, cf.b) for cf in cfs], dtype=object).T[..., None]
    return GenFunClosedForm(
        family=family, lam=columns[0], a=a, b=b, alpha1=columns[1], omega2=columns[2],
        zf_coeffs=tuple(columns[4:7]), numerator_coeffs=tuple(columns[7:10]),
        domain_radius=columns[3],
    )


def _stack_shape(cf: GenFunClosedForm) -> tuple:
    """The leading axes a closed form gives its results: (C,) for a stack of
    C, () for a closed form of its own."""
    return cf.lam.shape[:-1] if isinstance(cf.lam, np.ndarray) else ()


def _table_lead(seq: JacobiSzegoSequence, cf: GenFunClosedForm) -> tuple:
    """_stack_shape(cf), refusing a table seq laid out otherwise: a table
    goes with a closed form of its own, a stack of C with a stack of C."""
    lead = _stack_shape(cf)
    if seq.alphas.shape[:-1] != lead:
        raise ParameterError(f"coefficient tables of leading shape {seq.alphas.shape[:-1]} "
                             f"for closed forms of leading shape {lead}")
    return lead


def _lift(field):
    """A stack's (C, 1) column as (C, 1, 1), to meet a (C, Z, X) grid; the
    field of a closed form of its own stays a Python scalar, which numpy
    combines with complex arrays without a cast."""
    return field[..., None] if isinstance(field, np.ndarray) else field


def _at_first(mask, field):
    """A closed-form field at the first point where mask holds, row-major:
    the field itself for a closed form of its own, the row of that point's
    configuration for a stack (mask is computed from the field, so the two
    broadcast).  raise_first calls a check's error only at the first point
    where any mask holds, which is then the first point of its own mask."""
    first = np.unravel_index(np.argmax(mask), np.shape(mask))
    return np.broadcast_to(np.asarray(field, dtype=object), np.shape(mask))[first]


def raise_first(points, checks) -> None:
    """Raise the error that a per-point loop over the grid, z-major (and
    configuration-major for a stack of closed forms), would raise first.

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
    mask = np.abs(z) >= cf.domain_radius

    def error(zk, *_):
        return DomainError(
            f"|z| = {abs(zk):.6g} is outside the domain radius "
            f"{_at_first(mask, cf.domain_radius):.6g} of {_at_first(mask, cf.family).value}"
        )
    return mask, error


def _finite_x_guard(x) -> tuple:
    """(mask, error) check for raise_first: ParameterError where x is not
    finite.  The error takes the point's z first and its x second."""
    return ~np.isfinite(x), lambda zk, xk, *_: ParameterError(
        f"x must be finite, got {xk}")


def as_shape(values, shape):
    """values reshaped to shape, a Python scalar for shape ()."""
    values = np.reshape(values, shape)
    return values.item() if values.ndim == 0 else values


def psi_analytic(cf: GenFunClosedForm, z, x):
    """psi(z, x) = N(z) / (z f(z) - z x)^lambda, N(z) = z^lambda / u(z).

    The power argument tends to 1 as z -> 0, so psi(0, x) = 1, and the
    series is continued across the negative real z axis wherever
    z f(z) - z x stays off the non-positive reals.  z and x are scalars or
    1-D arrays laid out as a row of psi_series_stack: arrays give the
    (Z, X) grid, scalars a complex.  For a stack of C closed forms x has
    one row per configuration and the result a leading axis of length C.
    At a non-finite x, outside the domain radius, where z f(z) - z x
    vanishes or lies on the branch cut the call raises, for the first such
    point in z-major order (of the first configuration that has one), the
    error a scalar call there raises.
    """
    # a scalar is evaluated as a length-1 array, so a scalar call rounds
    # exactly like the same point of a grid call; as_shape drops the axis
    lead = _stack_shape(cf)
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    zg = zs[:, None]
    xs = np.asarray(x, dtype=float).reshape(lead + (1, -1))
    c0, c1, c2 = (_lift(c) for c in cf.zf_coeffs)
    with np.errstate(invalid="ignore"):  # a non-finite x raises below
        w = c0 + (c1 - xs) * zg + c2 * zg * zg
    radius, radius_error = radius_guard(cf, zs)
    raise_first((zg, xs, w), [
        _finite_x_guard(xs),
        (radius[..., None], radius_error),
        (w == 0, lambda zk, xk, _: SingularityError(
            f"z*(f(z) - x) vanishes at z = {zk}, x = {xk}")),
        ((w.imag == 0.0) & (w.real < 0.0), lambda zk, xk, wk: BranchCutError(
            f"z*(f(z) - x) = {wk.real:.6g} lies on the branch cut (z = {zk}, x = {xk})",
            z=zk, x=xk)),
    ])
    # near z = 0, log w from d = w - 1 rather than from the rounded w, whose
    # rounding lambda multiplies; where |d| >= 1/2 (|w| may be small) log(w)
    # is kept, bit for bit
    d = (c1 - xs) * zg + c2 * zg * zg
    far = np.abs(d) >= 0.5
    d[far] = 0.0
    log_w = (0.5 * np.log1p(2.0 * d.real + d.real * d.real + d.imag * d.imag)
             + 1j * np.arctan2(d.imag, 1.0 + d.real))
    log_w[far] = np.log(w[far])
    values = np.where(zg == 0, 1.0 + 0.0j, cf.numerator(zs)[..., None]
                      / np.exp(_lift(cf.lam) * log_w))
    return as_shape(values, lead + np.shape(z) + np.shape(x)[len(lead):])


class PsiSeriesResult(NamedTuple):
    """Partial sum (a complex for a scalar (z, x), a (Z, X) array for a
    grid), the row's bound on the omitted tail, the number of terms summed
    and a convergence flag per element (tail_bound <= 1e-8 |value|)."""

    value: complex
    tail_bound: float
    n_terms: int
    converged: bool


def _first_stop(terms, slack, valid) -> tuple:
    """The package's one series stopping rule, along the last axis: for
    terms t_0 .. t_{L-1} and, for K = 1 .. L-1, valid_K where the tail past
    K is at most |t_K| / slack_K, the first valid K with |t_K| <= 2^-53
    slack_K |sum_{n<K} t_n|.  Gives whether each series has such a K, and
    the first one (1 where none does)."""
    sums = np.cumsum(terms[..., :-1], axis=-1)
    stop = valid & (np.abs(terms[..., 1:]) <= UNIT_ROUNDOFF * np.abs(sums) * slack)
    return stop.any(axis=-1), np.argmax(stop, axis=-1) + 1


def _truncation(seq, lams, xs, r) -> tuple:
    """Term counts N, tail bounds and coefficient rows c_n = (lambda)_n/n!,
    n <= count = min(SERIES_CAP, table length + 1), of every row of
    psi_series_stack at once (row c: table c of seq, lams[c], finite points
    xs[c] of a (C, X) array; one r >= |z|).  c_n is one cumprod of ratios.

    With D_n = max |x - alpha_n| over the row, M_0 = 1 and M_{n+1} = D_n M_n
    + |omega_n| M_{n-1} bound |P_n(x)| (triangle inequality).  With Dbar_n,
    Wbar_n the maxima of D_m, |omega_m| over m >= n, rho_n = (Dbar_n +
    sqrt(Dbar_n^2 + 4 Wbar_n)) / 2 solves rho^2 = Dbar rho + Wbar and does
    not grow with n, so M_n <= prod_{k<n} rho_k by induction: M_1 = D_0 <=
    rho_0, and the step needs |omega_n| <= rho_{n-1} (rho_n - D_n), where

        rho_{n-1} (rho_n - D_n) >= rho_n (rho_n - Dbar_n) = Wbar_n >= |omega_n|.

    So with g_k = rho_k r the n-th term is at most b_n = prod_{k<n}
    ((lambda+k)/(k+1)) g_k, one cumprod.  Where lambda + K > 0 the ratio
    (lambda+n)/(n+1) moves monotonically towards 1, so b_{n+1}/b_n <= q_K =
    max(1, (lambda+K)/(K+1)) g_K for n >= K, and where q_K < 1 the tail past
    K is at most b_K / (1 - q_K).  N is the first such K >= 1 with b_K <=
    2^-53 (1 - q_K) sum_{n<K} b_n (_first_stop) and its bound the tail
    bound; with none, N = count and the bound is inf.  Past the table its
    last g stands in: the coefficients are assumed to stay within the
    table's suffix maxima.  Rows do not mix, so each equals its stack of
    one bit for bit.
    """
    alphas, omegas = (table.reshape(len(xs), -1) for table in (seq.alphas, seq.omegas))
    count = min(SERIES_CAP, alphas.shape[1] + 1)
    d = np.maximum(xs.max(axis=1)[:, None] - alphas, alphas - xs.min(axis=1)[:, None])
    d_bar, w_bar = (np.maximum.accumulate(a[:, ::-1], axis=1)[:, ::-1] for a in (d, abs(omegas)))
    rho = (0.5 * r) * (d_bar + np.sqrt(d_bar * d_bar + 4.0 * w_bar))
    # g_0 .. g_count, the table's last entry standing in past its end
    g = np.take(rho, np.arange(count + 1), axis=1, mode="clip")
    k = np.arange(count + 1.0)
    lam = np.asarray(lams, dtype=float)[:, None]
    ratios = (lam + k) / (k + 1.0)
    coeffs, b = np.ones((2,) + ratios.shape)
    # an overflowed b_N gives the bound inf; a NaN or 1 - q = 0 stops no row
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.cumprod(ratios[:, :-1], axis=1, out=coeffs[:, 1:])
        np.cumprod(ratios[:, :-1] * g[:, :-1], axis=1, out=b[:, 1:])
        q = np.maximum(1.0, ratios[:, 1:]) * g[:, 1:]
        found, first = _first_stop(b, 1.0 - q, (q < 1.0) & (lam + k[1:] > 0.0))
        rows = np.arange(len(first))
        tails = b[rows, first] / (1.0 - q[rows, first - 1])
    return np.where(found, first, count), np.where(found, tails, math.inf), coeffs


def psi_series_stack(seq, lams, z, x_rows) -> list[PsiSeriesResult]:
    """Partial sums of sum_n (lambda)_n/n! P_n(x) z^n for C configurations,
    each truncated where a proved bound on its tail falls below the rounding
    of the sum itself: one result per row.  Row c sums with table c of the
    stack seq and lambda lams[c] at the points z and x_rows[c]; a table of
    its own is the stack of one, with one row.

    z is a scalar or 1-D array shared by every row; the rows of x_rows are
    scalars or 1-D arrays of one length.  Arrays give a row the (Z, X) grid
    of every pair.

    Each row's term count N is fixed before any summation, with r = max|z|:
    the first count whose proved tail bound is at most 2^-53 of a bound on
    the sum (see _truncation), tail_bound being that bound; if no count up
    to min(SERIES_CAP, table length + 1) qualifies, all are summed and
    tail_bound is inf.  One eval_monic call then runs the recurrence over
    the stacked (C, X) points up to the largest N, and each row sums its own
    first N terms in a product (c_n z^n) @ P, so every row equals its own
    stack of one bit for bit (one product over zero-padded rows would not:
    BLAS may split a longer sum differently).  Within a row, a grid element
    equals a call at its own point only within the two calls' bounds and
    rounding: a narrower x range may give a smaller N.  A non-finite x of
    any row raises ParameterError first.
    """
    rows = np.asarray(x_rows, dtype=float)
    xs = _points(seq, rows.reshape(len(rows), -1))
    if len(xs) != len(rows):
        raise ParameterError(f"a table of its own takes one row of x, got {len(rows)}")
    zs = np.asarray(z, dtype=complex)
    counts, bounds, coeffs = _truncation(seq, lams, xs, np.abs(zs).max())
    size = int(counts.max())
    p = eval_monic(seq, size - 1, xs)
    powers = np.vander(zs.ravel(), size, increasing=True)
    shape = zs.shape + rows.shape[1:]
    results = []
    for row, (count, bound) in enumerate(zip(counts.tolist(), bounds.tolist())):
        values = (powers[:, :count] * coeffs[row, :count]) @ p[:count, row]
        results.append(PsiSeriesResult(
            as_shape(values, shape), bound, count,
            as_shape(bound <= _TAIL_WARN_FACTOR * np.abs(values), shape)))
    return results


def psi_family_moments(seq, cf: GenFunClosedForm, z) -> tuple:
    """Moments m_i = integral of x^i psi(z, x) d(mu), i = 0, 1, 2, for the
    measure mu of the coefficient table seq.

    For real z in the domain these satisfy m0 = 1, m1 = lambda*z and
    m2 = lambda(lambda+1)/2 * omega_2 z^2 + lambda*alpha_1 z + 1.  z is a
    float or a 1-D array, which gives three arrays from one Gauss rule.  The
    rule is built from the first MOMENT_ORDER coefficients of seq, or from
    as many as the measure has support points if that is fewer (free
    Meixner at b = -1 has two), where it is exact.  For a stack of C closed
    forms seq is a stack of C tables, each moment has a leading axis of
    length C, and one rule order serves every row: a row with fewer support
    points than another raises its rule's error.
    """
    lead = _table_lead(seq, cf)
    zs = np.asarray(z, dtype=float)
    raise_first((zs,), [radius_guard(cf, zs)])
    rule = measures.gauss_quadrature(seq, min(MOMENT_ORDER, measures._support_points(seq)))
    # a scalar z is the length-1 grid, so it takes the same sums as an array
    psi = psi_analytic(cf, np.atleast_1d(zs), rule.nodes).real
    # a rule per configuration, across that configuration's z
    nodes, weights = rule.nodes[..., None, :], rule.weights[..., None, :]
    w_x = weights * nodes
    sums = [(psi * w).sum(axis=-1) for w in (weights, w_x, w_x * nodes)]
    return tuple(as_shape(m, lead + zs.shape) for m in sums)
