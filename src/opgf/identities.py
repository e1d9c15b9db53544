"""Special-function identities behind the symmetric and non-symmetric families.

Covers the Pochhammer ratio (Gauss duplication in Pochhammer form), the
collapse of the Jacobi 2F1 generating function to a binomial (1F0) series,
and the four generating-function identities that tie scaled Gegenbauer and
shifted Jacobi polynomials to their closed forms.  Each check returns a
residual magnitude; the caller compares it against the documented tolerance.

Every check takes a stack of configurations: a 1-D sequence of C lambdas, or
a stack of C closed forms (genfun.stack_closed_forms), gives a result with a
leading axis of length C from one evaluation, whose row c is bit for bit the
call with the c-th lambda or closed form alone.  A float lambda or a closed
form of its own is the stack of one and gives no leading axis.

Classical monic recurrence coefficients on [-1, 1] are implemented here from
the standard formulas, a table for float parameters and the stack of C
tables for 1-D arrays of C, and are cross-validated in the test suite
against the Stieltjes procedure run on the corresponding Beta densities.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import families, genfun
from .errors import DomainError, ParameterError
from .recurrence import JacobiSzegoSequence, eval_monic


# The hypergeometric sums tabulate at least _HYPER_FIRST terms and double the
# table, up to _HYPER_CAP terms, until every element has met its tail bound.
_HYPER_FIRST = 64
_HYPER_CAP = 2048


@dataclass(frozen=True)
class HypergeometricParams:
    """Parameters of a Gauss 2F1 series evaluation.

    upper holds the two numerator parameters, lower the single denominator
    parameter, each a float, or a 1-D array of R values for R parameter sets
    at once; argument is a float or an array of them.  The series requires
    |argument| < 1 and a lower parameter that is not a non-positive integer.
    """

    upper: tuple[float, float]
    lower: float
    argument: float

    def __post_init__(self):
        if np.any(np.abs(self.argument) >= 1.0):
            raise DomainError(
                f"2F1 series needs |argument| < 1, got {self.argument}"
            )
        if np.any((np.asarray(self.lower) <= 0.0) & (np.floor(self.lower) == self.lower)):
            raise ParameterError(
                f"lower parameter {self.lower} is a non-positive integer"
            )


def _hypergeometric_sum(upper: tuple, lower: tuple, w) -> np.ndarray:
    """sum_n t_n for each element of w, t_0 = 1 and

        t_{n+1} / t_n = w prod_i (upper_i + n) / (lower_i + n),

    upper and lower of one length (lower holds the 1 of n!).  A 1-D w with
    float parameters gives one sum per element.  Parameters may also be 1-D
    arrays of R values, one per row of parameters: w is then shared by
    every row, or an (R, W) array, and the sums an (R, W) array.

    Each element stops by genfun._first_stop, at the first K >= 1 whose
    tail bound is at most 2^-53 |sum_{n<K} t_n|, below the rounding of the
    result even where the terms cancel: when b + K > 0 each factor
    (a + n)/(b + n) is monotone in n >= K and tends to 1, so |t_{n+1}/t_n|
    <= R_K = |w| prod_i max(1, |upper_i + K| / (lower_i + K)) and the tail
    is at most |t_K| / (1 - R_K) where R_K < 1.  An element with no such K
    among the _HYPER_CAP terms sums them all.  Every element is its own
    series, so its sum does not depend on the other elements of the call.
    """
    w = np.asarray(w, dtype=float)
    # a row of parameters as an (R, 1, 1) column beside the element and
    # index axes
    upper, lower = ([np.reshape(p, (-1, 1, 1)) if np.ndim(p) else p for p in params]
                    for params in (upper, lower))
    # The terms fall like |w|^n times a power of n: start with a table whose
    # second half lies past |w|^n = 2^-53 for the largest |w|.
    length, top = _HYPER_FIRST, float(np.abs(w).max())
    while length < _HYPER_CAP and top ** (length // 2) > genfun.UNIT_ROUNDOFF:
        length *= 2
    while True:
        n = np.arange(length - 1.0)
        k = n + 1.0  # t_K for K = 1 .. length - 1
        ratios = (math.prod([a + n for a in upper]) * w[..., None]
                  / math.prod([b + n for b in lower]))
        terms = np.ones(ratios.shape[:-1] + (length,))
        np.cumprod(ratios, axis=-1, out=terms[..., 1:])
        # slack is 1 - R_K; K qualifies only where every b + K > 0
        factor = math.prod([np.maximum(1.0, np.abs(a + k) / np.abs(b + k))
                            for a, b in zip(upper, lower)])
        slack = 1.0 - np.abs(w)[..., None] * factor
        valid = functools.reduce(np.logical_and, [b + k > 0.0 for b in lower])
        sums, found, first = genfun._first_stop(terms, slack, valid)
        if found.all() or length >= _HYPER_CAP:
            break
        length *= 2
    count = np.where(found, first, length)
    return np.take_along_axis(sums, count[..., None] - 1, axis=-1)[..., 0]


def gauss_2f1(params: HypergeometricParams):
    """Plain 2F1 series sum_n (u1)_n (u2)_n / ((l)_n n!) * argument^n,
    truncated by _hypergeometric_sum's tail bound; a float for a float
    argument, an array of its shape for an array, behind a leading axis of
    length R for parameters given as arrays of R values."""
    arg = np.asarray(params.argument, dtype=float)
    total = _hypergeometric_sum(params.upper, (params.lower, 1.0), arg.ravel())
    return genfun.as_shape(total, total.shape[:-1] + arg.shape)


def _rising_table(a, n: int) -> np.ndarray:
    """(a)_0 .. (a)_n along the last axis, for a float a or each element of
    a 1-D array; each is the product of its predecessor and a + k."""
    a = np.asarray(a, dtype=float)
    table = np.ones(a.shape + (n + 1,))
    np.cumprod(a[..., None] + np.arange(n, dtype=float), axis=-1, out=table[..., 1:])
    return table


def _lambdas(lam) -> tuple[np.ndarray, tuple]:
    """A float lambda or a 1-D sequence of them as a 1-D array, and the
    leading axes the stack gives a result: () for a float, (C,) for C."""
    lams = np.asarray(lam, dtype=float)
    return lams.ravel(), lams.shape


def pochhammer_ratio_check(lam, n):
    """Relative residual of (2 lam - 1)_{2n} / (lam - 1/2)_n = 4^n (lam)_n.

    For n >= 1 the left side is taken with the common factor 2 lam - 1 =
    2 (lam - 1/2) cancelled, as 2 (2 lam)_{2n-1} / (lam + 1/2)_{n-1}, so the
    check is defined for every lambda > 0, lambda = 1/2 included.  n is an
    int or a 1-D array of them, shared by every lambda of a stack; the
    products are read from one table per symbol and lambda, so an array
    gives exactly the residuals of one call per n.
    """
    lams, lead = _lambdas(lam)
    if (lams <= 0.0).any():
        raise ParameterError(f"lambda must be > 0, got {lam}")
    ns = np.asarray(n)
    if np.any(ns < 0):
        raise ParameterError(f"n must be >= 0, got {n}")
    top = max(int(ns.max()), 1)
    k = np.maximum(ns, 1)
    lhs = np.where(ns == 0, 1.0, 2.0 * _rising_table(2.0 * lams, 2 * top)[:, 2 * k - 1]
                   / _rising_table(lams + 0.5, top)[:, k - 1])
    rhs = 4.0**ns * _rising_table(lams, top)[:, ns]
    return genfun.as_shape(np.abs(lhs - rhs) / np.abs(rhs), lead + ns.shape)


def one_f_zero_reduction(lam, y):
    """Residual of the binomial series sum_n (lam)_n y^n / n! = (1-y)^(-lam),
    for a float y or each element of a 1-D array, shared by every lambda of
    a stack, truncated by _hypergeometric_sum's tail bound."""
    lams, lead = _lambdas(lam)
    ys = np.asarray(y, dtype=float)
    if np.any(np.abs(ys) >= 1.0):
        raise DomainError(f"|y| must be < 1, got {y}")
    flat = ys.ravel()
    residual = np.abs(_hypergeometric_sum((lams,), (1.0,), flat)
                      - (1.0 - flat) ** (-lams[:, None]))
    return genfun.as_shape(residual, lead + ys.shape)


# ----------------------------------------------------------------------------
# Classical monic recurrences on [-1, 1]
#
# The sequences evaluate the standard tail formulas (alpha_n for n >= 1,
# omega_n for n >= 2) at n1 = max(n, 1) and n2 = max(n, 2), as
# measures.family_sequence does, and write the head over the result; the
# parameters enter as a length-1 array or a (C, 1) column beside n.


def gegenbauer_sequence(lam, size: int) -> JacobiSzegoSequence:
    """Monic Gegenbauer coefficients, weight (1-x^2)^(lam-1/2), for
    n = 0 .. size - 1.  omega_1 = 1 / (2 (1 + lam)) is the tail formula at
    n = 1 with the factor lam cancelled, so it stays finite as lam -> 0."""
    lam = np.asarray(lam, dtype=float)[..., None]
    n2 = np.maximum(np.arange(size, dtype=float), 2.0)
    omegas = n2 * (n2 + 2.0 * lam - 1.0) / (4.0 * (n2 + lam) * (n2 + lam - 1.0))
    omegas[..., :1] = 1.0
    omegas[..., 1:2] = 1.0 / (2.0 * (1.0 + lam))
    return JacobiSzegoSequence(np.zeros(omegas.shape), omegas)


def jacobi_sequence(alf, bet, size: int) -> JacobiSzegoSequence:
    """Monic Jacobi coefficients, weight (1-x)^alf (1+x)^bet, for
    n = 0 .. size - 1."""
    alf, bet = (np.asarray(p, dtype=float)[..., None] for p in (alf, bet))
    n = np.arange(size, dtype=float)
    n1, n2 = np.maximum(n, 1.0), np.maximum(n, 2.0)
    s1, s2 = 2.0 * n1 + alf + bet, 2.0 * n2 + alf + bet
    alphas = (bet * bet - alf * alf) / (s1 * (s1 + 2.0))
    omegas = (4.0 * n2 * (n2 + alf) * (n2 + bet) * (n2 + alf + bet)
              / (s2 * s2 * (s2 + 1.0) * (s2 - 1.0)))
    s = alf + bet
    alphas[..., :1] = (bet - alf) / (s + 2.0)
    # (s + 2) ** 2 by a float's pow, as the scalar formula: numpy's square can differ by an ulp
    square = ((s + 2.0).astype(object) ** 2).astype(float)
    omegas[..., :1] = 1.0
    omegas[..., 1:2] = 4.0 * (alf + 1.0) * (bet + 1.0) / (square * (s + 3.0))
    return JacobiSzegoSequence(alphas, omegas)


def _principal_power(w, expo):
    return np.exp(expo * np.log(np.asarray(w, dtype=complex)))


# ----------------------------------------------------------------------------
# Generating-function identities
#
# The series checks take z (or t) as a scalar or 1-D array shared by every
# configuration, and x (or y) as a scalar or 1-D array shared too, or with
# one row per configuration of a stack; they give the residuals on the
# (Z, X) grid of every pair, behind the stack's axis, from one
# psi_series_stack call.


def _series_check(lam, seq, z, x, z_scale, x_scale, closed):
    """|series - closed| on the (C, Z, X) grid of a series identity.

    The series sums (lam)_n/n! P_n(x / x_scale) (z_scale z)^n with the
    stack of tables seq, one per lambda; z_scale and x_scale are floats or
    one value per lambda.  closed(lam, z, x) is the closed side on arrays that
    broadcast to the grid.
    """
    lams, lead = _lambdas(lam)
    zs, xs = np.asarray(z), np.asarray(x, dtype=float)
    row = xs.shape[len(lead):] if xs.ndim > 1 else xs.shape
    rows = np.full((lams.size, math.prod(row)), xs.reshape(-1, math.prod(row)))
    z_scale, x_scale = (np.asarray(s).reshape(-1, 1) for s in (z_scale, x_scale))
    series = genfun.psi_series_stack(seq, lams.tolist(), z_scale * zs.ravel(),
                                     rows / x_scale)
    grid = (lams[:, None, None], zs.reshape(-1, 1), rows[:, None, :])
    values = np.array([result.value for result in series]).reshape(lams.size, zs.size, -1)
    return genfun.as_shape(np.abs(values - closed(*grid)), lead + zs.shape + row)


def gegenbauer_gf_check(lam, z, x):
    """Residual of sum_n 2^n (lam)_n/n! C_n(x) z^n = (1 - 2zx + z^2)^(-lam)."""
    if np.any(np.abs(np.asarray(x)) > 1.0):
        raise ParameterError(f"|x| must be <= 1, got {x}")
    if np.any(np.abs(np.asarray(z)) > 0.3):
        raise DomainError(f"|z| must be <= 0.3, got {np.abs(z).max()}")
    seq = gegenbauer_sequence(_lambdas(lam)[0], genfun.SERIES_CAP)
    return _series_check(lam, seq, z, x, 2.0, 1.0, lambda lam, zg, xg: _principal_power(
        1.0 - 2.0 * zg * xg + zg * zg, -lam))


def tilde_gegenbauer_identity(lam, z, x):
    """Residual of the scaled Gegenbauer generating function.

    The polynomials are sqrt(2(1+lam))^n C_n(x / sqrt(2(1+lam))) and the
    closed form is (1 - zx + (1+lam) z^2 / 2)^(-lam).
    """
    lams = _lambdas(lam)[0]
    seq, scale = gegenbauer_sequence(lams, genfun.SERIES_CAP), np.sqrt(2.0 * (1.0 + lams))
    return _series_check(lam, seq, z, x, scale, scale, lambda lam, zg, xg: _principal_power(
        1.0 - zg * xg + 0.5 * (1.0 + lam) * zg * zg, -lam))


def family2_identity(lam, z, x):
    """Residual of the second symmetric family's generating function.

    The polynomials carry Gegenbauer parameter lam - 1 (scale sqrt(2 lam))
    while the series coefficient keeps (lam)_n; the closed form is
    (1 - lam z^2/2) / (1 - zx + lam z^2/2)^lam.
    """
    lams = _lambdas(lam)[0]
    if (lams <= 0.5).any():
        raise ParameterError(f"lambda must be > 1/2, got {lam}")
    if (np.abs(lams - 1.0) < 1e-9).any():
        raise ParameterError("lambda = 1 is excluded for the second symmetric family")
    seq, scale = gegenbauer_sequence(lams - 1.0, genfun.SERIES_CAP), np.sqrt(2.0 * lams)
    return _series_check(lam, seq, z, x, scale, scale, lambda lam, zg, xg: (
        1.0 - 0.5 * lam * zg * zg) * _principal_power(1.0 - zg * xg + 0.5 * lam * zg * zg, -lam))


def _nonsym_signs(cf: genfun.GenFunClosedForm) -> np.ndarray:
    """nonsym_sign of cf's families, laid out as cf.lam; another family
    raises ParameterError."""
    tags = np.ravel(np.asarray(cf.family, dtype=object))
    return np.reshape([families.nonsym_sign(tag) for tag in tags], np.shape(cf.lam))


def jacobi_shift_check(cf: genfun.GenFunClosedForm, seq, n_max: int, x) -> np.ndarray:
    """Relative residuals between the polynomials P_0 .. P_{n_max} of the
    first n_max coefficients of seq and the scaled-shifted classical monic
    Jacobi forms of the non-symmetric family of cf, as an (n_max + 1, X)
    grid over the 1-D array of points x.  For a stack of C closed forms seq
    is a stack of C tables, x has one row per configuration and the grid a
    leading axis of length C; one recurrence pass serves every row.

    For nonsym-plus: P_n(x) = k^n p_n^{(l-1/2, l-3/2)}((sqrt(2l-1) x - 1)/(2l))
    with k = 2l/sqrt(2l-1); for nonsym-minus the parameters swap and the
    shift reflects, matching p_n at (sqrt(2l-1) x + 1)/(2l).  Another
    family, or a table shorter than n_max, raises ParameterError.
    """
    sign, lam = _nonsym_signs(cf), cf.lam
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max}")
    lead = genfun._table_lead(seq, cf)
    xs = np.asarray(x, dtype=float).reshape(lead + (-1,))
    root = np.sqrt(2.0 * lam - 1.0)
    ys = (root * xs - sign) / (2.0 * lam)
    shift = np.where(sign > 0.0, 0.5, 1.5)  # alf = lam - 1/2 for nonsym-plus
    alf, bet = (np.reshape(lam - s, lead) for s in (shift, 2.0 - shift))
    catalog = eval_monic(seq, n_max, xs)
    oracle = eval_monic(jacobi_sequence(alf, bet, n_max), n_max, ys)
    # the floats a per-point k**n gives
    ks = np.ravel(2.0 * lam / root).tolist()
    scale = np.array([[k**n for k in ks] for n in range(n_max + 1)]).reshape((-1,) + lead)
    oracle = scale[..., None] * oracle
    residual = np.abs(catalog - oracle) / np.maximum(1.0, np.abs(oracle))
    return np.moveaxis(residual, 0, len(lead))


def jacobi_2f1_gf_check(lam, t, y):
    """Residual of sum_n (lam)_n/n! p_n^{(l-1/2, l-3/2)}(y) (2t)^n
    = (1+t)/(1 + t^2 - 2ty)^lam."""
    if np.any(np.abs(np.asarray(t)) >= 0.3):
        raise DomainError(f"|t| must be < 0.3, got {t}")
    if np.any(np.abs(np.asarray(y)) >= 1.0):
        raise DomainError(f"|y| must be < 1, got {y}")
    lams = _lambdas(lam)[0]
    seq = jacobi_sequence(lams - 0.5, lams - 1.5, genfun.SERIES_CAP)
    return _series_check(lam, seq, t, y, 2.0, 1.0, lambda lam, tg, yg: (
        1.0 + tg) * (1.0 + tg * tg - 2.0 * tg * yg) ** (-lam))


def two_f_one_collapse_check(lam, t, y):
    """Residual of the hypergeometric prefactor form against its collapse.

    With (alf, bet) = (lam-1/2, lam-3/2) the first numerator parameter
    (alf+bet+1)/2 equals the denominator parameter bet+1, so

        (1+t)^(-(alf+bet+1)) 2F1((alf+bet+1)/2, (alf+bet+2)/2; bet+1; w)

    with w = 2(y+1)t/(1+t)^2 reduces to (1+t)/(1 + t^2 - 2ty)^lam.  The left
    side is summed as a genuine 2F1 series (no term cancellation assumed).
    t and y are floats or 1-D arrays, shared by every lambda of a stack;
    arrays give the (T, Y) grid, and a stack all its grids, from one
    gauss_2f1 call.
    """
    if np.any(np.abs(t) >= 0.3):
        raise DomainError(f"|t| must be < 0.3, got {t}")
    if np.any(np.abs(y) >= 1.0):
        raise DomainError(f"|y| must be < 1, got {y}")
    lams, lead = _lambdas(lam)
    alf, bet = lams - 0.5, lams - 1.5
    # a scalar is the length-1 grid, so it rounds as the same grid point
    tg = np.atleast_1d(np.asarray(t, dtype=float))[:, None]
    yg = np.atleast_1d(np.asarray(y, dtype=float))
    params = HypergeometricParams(
        upper=(0.5 * (alf + bet + 1.0), 0.5 * (alf + bet + 2.0)),
        lower=bet + 1.0,
        argument=2.0 * (yg + 1.0) * tg / (1.0 + tg) ** 2,
    )
    column = (-1, 1, 1)  # one lambda per row of the (C, T, Y) grid
    lhs = (1.0 + tg) ** np.reshape(-(alf + bet + 1.0), column) * gauss_2f1(params)
    rhs = (1.0 + tg) * (1.0 + tg * tg - 2.0 * tg * yg) ** np.reshape(-lams, column)
    return genfun.as_shape(np.abs(lhs - rhs), lead + np.shape(t) + np.shape(y))


def gf3_equivalence(cf: genfun.GenFunClosedForm, z, x):
    """Residual between the rational-prefactor closed form of one
    non-symmetric family's generating function and the product evaluation
    of its psi, on the (Z, X) grid of 1-D z and x (scalars give a scalar).
    For a stack of C closed forms x has one row per configuration and the
    grid a leading axis of length C, from one psi_analytic call.

    For the nonsym-plus closed form cf the display is
        (l/r) (z + r/l) [1 - z(x - 1/r) + l^2 z^2 / r^2]^(-l),  r = sqrt(2l-1),
    checked against psi_analytic(cf, z, x); for nonsym-minus the signs of r
    in the display flip.  Another family raises ParameterError.
    """
    # z keeps its own dtype: the display is formed in reals for a real z
    _, xs, shape = genfun._grid(cf, z, x)
    zg = np.atleast_1d(z)[:, None]
    sgn, lam = genfun._lift(_nonsym_signs(cf)), genfun._lift(cf.lam)
    root = np.sqrt(2.0 * lam - 1.0)
    ratio = lam * lam / (2.0 * lam - 1.0)
    w = 1.0 - zg * (xs - sgn / root) + ratio * zg * zg
    closed = sgn * (lam / root) * (zg + sgn * root / lam) * _principal_power(w, -lam)
    return np.abs(genfun.as_shape(closed, shape) - genfun.psi_analytic(cf, z, x))
