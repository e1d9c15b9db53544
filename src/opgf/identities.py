"""Special-function identities behind the symmetric and non-symmetric families.

Covers Pochhammer symbols, the Gauss duplication formula, the collapse of the
Jacobi 2F1 generating function to a binomial (1F0) series, and the four
generating-function identities that tie scaled Gegenbauer and shifted Jacobi
polynomials to their closed forms.  Each check returns a residual magnitude;
the caller compares it against the documented tolerance.

Classical monic recurrence coefficients on [-1, 1] are implemented here from
the standard formulas and are cross-validated in the test suite against the
Stieltjes procedure run on the corresponding Beta densities.
"""
from __future__ import annotations

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
    parameter; argument is a float or an array of them.  The series
    requires |argument| < 1 and a lower parameter that is not a
    non-positive integer.
    """

    upper: tuple[float, float]
    lower: float
    argument: float

    def __post_init__(self):
        if np.any(np.abs(self.argument) >= 1.0):
            raise DomainError(
                f"2F1 series needs |argument| < 1, got {self.argument}"
            )
        if self.lower <= 0.0 and float(self.lower).is_integer():
            raise ParameterError(
                f"lower parameter {self.lower} is a non-positive integer"
            )


def _hypergeometric_sum(upper: tuple, lower: tuple, w) -> np.ndarray:
    """sum_n t_n for each w of a 1-D array, t_0 = 1 and

        t_{n+1} / t_n = w prod_i (upper_i + n) / (lower_i + n),

    upper and lower of one length (lower holds the 1 of n!).

    Each element is truncated at the first K >= 1 whose proved tail bound
    is at most 2^-53 |sum_{n<K} t_n|, half an ulp of the partial sum, so the
    omitted tail stays below the rounding of the result even where the
    terms cancel.  The bound: when b + K > 0 each factor (a + n)/(b + n) is
    monotone in n >= K and tends to 1, so |t_{n+1} / t_n| <= R_K =
    |w| prod_i max(1, |upper_i + K| / (lower_i + K)) and the tail is at most
    |t_K| / (1 - R_K) when R_K < 1.  An element with no such K among the
    _HYPER_CAP terms sums them all.
    """
    w = np.asarray(w, dtype=float)
    # The terms fall like |w|^n times a power of n: start with a table whose
    # second half lies past |w|^n = 2^-53 for the largest |w|.
    length, top = _HYPER_FIRST, float(np.abs(w).max())
    while length < _HYPER_CAP and top ** (length // 2) > genfun.UNIT_ROUNDOFF:
        length *= 2
    while True:
        n = np.arange(length - 1.0)
        k = n + 1.0  # t_K for K = 1 .. length - 1
        ratios = (math.prod([a + n for a in upper]) * w[:, None]
                  / math.prod([b + n for b in lower]))
        terms = np.ones((w.size, length))
        np.cumprod(ratios, axis=1, out=terms[:, 1:])
        sums = np.cumsum(terms, axis=1)
        # slack is 1 - R_K; K qualifies only where every b + K > 0
        factor = math.prod([np.maximum(1.0, np.abs(a + k) / np.abs(b + k))
                            for a, b in zip(upper, lower)])
        slack = 1.0 - np.abs(w)[:, None] * factor
        valid = np.all([b + k > 0.0 for b in lower], axis=0)
        stop = valid & (np.abs(terms[:, 1:])
                        <= genfun.UNIT_ROUNDOFF * np.abs(sums[:, :-1]) * slack)
        found = stop.any(axis=1)
        if found.all() or length >= _HYPER_CAP:
            break
        length *= 2
    count = np.where(found, np.argmax(stop, axis=1) + 1, length)
    return sums[np.arange(w.size), count - 1]


def gauss_2f1(params: HypergeometricParams):
    """Plain 2F1 series sum_n (u1)_n (u2)_n / ((l)_n n!) * argument^n,
    truncated by _hypergeometric_sum's tail bound; a float for a float
    argument, an array of its shape for an array."""
    arg = np.asarray(params.argument, dtype=float)
    total = _hypergeometric_sum(params.upper, (params.lower, 1.0), arg.ravel())
    return genfun.as_shape(total, arg.shape)


def _rising_table(a: float, n: int) -> np.ndarray:
    """(a)_0 .. (a)_n, each the product of its predecessor and a + k."""
    return np.concatenate([[1.0], np.cumprod(a + np.arange(n, dtype=float))])


def pochhammer(lam: float, n: int) -> float:
    """Rising factorial (lam)_n = lam (lam+1) ... (lam+n-1), with ()_0 = 1."""
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    return float(_rising_table(lam, n)[n])


def duplication_check(a: float) -> float:
    """Log-scale residual of sqrt(pi) Gamma(2a) = 2^(2a-1) Gamma(a) Gamma(a+1/2)."""
    if a <= 0.0:
        raise ParameterError(f"a must be > 0, got {a}")
    lhs = 0.5 * math.log(math.pi) + math.lgamma(2.0 * a)
    rhs = (2.0 * a - 1.0) * math.log(2.0) + math.lgamma(a) + math.lgamma(a + 0.5)
    return abs(lhs - rhs)


def pochhammer_ratio_check(lam: float, n):
    """Relative residual of (2 lam - 1)_{2n} / (lam - 1/2)_n = 4^n (lam)_n.

    For n >= 1 the left side is taken with the common factor 2 lam - 1 =
    2 (lam - 1/2) cancelled, as 2 (2 lam)_{2n-1} / (lam + 1/2)_{n-1}, so the
    check is defined for every lambda > 0, lambda = 1/2 included.  n is an
    int or a 1-D array of them; the products are read from one table per
    symbol, so an array gives exactly the residuals of one call per n.
    """
    if lam <= 0.0:
        raise ParameterError(f"lambda must be > 0, got {lam}")
    ns = np.asarray(n)
    if np.any(ns < 0):
        raise ParameterError(f"n must be >= 0, got {n}")
    top = max(int(ns.max()), 1)
    k = np.maximum(ns, 1)
    lhs = np.where(ns == 0, 1.0, 2.0 * _rising_table(2.0 * lam, 2 * top)[2 * k - 1]
                   / _rising_table(lam + 0.5, top)[k - 1])
    rhs = 4.0**ns * _rising_table(lam, top)[ns]
    return genfun.as_shape(np.abs(lhs - rhs) / np.abs(rhs), ns.shape)


def one_f_zero_reduction(lam: float, y):
    """Residual of the binomial series sum_n (lam)_n y^n / n! = (1-y)^(-lam),
    for a float y or each element of a 1-D array, truncated by
    _hypergeometric_sum's tail bound."""
    ys = np.asarray(y, dtype=float)
    if np.any(np.abs(ys) >= 1.0):
        raise DomainError(f"|y| must be < 1, got {y}")
    flat = ys.ravel()
    residual = np.abs(_hypergeometric_sum((lam,), (1.0,), flat) - (1.0 - flat) ** (-lam))
    return genfun.as_shape(residual, ys.shape)


# ----------------------------------------------------------------------------
# Classical monic recurrences on [-1, 1]
#
# The sequences evaluate the standard tail formulas (alpha_n for n >= 1,
# omega_n for n >= 1 or 2) at n1 = max(n, 1) and n2 = max(n, 2), as
# measures.family_sequence does, and write the head over the result.


def gegenbauer_sequence(lam: float, size: int) -> JacobiSzegoSequence:
    """Monic Gegenbauer coefficients, weight (1-x^2)^(lam-1/2), for
    n = 0 .. size - 1."""
    n1 = np.maximum(np.arange(size, dtype=float), 1.0)
    omegas = n1 * (n1 + 2.0 * lam - 1.0) / (4.0 * (n1 + lam) * (n1 + lam - 1.0))
    omegas[:1] = 1.0
    return JacobiSzegoSequence(np.zeros(size), omegas)


def jacobi_sequence(alf: float, bet: float, size: int) -> JacobiSzegoSequence:
    """Monic Jacobi coefficients, weight (1-x)^alf (1+x)^bet, for
    n = 0 .. size - 1."""
    n = np.arange(size, dtype=float)
    n1, n2 = np.maximum(n, 1.0), np.maximum(n, 2.0)
    s1, s2 = 2.0 * n1 + alf + bet, 2.0 * n2 + alf + bet
    alphas = (bet * bet - alf * alf) / (s1 * (s1 + 2.0))
    omegas = (4.0 * n2 * (n2 + alf) * (n2 + bet) * (n2 + alf + bet)
              / (s2 * s2 * (s2 + 1.0) * (s2 - 1.0)))
    s = alf + bet
    alphas[:1] = (bet - alf) / (s + 2.0)
    omega1 = 4.0 * (alf + 1.0) * (bet + 1.0) / ((s + 2.0) ** 2 * (s + 3.0))
    omegas[:2] = [1.0, omega1][:size]
    return JacobiSzegoSequence(alphas, omegas)


def _principal_power(w, expo: float):
    return np.exp(expo * np.log(np.asarray(w, dtype=complex)))


# ----------------------------------------------------------------------------
# Generating-function identities
#
# The series checks take z (or t) and x (or y) as scalars or 1-D arrays;
# arrays give the residuals on the (Z, X) grid of every pair from one
# psi_series call.


def gegenbauer_gf_check(lam: float, z, x, n_terms: int):
    """Residual of sum_n 2^n (lam)_n/n! C_n(x) z^n = (1 - 2zx + z^2)^(-lam)."""
    z, x = np.asarray(z), np.asarray(x)
    if np.any(np.abs(x) > 1.0):
        raise ParameterError(f"|x| must be <= 1, got {x}")
    if np.any(np.abs(z) > 0.3):
        raise DomainError(f"|z| must be <= 0.3, got {np.abs(z).max()}")
    seq = gegenbauer_sequence(lam, n_terms)
    series = genfun.psi_series(seq, lam, 2.0 * z, x, n_terms).value
    zg, xg = genfun.grid_axes(z, x)
    closed = _principal_power(1.0 - 2.0 * zg * xg + zg * zg, -lam)
    return np.abs(series - closed)


def tilde_gegenbauer_identity(lam: float, z, x):
    """Residual of the scaled Gegenbauer generating function.

    The polynomials are sqrt(2(1+lam))^n C_n(x / sqrt(2(1+lam))) and the
    closed form is (1 - zx + (1+lam) z^2 / 2)^(-lam).
    """
    scale = math.sqrt(2.0 * (1.0 + lam))
    seq = gegenbauer_sequence(lam, genfun.SERIES_CAP)
    z, x = np.asarray(z), np.asarray(x)
    series = genfun.psi_series(seq, lam, scale * z, x / scale).value
    zg, xg = genfun.grid_axes(z, x)
    closed = _principal_power(1.0 - zg * xg + 0.5 * (1.0 + lam) * zg * zg, -lam)
    return np.abs(series - closed)


def family2_identity(lam: float, z, x):
    """Residual of the second symmetric family's generating function.

    The polynomials carry Gegenbauer parameter lam - 1 (scale sqrt(2 lam))
    while the series coefficient keeps (lam)_n; the closed form is
    (1 - lam z^2/2) / (1 - zx + lam z^2/2)^lam.
    """
    if lam <= 0.5:
        raise ParameterError(f"lambda must be > 1/2, got {lam}")
    if abs(lam - 1.0) < 1e-9:
        raise ParameterError("lambda = 1 is excluded for the second symmetric family")
    scale = math.sqrt(2.0 * lam)
    seq = gegenbauer_sequence(lam - 1.0, genfun.SERIES_CAP)
    z, x = np.asarray(z), np.asarray(x)
    series = genfun.psi_series(seq, lam, scale * z, x / scale).value
    zg, xg = genfun.grid_axes(z, x)
    closed = (1.0 - 0.5 * lam * zg * zg) * _principal_power(
        1.0 - zg * xg + 0.5 * lam * zg * zg, -lam
    )
    return np.abs(series - closed)


def jacobi_shift_check(cf: genfun.GenFunClosedForm, seq: JacobiSzegoSequence,
                       n_max: int, x) -> np.ndarray:
    """Relative residuals between the polynomials P_0 .. P_{n_max} of the
    first n_max coefficients of seq and the scaled-shifted classical monic
    Jacobi forms of the non-symmetric family of cf, as an (n_max + 1, X)
    grid over the 1-D array of points x.

    For nonsym-plus: P_n(x) = k^n p_n^{(l-1/2, l-3/2)}((sqrt(2l-1) x - 1)/(2l))
    with k = 2l/sqrt(2l-1); for nonsym-minus the parameters swap and the
    shift reflects, matching p_n at (sqrt(2l-1) x + 1)/(2l).  Another
    family, or a table shorter than n_max, raises ParameterError.
    """
    sign, lam = families.nonsym_sign(cf.family), cf.lam
    root = math.sqrt(2.0 * lam - 1.0)
    k = 2.0 * lam / root
    xs = np.asarray(x, dtype=float)
    alf, bet = (lam - 0.5, lam - 1.5) if sign > 0.0 else (lam - 1.5, lam - 0.5)
    ys = (root * xs - sign) / (2.0 * lam)
    catalog = eval_monic(seq, n_max, xs)
    scale = np.array([k**n for n in range(n_max + 1)])  # the floats a per-point k**n gives
    oracle = scale[:, None] * eval_monic(jacobi_sequence(alf, bet, n_max), n_max, ys)
    return np.abs(catalog - oracle) / np.maximum(1.0, np.abs(oracle))


def jacobi_2f1_gf_check(lam: float, t, y):
    """Residual of sum_n (lam)_n/n! p_n^{(l-1/2, l-3/2)}(y) (2t)^n
    = (1+t)/(1 + t^2 - 2ty)^lam."""
    t, y = np.asarray(t), np.asarray(y)
    if np.any(np.abs(t) >= 0.3):
        raise DomainError(f"|t| must be < 0.3, got {t}")
    if np.any(np.abs(y) >= 1.0):
        raise DomainError(f"|y| must be < 1, got {y}")
    seq = jacobi_sequence(lam - 0.5, lam - 1.5, genfun.SERIES_CAP)
    series = genfun.psi_series(seq, lam, 2.0 * t, y).value
    tg, yg = genfun.grid_axes(t, y)
    closed = (1.0 + tg) * (1.0 + tg * tg - 2.0 * tg * yg) ** (-lam)
    return np.abs(series - closed)


def two_f_one_collapse_check(lam: float, t, y):
    """Residual of the hypergeometric prefactor form against its collapse.

    With (alf, bet) = (lam-1/2, lam-3/2) the first numerator parameter
    (alf+bet+1)/2 equals the denominator parameter bet+1, so

        (1+t)^(-(alf+bet+1)) 2F1((alf+bet+1)/2, (alf+bet+2)/2; bet+1; w)

    with w = 2(y+1)t/(1+t)^2 reduces to (1+t)/(1 + t^2 - 2ty)^lam.  The left
    side is summed as a genuine 2F1 series (no term cancellation assumed).
    t and y are floats or 1-D arrays; arrays give the (T, Y) grid from one
    gauss_2f1 call.
    """
    if np.any(np.abs(t) >= 0.3):
        raise DomainError(f"|t| must be < 0.3, got {t}")
    if np.any(np.abs(y) >= 1.0):
        raise DomainError(f"|y| must be < 1, got {y}")
    alf, bet = lam - 0.5, lam - 1.5
    # a scalar is the length-1 grid, so it rounds as the same grid point
    tg, yg = genfun.grid_axes(np.atleast_1d(np.asarray(t, dtype=float)),
                              np.atleast_1d(np.asarray(y, dtype=float)))
    params = HypergeometricParams(
        upper=(0.5 * (alf + bet + 1.0), 0.5 * (alf + bet + 2.0)),
        lower=bet + 1.0,
        argument=2.0 * (yg + 1.0) * tg / (1.0 + tg) ** 2,
    )
    lhs = (1.0 + tg) ** (-(alf + bet + 1.0)) * gauss_2f1(params)
    rhs = (1.0 + tg) * (1.0 + tg * tg - 2.0 * tg * yg) ** (-lam)
    return genfun.as_shape(np.abs(lhs - rhs), np.shape(t) + np.shape(y))


def gf3_equivalence(cf: genfun.GenFunClosedForm, z, x):
    """Residual between the rational-prefactor closed form of one
    non-symmetric family's generating function and the product evaluation
    of its psi, on the (Z, X) grid of 1-D z and x (scalars give a scalar).

    For the nonsym-plus closed form cf the display is
        (l/r) (z + r/l) [1 - z(x - 1/r) + l^2 z^2 / r^2]^(-l),  r = sqrt(2l-1),
    checked against psi_analytic(cf, z, x); for nonsym-minus the signs of r
    in the display flip.  Another family raises ParameterError.
    """
    sgn, lam = families.nonsym_sign(cf.family), cf.lam
    root = math.sqrt(2.0 * lam - 1.0)
    ratio = lam * lam / (2.0 * lam - 1.0)
    zg, xg = genfun.grid_axes(z, x)
    w = 1.0 - zg * (xg - sgn / root) + ratio * zg * zg
    closed = sgn * (lam / root) * (zg + sgn * root / lam) * _principal_power(w, -lam)
    return np.abs(closed - genfun.psi_analytic(cf, z, x))
