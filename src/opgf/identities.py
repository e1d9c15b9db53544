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

from . import genfun, measures
from .errors import DomainError, ParameterError
from .families import Family
from .recurrence import JacobiSzegoSequence, eval_monic, quiet_sum


@dataclass(frozen=True)
class HypergeometricParams:
    """Parameters of a Gauss 2F1 series evaluation.

    upper holds the two numerator parameters, lower the single denominator
    parameter; the series requires |argument| < 1 and a lower parameter that
    is not a non-positive integer.
    """

    upper: tuple[float, float]
    lower: float
    argument: float

    def __post_init__(self):
        if abs(self.argument) >= 1.0:
            raise DomainError(
                f"2F1 series needs |argument| < 1, got {self.argument}"
            )
        if self.lower <= 0.0 and float(self.lower).is_integer():
            raise ParameterError(
                f"lower parameter {self.lower} is a non-positive integer"
            )


def gauss_2f1(params: HypergeometricParams) -> float:
    """Plain 2F1 series sum_n (u1)_n (u2)_n / ((l)_n n!) * argument^n."""
    u1, u2 = params.upper
    low = params.lower
    arg = params.argument

    def terms():
        term = 1.0
        for n in range(2000):
            yield term
            term *= (u1 + n) * (u2 + n) * arg / ((low + n) * (n + 1.0))

    return quiet_sum(terms())[0]


def pochhammer(lam: float, n: int) -> float:
    """Rising factorial (lam)_n = lam (lam+1) ... (lam+n-1), with ()_0 = 1."""
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    out = 1.0
    for k in range(n):
        out *= lam + k
    return out


def duplication_check(a: float) -> float:
    """Log-scale residual of sqrt(pi) Gamma(2a) = 2^(2a-1) Gamma(a) Gamma(a+1/2)."""
    if a <= 0.0:
        raise ParameterError(f"a must be > 0, got {a}")
    lhs = 0.5 * math.log(math.pi) + math.lgamma(2.0 * a)
    rhs = (2.0 * a - 1.0) * math.log(2.0) + math.lgamma(a) + math.lgamma(a + 0.5)
    return abs(lhs - rhs)


def pochhammer_ratio_check(lam: float, n: int) -> float:
    """Relative residual of (2 lam - 1)_{2n} / (lam - 1/2)_n = 4^n (lam)_n.

    For n >= 1 the left side is taken with the common factor 2 lam - 1 =
    2 (lam - 1/2) cancelled, as 2 (2 lam)_{2n-1} / (lam + 1/2)_{n-1}, so the
    check is defined for every lambda > 0, lambda = 1/2 included.
    """
    if lam <= 0.0:
        raise ParameterError(f"lambda must be > 0, got {lam}")
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    if n == 0:
        lhs = 1.0
    else:
        lhs = 2.0 * pochhammer(2.0 * lam, 2 * n - 1) / pochhammer(lam + 0.5, n - 1)
    rhs = 4.0**n * pochhammer(lam, n)
    return abs(lhs - rhs) / abs(rhs)


def one_f_zero_reduction(lam: float, y: float) -> float:
    """Residual of the binomial series sum_n (lam)_n y^n / n! = (1-y)^(-lam)."""
    if abs(y) >= 1.0:
        raise DomainError(f"|y| must be < 1, got {y}")

    def terms():
        term = 1.0
        for n in range(1000):
            yield term
            term *= (lam + n) * y / (n + 1.0)

    return abs(quiet_sum(terms())[0] - (1.0 - y) ** (-lam))


# ----------------------------------------------------------------------------
# Classical monic recurrences on [-1, 1]


def gegenbauer_omega(n: int, lam: float) -> float:
    """omega_n of the monic Gegenbauer system, weight (1-x^2)^(lam-1/2)."""
    if n <= 0:
        return 1.0
    return n * (n + 2.0 * lam - 1.0) / (4.0 * (n + lam) * (n + lam - 1.0))


def jacobi_alpha(n: int, alf: float, bet: float) -> float:
    """alpha_n of the monic Jacobi system, weight (1-x)^alf (1+x)^bet."""
    if n == 0:
        return (bet - alf) / (alf + bet + 2.0)
    s = 2.0 * n + alf + bet
    return (bet * bet - alf * alf) / (s * (s + 2.0))


def jacobi_omega(n: int, alf: float, bet: float) -> float:
    """omega_n of the monic Jacobi system (omega_0 = 1 by convention)."""
    if n <= 0:
        return 1.0
    if n == 1:
        s = alf + bet
        return 4.0 * (alf + 1.0) * (bet + 1.0) / ((s + 2.0) ** 2 * (s + 3.0))
    s = 2.0 * n + alf + bet
    return (
        4.0 * n * (n + alf) * (n + bet) * (n + alf + bet)
        / (s * s * (s + 1.0) * (s - 1.0))
    )


def gegenbauer_sequence(lam: float, size: int) -> JacobiSzegoSequence:
    """Monic Gegenbauer coefficients for n = 0 .. size - 1."""
    return JacobiSzegoSequence(np.zeros(size),
                               [gegenbauer_omega(n, lam) for n in range(size)])


def jacobi_sequence(alf: float, bet: float, size: int) -> JacobiSzegoSequence:
    """Monic Jacobi coefficients for n = 0 .. size - 1."""
    return JacobiSzegoSequence([jacobi_alpha(n, alf, bet) for n in range(size)],
                               [jacobi_omega(n, alf, bet) for n in range(size)])


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


def jacobi_shift_check(lam: float, n_max: int, x, sign: str) -> np.ndarray:
    """Relative residuals between the catalog non-symmetric polynomials
    P_0 .. P_{n_max} and their scaled-shifted classical monic Jacobi forms,
    as an (n_max + 1, X) grid over the 1-D array of points x.

    For sign "plus": P_n(x) = k^n p_n^{(l-1/2, l-3/2)}((sqrt(2l-1) x - 1)/(2l))
    with k = 2l/sqrt(2l-1); for "minus" the parameters swap and the shift
    reflects, matching p_n at (sqrt(2l-1) x + 1)/(2l).
    """
    if sign not in ("plus", "minus"):
        raise ParameterError(f"sign must be 'plus' or 'minus', got {sign!r}")
    root = math.sqrt(2.0 * lam - 1.0)
    k = 2.0 * lam / root
    xs = np.asarray(x, dtype=float)
    if sign == "plus":
        family = Family.NONSYM_PLUS
        alf, bet = lam - 0.5, lam - 1.5
        ys = (root * xs - 1.0) / (2.0 * lam)
    else:
        family = Family.NONSYM_MINUS
        alf, bet = lam - 1.5, lam - 0.5
        ys = (root * xs + 1.0) / (2.0 * lam)
    catalog = eval_monic(measures.family_sequence(family, lam, size=n_max), n_max, xs)
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


def two_f_one_collapse_check(lam: float, t: float, y: float) -> float:
    """Residual of the hypergeometric prefactor form against its collapse.

    With (alf, bet) = (lam-1/2, lam-3/2) the first numerator parameter
    (alf+bet+1)/2 equals the denominator parameter bet+1, so

        (1+t)^(-(alf+bet+1)) 2F1((alf+bet+1)/2, (alf+bet+2)/2; bet+1; w)

    with w = 2(y+1)t/(1+t)^2 reduces to (1+t)/(1 + t^2 - 2ty)^lam.  The left
    side is summed as a genuine 2F1 series (no term cancellation assumed).
    """
    if abs(t) >= 0.3:
        raise DomainError(f"|t| must be < 0.3, got {t}")
    if abs(y) >= 1.0:
        raise DomainError(f"|y| must be < 1, got {y}")
    alf, bet = lam - 0.5, lam - 1.5
    params = HypergeometricParams(
        upper=(0.5 * (alf + bet + 1.0), 0.5 * (alf + bet + 2.0)),
        lower=bet + 1.0,
        argument=2.0 * (y + 1.0) * t / (1.0 + t) ** 2,
    )
    lhs = (1.0 + t) ** (-(alf + bet + 1.0)) * gauss_2f1(params)
    rhs = (1.0 + t) * (1.0 + t * t - 2.0 * t * y) ** (-lam)
    return abs(lhs - rhs)


def gf3_equivalence(lam: float, z: float, x: float, sign: str) -> float:
    """Residual between the rational-prefactor closed form of one
    non-symmetric family's generating function and the product evaluation
    of its psi.

    For sign "plus" the display is
        (l/r) (z + r/l) [1 - z(x - 1/r) + l^2 z^2 / r^2]^(-l),  r = sqrt(2l-1),
    checked against psi of nonsym-plus; "minus" flips the signs of r in the
    display and is checked against psi of nonsym-minus.
    """
    if sign not in ("plus", "minus"):
        raise ParameterError(f"sign must be 'plus' or 'minus', got {sign!r}")
    family, sgn = ((Family.NONSYM_PLUS, 1.0) if sign == "plus"
                   else (Family.NONSYM_MINUS, -1.0))
    root = math.sqrt(2.0 * lam - 1.0)
    ratio = lam * lam / (2.0 * lam - 1.0)
    cf = genfun.closed_form(family, lam)
    w = 1.0 - z * (x - sgn / root) + ratio * z * z
    closed = sgn * (lam / root) * (z + sgn * root / lam) * _principal_power(w, -lam)
    return abs(closed - genfun.psi_analytic(cf, z, x))
