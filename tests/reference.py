"""Reference implementations the tests compare the package against.

They compute the same quantities as the package by an independent route:
adaptive Gauss-Kronrod integration against each family's Beta density,
normalized in log-gamma form (the package stores no density and builds its
Gauss rules from the recurrence alone), psi's closed form as the literal
product 1 / (u(z) (f(z) - x)^lambda) at one point, with f and u written
here from the closed form's quadratics (the package evaluates a
factorization of it), the Riccati, u'/u and m2 moment equations sampled
at points (the package matches the polynomial coefficients of each,
cleared of denominators, without evaluating f or u), the non-symmetric
families' psi as the paper's rational-prefactor display (the package evaluates
N(z) / (1 + (c1 - x) z + c2 z^2)^lambda from its closed form), the
classical monic Gegenbauer and Jacobi recurrence coefficients one index at
a time (the package tabulates them as arrays),
and recurrence coefficients recovered from a Gauss rule by the discrete
Stieltjes procedure (the package writes them in closed form).
A Gauss rule is also refined in np.longdouble by Newton's method on the
recurrence, with Christoffel weights (the package takes eigenvectors).

The classification oracles sample the package's coefficient-matching
identity where the commands never do: the symmetric omega_2 quadratic with
its normalized coefficients, and the degree argument that forces an E of
degree 3 to 6 down to degree 2.  A few small helpers give quantities that
several tests read: norms, moments and the standardization of a table.

The special-function identities of lambda alone read no configuration's
closed form or table, so verify runs none of them; they are oracles here,
for one lambda at a time: the Gauss duplication formula in log-gamma form
and in Pochhammer form, the binomial (1F0) series, the Gegenbauer
generating function and its two scaled forms, the Jacobi 2F1 generating
function and its collapse from a genuine 2F1 series.  The series sides sum
with the package's psi_series_stack (a stack of one) or, for 2F1 and 1F0,
term by term under a tail bound; the monic Gegenbauer table is written
here.

The series oracles run one term at a time where the package uses arrays:
the coefficients (lambda)_n / n! by their ratio recurrence, the growth
factors rho_n of the series bound, and the term count of psi's series
under the recurrence majorant M_n itself, the bound the package's product
majorant replaces.

A configuration is a tuple (family, lambda, a, b), as in conftest.
"""
from __future__ import annotations

import cmath
import itertools
import math
from typing import Callable, Iterator

import numpy as np
import scipy.integrate

from opgf import (
    DomainError,
    Family,
    InconsistencyError,
    JacobiSzegoSequence,
    NumericalBreakdownError,
    ParameterError,
    family_sequence,
    gauss_quadrature,
    psi_series_stack,
)
from opgf.families import support_interval, validate_params
from opgf.genfun import SERIES_CAP, as_shape
from opgf.identities import jacobi_sequence
from opgf.riccati import _coeff_at, _quadratic_fit, _quadratic_roots, _symmetric_omega2_fit

_QUAD_TOL = 1e-12


def _edge_weighted_integral(lo: float, hi: float, e_lo: float, e_hi: float,
                            fn: Callable[[float], float]) -> float:
    """Integral over (lo, hi) of (hi-x)^e_hi (x-lo)^e_lo fn(x) dx.

    Substituting x = mid + half*sin(t) and folding at the half-angle
    phi = t/2 + pi/4 turns the two endpoint factors into sin(phi)^(2e+1)
    singularities at phi = 0, which the adaptive integrator resolves and the
    sine evaluates exactly; fn only ever sees interior points.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    a = 2.0 * e_hi + 1.0
    b = 2.0 * e_lo + 1.0
    scale = half ** (e_hi + e_lo + 1.0) * 2.0 ** (e_hi + e_lo + 2.0)

    def near_lo(phi: float) -> float:
        s, c = math.sin(phi), math.cos(phi)
        x = mid + half * (2.0 * s * s - 1.0)
        return c**a * s**b * fn(x)

    def near_hi(phi: float) -> float:
        s, c = math.sin(phi), math.cos(phi)
        x = mid + half * (1.0 - 2.0 * s * s)
        return s**a * c**b * fn(x)

    total = 0.0
    for piece in (near_lo, near_hi):
        value, _ = scipy.integrate.quad(
            piece, 0.0, 0.25 * math.pi,
            epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200,
        )
        total += value
    return scale * total


def beta_law(family, lam) -> tuple[tuple[float, float], float, float]:
    """((e_lo, e_hi), log_scale, log_mass) of the density of a non-Meixner
    family, exp(log_scale - log_mass) (hi - x)^e_hi (x - lo)^e_lo on its
    support [lo, hi].

    The unnormalized density's mass is the Beta integral (DLMF 5.12)
    exp(log_scale) (hi - lo)^(e_lo + e_hi + 1) B(e_lo + 1, e_hi + 1), whose
    logarithm log_mass is summed in log-gamma form.  Its terms grow like
    lambda log lambda and cancel, so it loses accuracy from about
    lambda = 1e12; the tests read it up to lambda = 40.
    """
    family = Family(family)
    if family is Family.FREE_MEIXNER:
        raise ParameterError("free-meixner has no stored density; use its recurrence")
    lam, _, _ = validate_params(family, lam)
    lo, hi = support_interval(family, lam)
    if family is Family.SYM1:
        e_lo = e_hi = lam - 0.5
        log_scale = -2.0 * e_hi * math.log(hi)
    elif family is Family.SYM2:
        e_lo = e_hi = lam - 1.5
        log_scale = -2.0 * e_hi * math.log(hi)
    else:
        root = math.sqrt(2.0 * lam - 1.0)
        if family is Family.NONSYM_PLUS:
            e_hi, e_lo = lam - 0.5, lam - 1.5
        else:
            e_hi, e_lo = lam - 1.5, lam - 0.5
        log_scale = (e_hi + e_lo) * math.log(root / (2.0 * lam))
    log_mass = (
        log_scale + (e_lo + e_hi + 1.0) * math.log(hi - lo)
        + math.lgamma(e_lo + 1.0) + math.lgamma(e_hi + 1.0)
        - math.lgamma(e_lo + e_hi + 2.0)
    )
    return (e_lo, e_hi), log_scale, log_mass


def adaptive_integral(config, fn) -> float:
    """Adaptive integral of fn against the configuration's normalized
    density (tol 1e-12)."""
    family, lam, _, _ = config
    (e_lo, e_hi), log_scale, log_mass = beta_law(family, lam)
    lo, hi = support_interval(family, lam)
    return math.exp(log_scale - log_mass) * _edge_weighted_integral(lo, hi, e_lo, e_hi, fn)


def density(config, x: float) -> float:
    """Normalized density of the configuration at x (0 outside the open
    support)."""
    family, lam, _, _ = config
    (e_lo, e_hi), log_scale, log_mass = beta_law(family, lam)
    lo, hi = support_interval(family, lam)
    if not lo < x < hi:
        return 0.0
    return math.exp(log_scale - log_mass + e_hi * math.log(hi - x) + e_lo * math.log(x - lo))


def gauss_rule(config, order: int):
    """The configuration's Gauss rule of the given order."""
    return gauss_quadrature(family_sequence(*config, size=order), order)


def moment(config, k: int, order: int) -> float:
    """k-th raw moment of the configuration's measure by its Gauss rule of
    the given order, exact for k <= 2 order - 1."""
    rule = gauss_rule(config, order)
    return float(rule.weights @ rule.nodes**k)


def norm_squared(seq: JacobiSzegoSequence, n: int) -> float:
    """||P_n||^2 = omega_1 omega_2 ... omega_n (1 for n = 0), from
    ||P_{n+1}||^2 = omega_{n+1} ||P_n||^2 and unit total mass."""
    return math.prod(seq.omegas[1:n + 1].tolist(), start=1.0)


def newton_gauss_rule(seq: JacobiSzegoSequence, order: int, start) -> tuple:
    """Gauss rule of `order` nodes in np.longdouble: Newton's method on the
    orthonormal recurrence from the nodes `start`, rescaled by a power of 2
    every 16 degrees (the ratio p / p' is all Newton reads, and long double's
    range holds 16 degrees of growth), and weights z_0^2 / |z|^2 from the
    eigenvector z of the Jacobi matrix at each node.

    z comes from the twisted factorization of J - x I (Parlett and Dhillon,
    1997): from the top down to index r by the pivots of the factorization
    from the top, and from the bottom up to r by those from the bottom, r
    where the twist |gamma_r| is least; its logarithm is summed, so nothing
    overflows.  The Christoffel sum 1 / sum_{j<order} p_j(x)^2 is not used:
    at a node outside the absolutely continuous band (an atom's) the forward
    recurrence follows the growing solution that the node's rounding excites,
    and free Meixner at a = 0.9, b = -0.5 read weight 2.3e-12 for 0.537 at
    order 100.  The accuracy is that of np.longdouble only where that type
    is wider than a double."""
    alphas = seq.alphas[:order].astype(np.longdouble)
    omegas = seq.omegas[:order + 1].astype(np.longdouble)
    root = np.sqrt(omegas)
    x = np.asarray(start, dtype=np.longdouble)
    for _ in range(2):
        p_prev, p, d_prev, d = (np.zeros_like(x), np.ones_like(x),
                                np.zeros_like(x), np.zeros_like(x))
        for j in range(order):
            if j % 16 == 0:
                scale = -np.frexp(np.maximum(np.abs(p), np.abs(d)))[1]
                p_prev, p, d_prev, d = (np.ldexp(v, scale) for v in (p_prev, p, d_prev, d))
            b = root[j] if j else 0.0
            t = x - alphas[j]
            p_prev, p, d_prev, d = (p, (t * p - b * p_prev) / root[j + 1],
                                    d, (p + t * d - b * d_prev) / root[j + 1])
        x = x - p / d
    # (degree, node) arrays, so that each step of the factorization reads a
    # contiguous row
    shifted = alphas[:, None] - x[None, :]
    top, bottom = np.empty_like(shifted), np.empty_like(shifted)
    top[0], bottom[-1] = shifted[0], shifted[-1]
    tiny = np.longdouble("1e-2000")  # stands in for a zero pivot (the node 0.0 of a symmetric law)
    for j in range(order):
        if j:
            top[j] = shifted[j] - omegas[j] / top[j - 1]
            bottom[-1 - j] = shifted[-1 - j] - omegas[order - j] / bottom[order - j]
        top[j] = np.where(top[j] == 0.0, tiny, top[j])
        bottom[-1 - j] = np.where(bottom[-1 - j] == 0.0, tiny, bottom[-1 - j])
    twist = np.argmin(np.abs(top + bottom - shifted), axis=0)
    # log |z_j / z_{j+1}| above the twist, log |z_{j+1} / z_j| below it
    above = np.arange(order - 1)[:, None] < twist
    up, down = np.zeros((2, order - 1, x.size), dtype=np.longdouble)
    np.log(root[1:order, None] / np.abs(top[:-1]), out=up, where=above)
    np.log(root[1:order, None] / np.abs(bottom[1:]), out=down, where=~above)
    log_z = np.zeros_like(shifted)
    log_z[:-1] = np.cumsum(up[::-1], axis=0)[::-1]
    log_z[1:] += np.cumsum(down, axis=0)
    # each node's sum over a contiguous row, which numpy sums pairwise
    squares = np.ascontiguousarray(np.exp(2.0 * (log_z - log_z[:1])).T)
    return x, 1.0 / squares.sum(axis=1)


def csv_rows(rule) -> str:
    """The node,weight rows of QuadratureRule.csv_text, one f-string a row."""
    return "".join(f"{x:.17g},{w:.17g}\n" for x, w in zip(rule.nodes, rule.weights))


def free_meixner_atoms(a: float, b: float) -> list:
    """(x0, mass) of each atom of the free Meixner law (Saitoh and Yoshida,
    2001; Bozejko and Bryc, 2006): a real zero x0 of 1 + a x + b x^2 carries
    the residue of the Cauchy transform G(z) = ((1 + 2b) z + a - sqrt((z -
    a)^2 - 4c^2)) / (2 (1 + a z + b z^2)), c^2 = 1 + b.  At x0 the square
    root is |(1 + 2b) x0 + a| with the sign of x0 - a, so the numerator
    vanishes (no atom) when the two signs agree, and otherwise the mass is
    ((1 + 2b) x0 + a) / (2 b x0 + a), which must be positive.  Deciding by
    the signs keeps a rounding residue of a cancelled numerator out."""
    if b:
        disc = a * a - 4.0 * b
        zeros = [] if disc < 0.0 else [(-a + sign * math.sqrt(disc)) / (2.0 * b) for sign in (1, -1)]
    else:
        zeros = [-1.0 / a] if a else []
    atoms = []
    for x0 in zeros:
        top = (1.0 + 2.0 * b) * x0 + a
        if top and (top > 0.0) != (x0 > a):
            mass = top / (2.0 * b * x0 + a)
            if mass <= 0.0:
                raise InconsistencyError(f"atom at {x0} has mass {mass}")
            atoms.append((x0, mass))
    return atoms


def free_meixner_moments(a: float, b: float, count: int) -> tuple:
    """Raw and absolute moments k = 0 .. count - 1 of the free Meixner law:
    its density sqrt(4c^2 - (x - a)^2) / (2 pi (1 + a x + b x^2)) on
    [a - 2c, a + 2c] by 400-node Gauss-Chebyshev quadrature (second kind),
    plus its atoms (free_meixner_atoms)."""
    c, m = math.sqrt(1.0 + b), 400
    angles = np.arange(1, m + 1) * math.pi / (m + 1)
    x = a + 2.0 * c * np.cos(angles)
    weights = 2.0 * c * c / (m + 1) * np.sin(angles) ** 2 / (1.0 + a * x + b * x * x)
    for x0, mass in free_meixner_atoms(a, b):
        x, weights = np.append(x, x0), np.append(weights, mass)
    powers = x[None, :] ** np.arange(count)[:, None]
    return powers @ weights, np.abs(powers) @ weights


def standardized(seq: JacobiSzegoSequence) -> bool:
    """alpha_0 = 0 and omega_1 = 1: the measure has mean 0, variance 1."""
    return (seq.alphas.size > 1 and abs(seq.alphas[0]) <= 1e-12
            and abs(seq.omegas[1] - 1.0) <= 1e-12)


# Naive discrete Stieltjes is unstable in doubles past this degree.
STIELTJES_MAX_DEGREE = 40


def stieltjes_from_quadrature(rule, n_max: int) -> JacobiSzegoSequence:
    """Recover (alpha_n, omega_n), n <= n_max, from a quadrature rule.

    Discrete Stieltjes procedure with the long recurrence: orthogonalize the
    monomial basis against the discrete inner product <f, g> = sum w_j f_j g_j.
    The rule must carry at least 2*n_max + 1 nodes with positive weights
    summing to 1.
    """
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max}")
    if n_max > STIELTJES_MAX_DEGREE:
        raise ParameterError(
            f"n_max = {n_max} exceeds the supported degree {STIELTJES_MAX_DEGREE} "
            "(double-precision instability of the naive Stieltjes procedure)"
        )
    nodes = np.asarray(rule.nodes, dtype=float)
    weights = np.asarray(rule.weights, dtype=float)
    if nodes.size < 2 * n_max + 1:
        raise ParameterError(
            f"rule has {nodes.size} nodes; need at least {2 * n_max + 1} for n_max={n_max}"
        )
    if np.any(weights <= 0.0):
        raise ParameterError("quadrature weights must be positive")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ParameterError("quadrature weights must sum to 1 within 1e-12")

    alphas = np.empty(n_max + 1)
    omegas = np.empty(n_max + 1)
    omegas[0] = 1.0
    p_prev = np.zeros_like(nodes)
    p_cur = np.ones_like(nodes)
    norm_cur = 1.0
    for n in range(n_max + 1):
        alphas[n] = float(weights @ (nodes * p_cur * p_cur)) / norm_cur
        if n == n_max:
            break
        p_next = (nodes - alphas[n]) * p_cur - (omegas[n] if n > 0 else 0.0) * p_prev
        norm_next = float(weights @ (p_next * p_next))
        omega_next = norm_next / norm_cur
        # Rank loss of the discrete measure shows up as an omega at rounding
        # scale (~eps^2), not as an exact zero.
        if omega_next <= 1e-16 * max(1.0, omegas[n]):
            raise NumericalBreakdownError(
                f"computed omega_{n + 1} = {omega_next} lost positivity "
                "(discrete measure has too few distinct support points)",
                index=n + 1,
            )
        omegas[n + 1] = omega_next
        p_prev, p_cur, norm_cur = p_cur, p_next, norm_next
    return JacobiSzegoSequence(alphas, omegas)


def symmetric_omega2_quadratic(lam: float) -> tuple[float, float, float]:
    """The quadratic A w^2 + B w + C = 0 satisfied by the symmetric omega_2,
    normalized so that A = -(lambda+1)(lambda+2); its discriminant is 9."""
    c2, c1, c0 = _symmetric_omega2_fit(lam)
    scale = c2 / (-(lam + 1.0) * (lam + 2.0))
    return c2 / scale, c1 / scale, c0 / scale


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


def gegenbauer_omega(n: int, lam: float) -> float:
    """omega_n of the monic Gegenbauer system, weight (1-x^2)^(lam-1/2)."""
    if n <= 0:
        return 1.0
    if n == 1:
        # the general formula with the common factor lam cancelled
        return 1.0 / (2.0 * (1.0 + lam))
    return n * (n + 2.0 * lam - 1.0) / (4.0 * (n + lam) * (n + lam - 1.0))


def jacobi_alpha(n: int, alf: float, bet: float) -> float:
    """alpha_n of the monic Jacobi system, weight (1-x)^alf (1+x)^bet."""
    if n == 0:
        return (bet - alf) / (alf + bet + 2.0)
    s = 2.0 * n + alf + bet
    return (bet - alf) / s * ((bet + alf) / (s + 2.0))


def jacobi_omega(n: int, alf: float, bet: float) -> float:
    """omega_n of the monic Jacobi system (omega_0 = 1 by convention)."""
    if n <= 0:
        return 1.0
    if n == 1:
        s = alf + bet
        return 4.0 * ((alf + 1.0) / (s + 2.0)) * ((bet + 1.0) / (s + 2.0)) / (s + 3.0)
    s = 2.0 * n + alf + bet
    return (4.0 * (n / s) * ((n + alf) / s) * ((n + bet) / (s + 1.0))
            * ((n + alf + bet) / (s - 1.0)))


def duplication_check(a: float) -> float:
    """Log-scale residual of sqrt(pi) Gamma(2a) = 2^(2a-1) Gamma(a) Gamma(a+1/2)."""
    if a <= 0.0:
        raise ParameterError(f"a must be > 0, got {a}")
    lhs = 0.5 * math.log(math.pi) + math.lgamma(2.0 * a)
    rhs = (2.0 * a - 1.0) * math.log(2.0) + math.lgamma(a) + math.lgamma(a + 0.5)
    return abs(lhs - rhs)


def rising_table(a: float, n: int) -> np.ndarray:
    """(a)_0 .. (a)_n, each the product of its predecessor and a + k."""
    table = np.ones(n + 1)
    np.cumprod(a + np.arange(n, dtype=float), out=table[1:])
    return table


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
    lhs = np.where(ns == 0, 1.0, 2.0 * rising_table(2.0 * lam, 2 * top)[2 * k - 1]
                   / rising_table(lam + 0.5, top)[k - 1])
    rhs = 4.0**ns * rising_table(lam, top)[ns]
    return as_shape(np.abs(lhs - rhs) / np.abs(rhs), ns.shape)


def hypergeometric_sum(upper: tuple, lower: tuple, w: float, cap: int = 2048) -> float:
    """sum_n t_n with t_0 = 1 and t_{n+1} / t_n = w prod_i (upper_i + n) /
    (lower_i + n), upper and lower of one length (lower holds the 1 of n!),
    one term at a time.

    It stops at the first K >= 1 whose tail bound is at most 2^-53
    |sum_{n<K} t_n|: when every lower_i + K > 0 each factor (a + n)/(b + n)
    is monotone in n >= K and tends to 1, so |t_{n+1}/t_n| <= R_K = |w|
    prod_i max(1, |upper_i + K| / (lower_i + K)) and the tail is at most
    |t_K| / (1 - R_K) where R_K < 1.  With no such K it sums cap terms.
    """
    total, term = 0.0, 1.0
    for k in range(1, cap):  # term is t_{k-1}
        n = float(k - 1)
        total += term
        term *= math.prod(a + n for a in upper) * w / math.prod(b + n for b in lower)
        if all(b + k > 0.0 for b in lower):
            slack = 1.0 - abs(w) * math.prod(max(1.0, abs(a + k) / abs(b + k))
                                             for a, b in zip(upper, lower))
            if abs(term) <= 2.0**-53 * abs(total) * slack:
                return total
    return total + term


def gauss_2f1(upper: tuple, lower: float, argument):
    """Plain 2F1 series sum_n (u1)_n (u2)_n / ((l)_n n!) * argument^n by
    hypergeometric_sum, for a float argument or each element of an array.
    The series needs |argument| < 1 and a lower parameter that is not a
    non-positive integer."""
    args = np.asarray(argument, dtype=float)
    if np.any(np.abs(args) >= 1.0):
        raise DomainError(f"2F1 series needs |argument| < 1, got {argument}")
    if lower <= 0.0 and math.floor(lower) == lower:
        raise ParameterError(f"lower parameter {lower} is a non-positive integer")
    values = [hypergeometric_sum(upper, (lower, 1.0), w) for w in args.ravel().tolist()]
    return as_shape(values, args.shape)


def one_f_zero_reduction(lam: float, y):
    """Residual of the binomial series sum_n (lam)_n y^n / n! = (1-y)^(-lam),
    for a float y or each element of an array, by hypergeometric_sum."""
    ys = np.asarray(y, dtype=float)
    if np.any(np.abs(ys) >= 1.0):
        raise DomainError(f"|y| must be < 1, got {y}")
    residuals = [abs(hypergeometric_sum((lam,), (1.0,), v) - (1.0 - v) ** -lam)
                 for v in ys.ravel().tolist()]
    return as_shape(residuals, ys.shape)


def gegenbauer_sequence(lam: float, size: int) -> JacobiSzegoSequence:
    """Monic Gegenbauer coefficients, weight (1-x^2)^(lam-1/2), for
    n = 0 .. size - 1.  omega_1 = 1 / (2 (1 + lam)) is the tail formula at
    n = 1 with the factor lam cancelled, so it stays finite as lam -> 0."""
    n2 = np.maximum(np.arange(size, dtype=float), 2.0)
    omegas = n2 * (n2 + 2.0 * lam - 1.0) / (4.0 * (n2 + lam) * (n2 + lam - 1.0))
    omegas[:1] = 1.0
    omegas[1:2] = 1.0 / (2.0 * (1.0 + lam))
    return JacobiSzegoSequence(np.zeros(size), omegas)


def _principal_power(w, expo):
    return np.exp(expo * np.log(np.asarray(w, dtype=complex)))


def _series_identity(lam, seq, z, x, z_scale, x_scale, closed):
    """|series - closed| of a generating-function identity on the (Z, X) grid
    of z and x, scalars or 1-D arrays (scalars give a float).  The series
    sums (lam)_n/n! P_n(x / x_scale) (z_scale z)^n with the table seq, one
    psi_series_stack call; closed(z, x) is the closed side on arrays that
    broadcast to the grid."""
    zs, xs = np.asarray(z), np.asarray(x, dtype=float)
    series = psi_series_stack(seq, [lam], z_scale * zs.ravel(), [xs.ravel() / x_scale])[0]
    values = closed(zs.reshape(-1, 1), xs.reshape(1, -1))
    return as_shape(np.abs(series.value - values), zs.shape + xs.shape)


def gegenbauer_gf_check(lam: float, z, x):
    """Residual of sum_n 2^n (lam)_n/n! C_n(x) z^n = (1 - 2zx + z^2)^(-lam)."""
    if np.any(np.abs(np.asarray(x)) > 1.0):
        raise ParameterError(f"|x| must be <= 1, got {x}")
    if np.any(np.abs(np.asarray(z)) > 0.3):
        raise DomainError(f"|z| must be <= 0.3, got {np.abs(z).max()}")
    return _series_identity(lam, gegenbauer_sequence(lam, SERIES_CAP), z, x, 2.0, 1.0,
                            lambda zg, xg: _principal_power(1.0 - 2.0 * zg * xg + zg * zg, -lam))


def tilde_gegenbauer_identity(lam: float, z, x):
    """Residual of the scaled Gegenbauer generating function (sym1's psi).

    The polynomials are sqrt(2(1+lam))^n C_n(x / sqrt(2(1+lam))) and the
    closed form is (1 - zx + (1+lam) z^2 / 2)^(-lam).
    """
    scale = math.sqrt(2.0 * (1.0 + lam))
    return _series_identity(lam, gegenbauer_sequence(lam, SERIES_CAP), z, x, scale, scale,
                            lambda zg, xg: _principal_power(
                                1.0 - zg * xg + 0.5 * (1.0 + lam) * zg * zg, -lam))


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
    return _series_identity(lam, gegenbauer_sequence(lam - 1.0, SERIES_CAP), z, x, scale, scale,
                            lambda zg, xg: (1.0 - 0.5 * lam * zg * zg) * _principal_power(
                                1.0 - zg * xg + 0.5 * lam * zg * zg, -lam))


def jacobi_2f1_gf_check(lam: float, t, y):
    """Residual of sum_n (lam)_n/n! p_n^{(l-1/2, l-3/2)}(y) (2t)^n
    = (1+t)/(1 + t^2 - 2ty)^lam."""
    if np.any(np.abs(np.asarray(t)) >= 0.3):
        raise DomainError(f"|t| must be < 0.3, got {t}")
    if np.any(np.abs(np.asarray(y)) >= 1.0):
        raise DomainError(f"|y| must be < 1, got {y}")
    seq = jacobi_sequence(lam - 0.5, lam - 1.5, SERIES_CAP)
    return _series_identity(lam, seq, t, y, 2.0, 1.0, lambda tg, yg: (
        1.0 + tg) * (1.0 + tg * tg - 2.0 * tg * yg) ** (-lam))


def two_f_one_collapse_check(lam: float, t, y):
    """Residual of the hypergeometric prefactor form against its collapse.

    With (alf, bet) = (lam-1/2, lam-3/2) the first numerator parameter
    (alf+bet+1)/2 equals the denominator parameter bet+1, so

        (1+t)^(-(alf+bet+1)) 2F1((alf+bet+1)/2, (alf+bet+2)/2; bet+1; w)

    with w = 2(y+1)t/(1+t)^2 reduces to (1+t)/(1 + t^2 - 2ty)^lam.  The left
    side is summed as a genuine 2F1 series (no term cancellation assumed),
    on the (T, Y) grid of t and y, floats or 1-D arrays.
    """
    if np.any(np.abs(t) >= 0.3):
        raise DomainError(f"|t| must be < 0.3, got {t}")
    if np.any(np.abs(y) >= 1.0):
        raise DomainError(f"|y| must be < 1, got {y}")
    alf, bet = lam - 0.5, lam - 1.5
    tg = np.atleast_1d(np.asarray(t, dtype=float))[:, None]
    yg = np.atleast_1d(np.asarray(y, dtype=float))
    w = 2.0 * (yg + 1.0) * tg / (1.0 + tg) ** 2
    lhs = (1.0 + tg) ** -(alf + bet + 1.0) * gauss_2f1(
        (0.5 * (alf + bet + 1.0), 0.5 * (alf + bet + 2.0)), bet + 1.0, w)
    rhs = (1.0 + tg) * (1.0 + tg * tg - 2.0 * tg * yg) ** -lam
    return as_shape(np.abs(lhs - rhs), np.shape(t) + np.shape(y))


def nonsym_prefactor_psi(sign: float, lam: float, z, x: float) -> complex:
    """psi(z, x) of the non-symmetric family of sign (+1 for nonsym-plus, -1
    for nonsym-minus) at one point, as the rational-prefactor display

        sgn (l/r) (z + sgn r/l) [1 - z(x - sgn/r) + l^2 z^2 / r^2]^(-l),

    r = sqrt(2l - 1), principal branch: the paper's form, transcribed apart
    from the package's coefficients."""
    root = math.sqrt(2.0 * lam - 1.0)
    w = 1.0 - z * (x - sign / root) + lam * lam / (2.0 * lam - 1.0) * z * z
    return complex(sign * (lam / root) * (z + sign * root / lam) * _principal_power(w, -lam))


def closed_f(cf, z):
    """f(z) = 1/z + c1 + c2 z of the closed form cf (z f = 1 + c1 z + c2 z^2),
    elementwise at a scalar or array z."""
    _, c1, c2 = cf.zf_coeffs
    return 1.0 / z + c1 + c2 * z


def closed_u(cf, z):
    """u(z) = z^lambda / N(z) of the closed form cf, principal branch,
    elementwise at a scalar or array z."""
    return np.power(np.asarray(z, dtype=complex), cf.lam) / cf.numerator(z)


def _relative(terms) -> np.ndarray:
    """|sum of terms| / sum of |terms|, elementwise: 0 where every term is 0."""
    total = sum(np.abs(t) for t in terms)
    return np.abs(sum(terms)) / np.where(total == 0, 1.0, total)


def riccati_point_residual(cf, z) -> np.ndarray:
    """The Riccati equation Q_2 f' = f^2 - Q_1 f + R_1 of cf at the points z,
    with Q_2, Q_1 and R_1 written out from the paper in cf's own lambda,
    alpha_1 and omega_2: its residual relative to its terms, elementwise."""
    z = np.asarray(z, dtype=complex)
    lam, a1, w2 = cf.lam, cf.alpha1, cf.omega2
    f, f_prime = closed_f(cf, z), cf.zf_coeffs[2] - 1.0 / (z * z)
    q2 = -1.0 - lam * a1 * z + lam * (lam - 0.5 * (lam + 1.0) * w2) * z * z
    q1 = a1 + (lam + 1.0) * w2 * z
    r1 = -1.0 + 0.5 * lam * (lam + 1.0) * w2 * z * z
    return _relative([q2 * f_prime, -f * f, q1 * f, -r1])


def _log_derivative_u(cf, z):
    """u'/u = lambda / z - N'/N of u = z^lambda / N."""
    _, d1, d2 = cf.numerator_coeffs
    return cf.lam / z - (d1 + 2.0 * d2 * z) / cf.numerator(z)


def u_point_residual(cf, z) -> np.ndarray:
    """u'/u = lambda (1 - f') / (f - lambda z) of cf at the points z, relative
    to its two sides, elementwise."""
    z = np.asarray(z, dtype=complex)
    f_prime = cf.zf_coeffs[2] - 1.0 / (z * z)
    return _relative([_log_derivative_u(cf, z),
                      -cf.lam * (1.0 - f_prime) / (closed_f(cf, z) - cf.lam * z)])


def moment_ode_point_residual(cf, seq, z) -> np.ndarray:
    """d/dz [(lambda z f - m2) u] = lambda (1 - lambda) z u f' of cf and the
    table seq at the points z, m2 = lambda (lambda+1)/2 omega_2 z^2 + lambda
    alpha_1 z + 1 with the table's alpha_1 and omega_2: divided by u and
    relative to its terms, elementwise."""
    z = np.asarray(z, dtype=complex)
    lam, a1, w2 = cf.lam, seq.alphas[1], seq.omegas[2]
    _, c1, c2 = cf.zf_coeffs
    log_u = _log_derivative_u(cf, z)
    # h = lambda z f - m2 enters by its two parts, so that their rounding is
    # weighed against them where h itself is 0 (lambda = 1)
    lam_zf, lam_zf_prime = lam * (1.0 + c1 * z + c2 * z * z), lam * (c1 + 2.0 * c2 * z)
    m2 = 0.5 * lam * (lam + 1.0) * w2 * z * z + lam * a1 * z + 1.0
    m2_prime = lam * (lam + 1.0) * w2 * z + lam * a1
    return _relative([lam_zf_prime, -m2_prime, lam_zf * log_u, -m2 * log_u,
                      -lam * (1.0 - lam) * z * (c2 - 1.0 / (z * z))])


def psi_closed(cf, z, x: float) -> complex:
    """psi(z, x) = 1 / (u(z) (f(z) - x)^lambda) at one point, as the literal
    product of the closed form cf, principal branch, with no guards: the
    route that psi_analytic's factorization replaces."""
    z = complex(z)
    return 1.0 / (complex(closed_u(cf, z)) * cmath.exp(cf.lam * cmath.log(closed_f(cf, z) - x)))


def pochhammer_over_factorial(lam: float) -> Iterator[float]:
    """Yield (lam)_n / n! for n = 0, 1, ... by the ratio recurrence."""
    c = 1.0
    for n in itertools.count():
        yield c
        c *= (lam + n) / (n + 1.0)


def growth_factors(seq, xs, count: int) -> list[float]:
    """rho_0 .. rho_{count-1} over the points xs, in plain Python floats:
    rho_n = (Dbar_n + sqrt(Dbar_n^2 + 4 Wbar_n)) / 2 from the suffix maxima
    of D_n = max |x - alpha_n| and |omega_n|, the table's last entry
    standing in past its end."""
    lo, hi = min(xs), max(xs)
    d = [max(hi - a, a - lo) for a in seq.alphas.tolist()]
    d_bar = list(itertools.accumulate(d[::-1], max))[::-1]
    w_bar = list(itertools.accumulate([abs(w) for w in seq.omegas.tolist()][::-1], max))[::-1]
    rho = [0.5 * (db + math.sqrt(db * db + 4.0 * wb)) for db, wb in zip(d_bar, w_bar)]
    return [rho[min(k, len(rho) - 1)] for k in range(count)]


def recurrence_term_count(seq, lam: float, xs, r: float, count: int) -> tuple[int, float]:
    """Term count and tail bound of psi's series at |z| <= r over the points
    xs under the recurrence majorant M_0 = 1, M_{n+1} = D_n M_n + |omega_n|
    M_{n-1}: the first K >= 1 with q_K < 1, lam + K > 0 and
    c_K max(M_K, rho_K M_{K-1}) r^K / (1 - q_K) <= 2^-53 sum_{n<K} c_n M_n r^n,
    or (count, inf), with q_K = max(1, (lam+K)/(K+1)) rho_K r."""
    lo, hi = min(xs), max(xs)
    d = [max(hi - a, a - lo) for a in seq.alphas.tolist()]
    w = [abs(o) for o in seq.omegas.tolist()]
    rho = growth_factors(seq, xs, count + 1)
    total, m_prev, m = 0.0, 0.0, 1.0
    for k, c in zip(range(count + 1), pochhammer_over_factorial(lam)):
        j, g = min(k, len(d) - 1), rho[k] * r
        q = max(1.0, (lam + k) / (k + 1.0)) * g
        if k and q < 1.0 and lam + k > 0.0:
            tail = c * max(m, g * m_prev) / (1.0 - q)
            if tail <= 2.0**-53 * total:
                return k, tail
        total += c * m
        m_prev, m = m, r * (d[j] * m + r * w[j] * m_prev)
    return count, math.inf
