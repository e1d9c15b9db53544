"""Reference implementations the tests compare the package against.

They compute the same quantities as the package by an independent route:
adaptive Gauss-Kronrod integration against a catalog density (the package
normalizes in closed form), and the classical monic Gegenbauer and Jacobi
recurrence coefficients one index at a time (the package tabulates them as
arrays).
"""
from __future__ import annotations

import math
from typing import Callable

import scipy.integrate

from opgf import ParameterError
from opgf.measures import MeasureSpec

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


def adaptive_integral(measure: MeasureSpec, fn) -> float:
    """Adaptive integral of fn against the measure's density (tol 1e-12)."""
    if measure.edge_exponents is None:
        raise ParameterError("free-meixner carries no density to integrate against")
    lo, hi = measure.support
    e_lo, e_hi = measure.edge_exponents
    prefactor = measure.norm_const * math.exp(measure.log_scale)
    return prefactor * _edge_weighted_integral(lo, hi, e_lo, e_hi, fn)


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
