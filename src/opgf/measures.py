"""Catalog of the classified probability measures.

Each family is a standardized (mean-0, variance-1) compactly supported law:

* sym1          Beta-type density (1 - x^2/(2(1+lambda)))^(lambda-1/2) on
                [+-sqrt(2(1+lambda))]; orthogonal polynomials are scaled monic
                Gegenbauer of parameter lambda.
* sym2          Beta-type density (1 - x^2/(2 lambda))^(lambda-3/2) on
                [+-sqrt(2 lambda)]; scaled monic Gegenbauer of parameter
                lambda - 1.
* nonsym-plus   shifted Jacobi weight with exponents (lambda-1/2, lambda-3/2)
                on [(1-2l)/sqrt(2l-1), (1+2l)/sqrt(2l-1)].
* nonsym-minus  the reflection x -> -x of nonsym-plus.
* free-meixner  the lambda = 1 family with constant recurrence tail
                alpha_n = a (n >= 1), omega_n = 1 + b (n >= 2).  Only the
                recurrence representation is used; no density is stored and
                possible atoms are flagged.

Every stored density is of the exact form

    exp(log_scale) * (hi - x)^e_hi * (x - lo)^e_lo,

which is what the normalization integrator exploits: after the substitution
x = mid + half*sin(t) and a half-angle fold, the endpoint factors become
powers of sin(phi) near phi = 0 and are evaluable to full precision
arbitrarily close to the (possibly singular, always integrable) endpoints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.integrate
import scipy.linalg

from . import families
from .errors import NumericalBreakdownError, ParameterError
from .families import Family
from .recurrence import JacobiSzegoSequence

_QUAD_TOL = 1e-12


@dataclass(frozen=True)
class MeasureSpec:
    """A classified probability measure, normalized to total mass 1.

    edge_exponents holds (e_lo, e_hi) of the density's endpoint factors and
    log_scale its constant log-prefactor; both are None/0 for free-meixner,
    whose density is not stored.
    """

    family: Family
    lam: float
    a: Optional[float]
    b: Optional[float]
    support: tuple[float, float]
    log_density: Optional[Callable[[float], float]]
    norm_const: float
    atoms_possible: bool = False
    edge_exponents: Optional[tuple[float, float]] = None
    log_scale: float = 0.0

    def density(self, x: float) -> float:
        """Normalized density at x (0 outside the open support)."""
        if self.log_density is None:
            raise ParameterError(
                f"{self.family.value} has no stored density; use its recurrence"
            )
        lo, hi = self.support
        if not lo < x < hi:
            return 0.0
        return self.norm_const * math.exp(self.log_density(x))


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule: nodes in the support, positive weights summing to 1."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def to_csv(self, path, header_comment: Optional[str] = None) -> None:
        """Write `node,weight` rows with 17 significant digits."""
        with open(path, "w", encoding="ascii") as fh:
            if header_comment is not None:
                fh.write(f"# {header_comment}\n")
            fh.write("node,weight\n")
            for x, w in zip(self.nodes, self.weights):
                fh.write(f"{x:.17g},{w:.17g}\n")


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


def build_measure(family, lam=None, a=None, b=None) -> MeasureSpec:
    """Construct the fully normalized MeasureSpec of a family."""
    family = Family(family)
    lam, a, b = families.validate_params(family, lam, a, b)
    lo, hi = families.support_interval(family, lam, a, b)

    if family is Family.FREE_MEIXNER:
        # Candidate atom locations are the real zeros of b x^2 + a x + 1.
        if b == 0.0:
            atoms = a != 0.0
        else:
            atoms = a * a - 4.0 * b >= 0.0
        return MeasureSpec(
            family=family, lam=1.0, a=a, b=b, support=(lo, hi),
            log_density=None, norm_const=1.0, atoms_possible=atoms,
        )

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

    def log_density(x: float) -> float:
        return log_scale + e_hi * math.log(hi - x) + e_lo * math.log(x - lo)

    raw_mass = math.exp(log_scale) * _edge_weighted_integral(
        lo, hi, e_lo, e_hi, lambda x: 1.0
    )
    return MeasureSpec(
        family=family, lam=lam, a=None, b=None, support=(lo, hi),
        log_density=log_density, norm_const=1.0 / raw_mass,
        edge_exponents=(e_lo, e_hi), log_scale=log_scale,
    )


def family_sequence(family, lam=None, a=None, b=None, *, size: int) -> JacobiSzegoSequence:
    """Closed-form Jacobi-Szego sequence of a family (alpha_0=0, omega_1=1),
    tabulated for n = 0 .. size - 1."""
    family = Family(family)
    lam, a, b = families.validate_params(family, lam, a, b)
    if size < 1:
        raise ParameterError(f"size must be >= 1, got {size}")
    n = np.arange(size, dtype=float)
    # The tail formulas hold for alpha_n, n >= 1, and omega_n, n >= 2, and
    # some divide by zero below that (sym2 at lambda = 2, n = 0), so they
    # are evaluated at n1 = max(n, 1) and n2 = max(n, 2) and the standardized
    # head is written over the result.
    n1, n2 = np.maximum(n, 1.0), np.maximum(n, 2.0)
    alphas = np.zeros(size)
    if family is Family.SYM1:
        omegas = (1.0 + lam) * n2 * (n2 + 2.0 * lam - 1.0) / (
            2.0 * (n2 + lam) * (n2 + lam - 1.0)
        )
    elif family is Family.SYM2:
        omegas = lam * n2 * (n2 + 2.0 * lam - 3.0) / (
            2.0 * (n2 + lam - 1.0) * (n2 + lam - 2.0)
        )
    elif family.nonsymmetric:
        sign = families.nonsym_sign(family)
        root = math.sqrt(2.0 * lam - 1.0)
        alphas = sign * (1.0 - lam * (lam - 1.0) / ((n1 + lam - 1.0) * (n1 + lam))) / root
        omegas = lam * lam * n2 * (n2 + 2.0 * lam - 2.0) / (
            (2.0 * lam - 1.0) * (n2 + lam - 1.0) ** 2
        )
    else:
        alphas = np.full(size, a)
        omegas = np.full(size, 1.0 + b)
    alphas[:1] = 0.0
    omegas[:2] = 1.0
    return JacobiSzegoSequence(alphas, omegas)


def recurrence_of(measure: MeasureSpec, size: int) -> JacobiSzegoSequence:
    """Closed-form recurrence sequence of a catalog measure, n < size."""
    return family_sequence(measure.family, None if measure.family is Family.FREE_MEIXNER
                           else measure.lam, measure.a, measure.b, size=size)


def support_size(measure: MeasureSpec, limit: int) -> int:
    """Number of support points of the measure, or limit if it has at least
    that many.

    A measure on exactly n points has omega_n = 0, since P_n vanishes on its
    support, so the count is the first n with omega_n <= 0.
    """
    hits = np.flatnonzero(recurrence_of(measure, limit).omegas <= 0.0)
    return int(hits[0]) if hits.size else limit


def gauss_quadrature(measure: MeasureSpec, order: int) -> QuadratureRule:
    """Gauss rule from the eigen-decomposition of the Jacobi matrix.

    Nodes are the eigenvalues of the order x order symmetric Jacobi matrix;
    weights are the squared first components of the normalized eigenvectors
    (total mass omega_0 = 1).
    """
    if order < 1:
        raise ParameterError(f"order must be >= 1, got {order}")
    seq = recurrence_of(measure, order)
    diag, offs = seq.alphas, seq.omegas[1:]
    if np.any(offs <= 0.0):
        bad = int(np.argmax(offs <= 0.0)) + 1
        raise NumericalBreakdownError(
            f"omega_{bad} <= 0: the measure has fewer than {order} support points",
            index=bad,
        )
    try:
        eigvals, eigvecs = scipy.linalg.eigh_tridiagonal(diag, np.sqrt(offs))
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalBreakdownError(
            "eigen-solver failed on the Jacobi matrix "
            f"(order={order}, |diag|_max={np.abs(diag).max():.3e}, "
            f"|offdiag|_max={np.sqrt(offs).max():.3e})"
        ) from exc
    weights = eigvecs[0, :] ** 2
    return QuadratureRule(nodes=eigvals, weights=weights, order=order)


def moment(measure: MeasureSpec, k: int, order: int) -> float:
    """k-th raw moment of the measure via its Gauss rule."""
    if k < 0:
        raise ParameterError(f"k must be >= 0, got {k}")
    if 2 * order - 1 < k:
        raise ParameterError(
            f"order {order} is exact only to degree {2 * order - 1} < k = {k}"
        )
    rule = gauss_quadrature(measure, order)
    return float(rule.weights @ rule.nodes**k)
