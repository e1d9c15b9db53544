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

Every stored density is a Beta law on its support: it is of the exact form

    exp(log_scale) * (hi - x)^e_hi * (x - lo)^e_lo,

so its mass is the Beta integral (DLMF 5.12)

    exp(log_scale) * (hi - lo)^(e_lo + e_hi + 1) * B(e_lo + 1, e_hi + 1),

evaluated in log-gamma form, and the normalization needs no quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from . import families
from .errors import NumericalBreakdownError, ParameterError
from .families import Family
from .recurrence import JacobiSzegoSequence


@dataclass(frozen=True)
class MeasureSpec:
    """A classified probability measure, normalized to total mass 1.

    edge_exponents holds (e_lo, e_hi) of the density's endpoint factors and
    log_scale its constant log-prefactor; both are None/0 for free-meixner,
    whose density is not stored.  The density is
    norm_const * exp(log_scale) * (hi - x)^e_hi * (x - lo)^e_lo.
    """

    family: Family
    lam: float
    a: Optional[float]
    b: Optional[float]
    support: tuple[float, float]
    norm_const: float
    atoms_possible: bool = False
    edge_exponents: Optional[tuple[float, float]] = None
    log_scale: float = 0.0

    def density(self, x: float) -> float:
        """Normalized density at x (0 outside the open support)."""
        if self.edge_exponents is None:
            raise ParameterError(
                f"{self.family.value} has no stored density; use its recurrence"
            )
        lo, hi = self.support
        if not lo < x < hi:
            return 0.0
        e_lo, e_hi = self.edge_exponents
        return self.norm_const * math.exp(
            self.log_scale + e_hi * math.log(hi - x) + e_lo * math.log(x - lo)
        )


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
            norm_const=1.0, atoms_possible=atoms,
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

    raw_mass = math.exp(
        log_scale + (e_lo + e_hi + 1.0) * math.log(hi - lo)
        + math.lgamma(e_lo + 1.0) + math.lgamma(e_hi + 1.0)
        - math.lgamma(e_lo + e_hi + 2.0)
    )
    return MeasureSpec(
        family=family, lam=lam, a=None, b=None, support=(lo, hi),
        norm_const=1.0 / raw_mass,
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


def _support_points(seq: JacobiSzegoSequence) -> int:
    """Support points of the measure of seq, or the table length if it has
    at least that many: the first n with omega_n <= 0, since P_n vanishes on
    the support of a measure on exactly n points."""
    hits = np.flatnonzero(seq.omegas <= 0.0)
    return int(hits[0]) if hits.size else seq.omegas.size


def _gauss_rule(seq: JacobiSzegoSequence, order: int) -> QuadratureRule:
    """Gauss rule of `order` nodes from the first `order` coefficients of
    seq; see gauss_quadrature."""
    diag, offs = seq.alphas[:order], seq.omegas[1:order]
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


def gauss_quadrature(measure: MeasureSpec, order: int) -> QuadratureRule:
    """Gauss rule from the eigen-decomposition of the Jacobi matrix.

    Nodes are the eigenvalues of the order x order symmetric Jacobi matrix;
    weights are the squared first components of the normalized eigenvectors
    (total mass omega_0 = 1).
    """
    if order < 1:
        raise ParameterError(f"order must be >= 1, got {order}")
    return _gauss_rule(recurrence_of(measure, order), order)


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
