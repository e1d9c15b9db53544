"""Catalog of the classified probability measures, as coefficient tables.

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
                alpha_n = a (n >= 1), omega_n = 1 + b (n >= 2); it may carry
                atoms at the real zeros of 1 + a x + b x^2.

A law is represented by its Jacobi-Szego coefficient table (family_sequence)
alone, and gauss_quadrature is the one route from a table, or a stack of
them, to Gauss rules (Golub and Welsch, 1969); a symmetric table's rule of
more than DENSE_EIGH_MAX_ORDER nodes comes from a matrix of half its order.
No density or normalization constant is stored: the rule needs only the
recurrence, so it exists wherever the table is finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import families
from .errors import NumericalBreakdownError, ParameterError
from .families import Family
from .recurrence import JacobiSzegoSequence

# Largest order of a matrix numpy's dense eigh solves (a Gauss order, or half
# a symmetric one), so that verify, classify and small exports never import
# scipy: the dense O(n^3) solver is the faster one up to about 30 nodes.
DENSE_EIGH_MAX_ORDER = 30


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule: nodes in the support, positive weights summing to 1."""

    nodes: np.ndarray
    weights: np.ndarray

    def csv_text(self, header_comment: str) -> str:
        """The rule as CSV: a `# header_comment` line, then `node,weight`
        rows with 17 significant digits."""
        rows = "".join(f"{x:.17g},{w:.17g}\n" for x, w in zip(self.nodes, self.weights))
        return f"# {header_comment}\nnode,weight\n{rows}"


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
    # head is written over the result.  At huge lambda they overflow to inf
    # and nan, silently: the callers' guards report the non-finite entries.
    n1, n2 = np.maximum(n, 1.0), np.maximum(n, 2.0)
    alphas = np.zeros(size)
    with np.errstate(over="ignore", invalid="ignore"):
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


def _support_points(seq: JacobiSzegoSequence) -> int:
    """Support points of the measure of seq (the most of a stack's rows), or
    the table length if it has at least that many: the first n with omega_n
    <= 0, as P_n vanishes on the support of a measure of exactly n points."""
    bad = seq.omegas <= 0.0
    return int(np.where(bad.any(axis=-1), bad.argmax(axis=-1), bad.shape[-1]).max())


def _eigh(diag, offdiag):
    """Eigenvalues and eigenvector columns of symmetric tridiagonal matrices:
    a batched dense eigh up to DENSE_EIGH_MAX_ORDER, else eigh_tridiagonal."""
    order = diag.shape[-1]
    if order > DENSE_EIGH_MAX_ORDER:
        import scipy.linalg

        return scipy.linalg.eigh_tridiagonal(diag, offdiag)
    # eigh reads the lower triangle: diag and the subdiagonal
    matrix = diag[..., None] * np.eye(order)
    matrix[..., range(1, order), range(order - 1)] = offdiag
    return np.linalg.eigh(matrix, UPLO="L")


def _rule(alphas, omegas):
    """Nodes and weights of Jacobi matrices: a stack up to DENSE_EIGH_MAX_ORDER,
    one table above it.  There a table with every alpha 0 permutes (even/odd)
    to [[0, B], [B^T, 0]], B bidiagonal (Golub and Kahan, 1965); each eigenpair
    (theta, u) of T = B B^T / 4^k, of order ceil(order / 2), gives the nodes
    +-2^k ||B^T u|| (sqrt(theta) loses the small ones) of weight u_0^2 / 2, and
    an odd order's zero mode the node 0.0 of weight u_0^2."""
    order = alphas.shape[-1]
    if order <= DENSE_EIGH_MAX_ORDER or alphas.any():
        nodes, vectors = _eigh(alphas, np.sqrt(omegas[..., 1:]))
        return nodes, vectors[..., 0, :] ** 2
    odd, k = order % 2, np.frexp(omegas.max())[1] // 2  # w = omega / 4^k: T cannot overflow
    w = np.ldexp(np.concatenate(([0.0], omegas[1:], [0.0] * (1 + odd))), -2 * k)
    root = np.sqrt(w)
    u = _eigh(w[0:-1:2] + w[1::2], root[1:-2:2] * root[2:-1:2])[1]
    v = np.vstack((u, np.zeros_like(u[0])))  # u_m = 0
    sigma = np.linalg.norm(root[1::2, None] * v[:-1] + root[2::2, None] * v[1:], axis=0)
    sigma, half = np.ldexp(sigma[odd:], k), u[0, odd:] ** 2 / 2
    return (np.concatenate((-sigma[::-1], [0.0] * odd, sigma)),
            np.concatenate((half[::-1], u[0, :odd] ** 2, half)))


def gauss_quadrature(seq: JacobiSzegoSequence, order: int) -> QuadratureRule:
    """Gauss rule of `order` nodes from the first `order` coefficients of
    seq, one rule per row of a stack (nodes and weights of shape (C, order)).

    Nodes are the eigenvalues of the order x order symmetric Jacobi matrix;
    weights are the squared first components of the normalized eigenvectors
    (total mass omega_0 = 1).  Up to DENSE_EIGH_MAX_ORDER one batched dense
    eigh serves every row, bit for bit each row's own rule; larger orders
    solve row by row, a row with every alpha 0 from a matrix of half the
    order (see _rule).  order must lie in 1 .. N; a non-finite coefficient
    among the first `order`, or an omega <= 0, raises the error of the first
    row that has one before either solver runs.
    """
    if order < 1:
        raise ParameterError(f"order must be >= 1, got {order}")
    size = seq.alphas.shape[-1]
    if order > size:
        raise ParameterError(f"order {order} exceeds the {size} coefficients of the table")
    diag, omegas = seq.alphas[..., :order], seq.omegas[..., :order]
    finite = np.isfinite(diag) & np.isfinite(omegas)
    bad = ~finite.all(axis=-1) | (omegas[..., 1:] <= 0.0).any(axis=-1)
    # the first row with a bad entry (else row 0) is checked as a table
    row = np.unravel_index(np.argmax(bad), bad.shape)
    d, w = diag[row], omegas[row]
    if not finite[row].all():
        n = int(np.argmin(finite[row]))
        name, value = ("alpha", d[n]) if not np.isfinite(d[n]) else ("omega", w[n])
        raise NumericalBreakdownError(
            f"{name}_{n} = {value} is not finite: no Gauss rule of order {order}", index=n)
    if bad.any():
        n = int(np.argmax(w[1:] <= 0.0)) + 1
        raise NumericalBreakdownError(
            f"omega_{n} <= 0: the measure has fewer than {order} support points", index=n)
    try:
        if order <= DENSE_EIGH_MAX_ORDER:
            nodes, weights = _rule(diag, omegas)
        else:
            rules = [_rule(d, w) for d, w in
                     zip(diag.reshape(-1, order), omegas.reshape(-1, order))]
            nodes, weights = (np.reshape(part, diag.shape) for part in zip(*rules))
    except np.linalg.LinAlgError as exc:  # scipy.linalg raises the same class
        raise NumericalBreakdownError(
            "eigen-solver failed on the Jacobi matrix "
            f"(order={order}, |diag|_max={np.abs(diag).max():.3e}, "
            f"|offdiag|_max={np.sqrt(omegas[..., 1:].max()):.3e})"
        ) from exc
    return QuadratureRule(nodes=nodes, weights=weights)
