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

A law is represented by its Jacobi-Szego coefficient table (family_sequence,
families.table_entries tabulated under the standardized head) alone, and
gauss_quadrature, the only code that knows stacks, is the one route from a
table or a stack of them to Gauss rules (Golub and Welsch, 1969): one
batched dense eigh up to DENSE_EIGH_MAX_ORDER nodes unless a row
is past the closed form's ratio guard, and otherwise each row as a table of
its own.  Above DENSE_EIGH_MAX_ORDER a table constant from alpha_1 and
omega_2 on (free Meixner) has its rule in closed form, in O(n), a
symmetric table's comes from a matrix of half its order, and any other
table's from LAPACK's eigenvectors.  Where that eigenvector matrix would
have NEWTON_RULE_MIN_ORDER rows (399 nodes for a symmetric table), and past
the ratio guard at any order, the eigenvalues alone, one Newton step and
Christoffel weights give the rule if it passes a moment check.  On every
route an extreme weight below the smallest double is 0.  No density or
normalization constant is stored: the rule needs only the recurrence, so it
exists wherever the table is finite.
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
# a symmetric one), so that verify, classify and small exports need no scipy:
# dense O(n^3) is the faster one up to ~30 nodes.
DENSE_EIGH_MAX_ORDER = 30


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule: nodes in the support, weights summing to 1, positive but
    for extreme ones below the smallest double, which are 0."""

    nodes: np.ndarray
    weights: np.ndarray

    def csv_text(self, header_comment: str) -> str:
        """The rule as CSV: a `# header_comment` line, then `node,weight`
        rows with 17 significant digits, formatted in one % operation."""
        pairs = np.column_stack((self.nodes, self.weights)).ravel().tolist()
        return f"# {header_comment}\nnode,weight\n" + "%.17g,%.17g\n" * self.nodes.size % tuple(pairs)


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
    # head is written over the result.  Where n + 2 lambda overflows they are
    # inf or nan, silently: the callers' guards report the non-finite entries.
    with np.errstate(over="ignore", invalid="ignore"):
        alphas, omegas = families.table_entries(family, lam, a, b, np.maximum(n, 1.0),
                                                np.maximum(n, 2.0))
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


# A table whose omega_2 exceeds this multiple of omega_1 skips the closed form:
# _constant_tail_rule places a node near the band's centre only to about eps c,
# where the weights change on the scale of sqrt(omega_1) and |alpha - alpha_0|,
# so past it the closed form's weights fall behind LAPACK's (against a
# long-double reference: 1.2e-10 against 3e-11 relative at omega_2 = 1e10
# omega_1, order 32).
CLOSED_FORM_MAX_OMEGA_RATIO = 1e8


def _band_weights(sin_n, sin_m, u, sums, r, scale):
    """Christoffel weights 1 / (1 + r sums / sin^2 nt) of band nodes, where
    sin_m = sin (n-1)t and sums = sum_{i<n} sin^2 it.  Where the node is so
    near a pole that sin nt is the less accurate factor (its error over its
    size against that of u = shift + 2 cos t, |shift| + 2 = scale, and of
    sin (n-1)t), sin nt = r sin (n-1)t / u, exact at a node, replaces it."""
    swap = np.abs(sin_m * u) > np.abs(sin_n) * (np.abs(u) + scale * np.abs(sin_m))
    ratio = np.divide(sin_m, u, out=np.zeros_like(u), where=swap)
    return np.where(swap, r * ratio**2 / (r * ratio**2 + sums), sin_n**2 / (sin_n**2 + r * sums))


def _edge_node(shift, r, n):
    """(y, weight) of the node of _constant_tail_rule nearest the band edge
    y = 2, at x = alpha + c y with y = 2 - w.  w is the root of g(w) = shift +
    2 - w - r R(w), where R = sin (n-1)t / sin nt with w = 4 sin^2(t/2) > 0,
    R = sinh (n-1)e / sinh ne with w = -4 sinh^2(e/2) < 0, and R = (n-1)/n at
    w = 0: g is analytic in w and decreases from g(min(0, shift + 2 - r)) > 0
    to -inf at the pole w = 4 sin^2(pi/(2n)), so a bracketed search finds
    it, through the band edge at the threshold g(0) = 0 too."""
    def g(w):
        if w > 0.0:
            t = 2.0 * math.asin(math.sqrt(w) / 2.0)
            sin_n = math.sin(n * t)
            ratio = math.sin((n - 1) * t) / sin_n if sin_n > 0.0 else math.inf
        else:
            e = 2.0 * math.asinh(math.sqrt(-w) / 2.0)
            ratio = (math.exp(-e) * math.expm1(-2.0 * (n - 1) * e) / math.expm1(-2.0 * n * e)
                     if e else (n - 1) / n)
        return shift + 2.0 - w - r * ratio

    # regula falsi with the Illinois halving, bisecting while g(hi) = -inf
    pole = 4.0 * math.sin(math.pi / (2 * n)) ** 2
    lo, hi = min(0.0, shift + 2.0 - r), pole
    g_lo, g_hi, moved = g(lo), -math.inf, 0
    while hi - lo > 2.0**-52 * max(-lo, hi, pole):
        mid = (lo * g_hi - hi * g_lo) / (g_hi - g_lo) if g_hi > -math.inf else lo
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
        value = g(mid)
        if value > 0.0:
            lo, g_lo, g_hi = mid, value, g_hi / 2.0 if moved > 0 else g_hi
            moved = 1
        else:
            hi, g_hi, g_lo = mid, value, g_lo / 2.0 if moved < 0 else g_lo
            moved = -1
    i = np.arange(1.0, n)
    if hi > 0.0:
        t = 2.0 * math.asin(math.sqrt(hi) / 2.0)
        weight = _band_weights(np.sin(n * t), np.sin((n - 1) * t), np.asarray(shift + 2.0 - hi),
                               (np.sin(i * t) ** 2).sum(), r, abs(shift) + 2.0)
        return 2.0 - hi, float(weight)
    # outside the band: sinh(ie) / sinh(ne), scaled by e^(-ne); i / n at e = 0
    e = 2.0 * math.asinh(math.sqrt(-hi) / 2.0)
    ratio = np.exp((i - n) * e) * np.expm1(-2.0 * i * e) / math.expm1(-2.0 * n * e) if e else i / n
    return 2.0 - hi, 1.0 / (1.0 + r * (ratio * ratio).sum())


def _constant_tail_rule(alpha0, alpha, omega1, omega2, n):
    """Gauss rule of n > 2 nodes of a table whose alpha_1 .. alpha_{n-1} all
    equal alpha and omega_2 .. omega_{n-1} all equal c^2 = omega2, in O(n)
    and without eigenvectors.

    With x = alpha + 2c cos t, the monic P_m = c^(m-2) G_m(t) / sin t for
    m >= 1, G_m = c (x - alpha0) sin mt - omega1 sin (m-1)t: P_1 and P_2 are
    of this form, and so is every Chebyshev-U combination obeying P_{m+1} =
    (x - alpha) P_m - c^2 P_{m-1}.  Over c^2, G_n = 0 reads u sin nt =
    r sin (n-1)t with u = s + 2 cos t, s = (alpha - alpha0) / c and r =
    omega1 / c^2: a node solves L(t) = u / r = sin (n-1)t / sin nt = R(t),
    and L decreases in t.

    Every node is bracketed.  Between consecutive poles j pi / n, R increases:
    the numerator of its derivative is [(2n-1) sin t - sin (2n-1)t] / 2 >= 0.
    So each of the n - 2 inner intervals holds exactly one node.  The interval
    (0, pi/n) holds one iff L(0) > (n-1)/n = R(0+); otherwise one node lies
    right of the band, at x = alpha + 2c cosh e, where L = S(e) =
    sinh (n-1)e / sinh ne has exactly one root (L increases in e, and S
    decreases from (n-1)/n to 0).  Mirrored, ((n-1)pi/n, pi) holds a node iff
    L(pi) < -(n-1)/n, and otherwise one lies at x = alpha - 2c cosh e, where
    L = -S(e).  So there are always exactly n nodes, and the nodes outside
    the band are the atoms' nodes.  _edge_node finds either edge node.

    Weights: at a node G_{n-1} = omega1 sin^2 t / sin nt, so the Christoffel-
    Darboux form lambda = ||P_{n-1}||^2 / (P_n' P_{n-1}) becomes lambda =
    1 / (1 + r sum_{i<n} sin^2 it / sin^2 nt), with no power of c left; the
    sum is [(2n-1) - sin (2n-1)t / sin t] / 4 (summed term by term at the
    edge, where that cancels), and outside the band the sinh analogue.

    The left half is solved mirrored (s -> -s, t -> pi - t), never from a
    rounded t, or at s = 0 is the right half mirrored (an odd order's middle
    y 0.0: exactly antisymmetric at alpha = 0).  An inner node of interval j
    is found in its phase p = nt - j pi in (0, pi), where f(p) = u sin p -
    r sin (p - t) falls from r sin(j pi/n) > 0 to -r sin((j+1) pi/n) < 0:
    Newton's method from the atan2 fixed point of f = (u - r cos t) sin p +
    r sin t cos p, kept in the bracket by bisection."""
    c = math.sqrt(omega2)
    s, r = (alpha - alpha0) / c, omega1 / omega2
    half = n // 2
    # inner intervals j = 1 .. half - 1 right of the centre, 1 .. n - half - 1 mirrored
    shift = np.repeat([s, -s], [half - 1, n - half - 1])
    j_pi = np.concatenate((np.arange(1, half), np.arange(1, n - half))) * math.pi

    def terms(phase):
        t = (j_pi + phase) / n
        fold = np.minimum(phase, math.pi - phase)  # sin p is 0 at p = pi exactly
        cos_p = np.where(phase > 0.5 * math.pi, -1.0, 1.0) * np.cos(fold)
        return t, shift + 2.0 * np.cos(t), np.sin(fold), cos_p

    t = (j_pi + 0.5 * math.pi) / n
    phase = np.arctan2(r * np.sin(t), r * np.cos(t) - shift - 2.0 * np.cos(t))
    lo, hi = np.zeros_like(phase), np.full_like(phase, math.pi)
    for _ in range(100):
        t, u, sin_p, cos_p = terms(phase)
        f = u * sin_p - r * np.sin(phase - t)
        df = u * cos_p - r * (1.0 - 1.0 / n) * np.cos(phase - t) - 2.0 * np.sin(t) * sin_p / n
        lo, hi = np.where(f > 0.0, phase, lo), np.where(f > 0.0, hi, phase)
        new = phase - np.divide(f, df, out=np.full_like(f, np.inf), where=df < 0.0)
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        # converged: a step below 1e-14, or f at its rounding floor
        done = ((np.abs(new - phase) <= 1e-14) | (np.abs(f) <= 2.0**-49 * (np.abs(u) + r))).all()
        phase = new
        if done:
            break
    t, u, sin_p, _ = terms(phase)
    sums = ((2 * n - 1) - np.sin(2.0 * phase - t) / np.sin(t)) / 4.0
    inner_y = 2.0 * np.cos(t)
    inner_w = _band_weights(sin_p, np.sin(phase - t), u, sums, r, abs(s) + 2.0)
    (right_y, right_w), (left_y, left_w) = _edge_node(s, r, n), _edge_node(-s, r, n)
    right, left = slice(half - 2, None, -1), slice(half - 1, None)
    y = np.concatenate(([-left_y], -inner_y[left], inner_y[right], [right_y]))
    w = np.concatenate(([left_w], inner_w[left], inner_w[right], [right_w]))
    if s == 0.0:
        y[:half], w[:half] = -y[:n - half - 1:-1], w[:n - half - 1:-1]
        y[half:n - half] = 0.0
    return alpha + c * y, w


def _closed_form_table(alphas, omegas):
    """A table for _constant_tail_rule: constant from alpha_1 and omega_2 on,
    with omega_2 at most CLOSED_FORM_MAX_OMEGA_RATIO omega_1."""
    return bool((alphas[2:] == alphas[1]).all()
                and (omegas[3:] == omegas[2]).all()
                and omegas[2] <= CLOSED_FORM_MAX_OMEGA_RATIO * omegas[1])


# Lowest order of the eigenvector matrix LAPACK would compute (the Gauss order,
# or ceil(order / 2) for a table with every alpha 0) at which a table with no
# closed form tries _newton_rule (O(n) memory) first: from 200 rows LAPACK's
# m x m matrix and m^2 workspace add 0.3-0.7 MB to peak memory an export.
NEWTON_RULE_MIN_ORDER = 200
# _newton_rule accepts its rule when the sums of w, w x and w x^2 match omega_0
# = 1, alpha_0 and alpha_0^2 + omega_1 to this multiple of the sums of w, w |x|
# and w x^2, the scale of their rounding.  nonsym+- reach 7.1e-13 (lambda <=
# 0.55, order 1000); free Meixner tables with atoms missed by 0.3 to 7e9.
NEWTON_RULE_MOMENT_TOL = 1e-10
# _newton_rule rescales its recurrence every this many degrees: p would have to
# grow by 2^31 a degree to overflow in between, and then the rule fails its
# moment check.
RESCALE_DEGREES = 16


def _half_size_matrix(omegas):
    """(root, k, diag, offdiag) of a table with every alpha 0, whose Jacobi
    matrix permutes (even/odd) to [[0, B], [B^T, 0]], B bidiagonal (Golub and
    Kahan, 1965): T = B B^T / 4^k, of order ceil(n / 2), has the diagonal
    w_{2i} + w_{2i+1} and the off-diagonal root_{2i+1} root_{2i+2}, with w =
    (0, omega_1 .. omega_{n-1}, 0[, 0]) / 4^k and root = sqrt(w); 4^k keeps T
    from overflowing, and row i of B^T is root_{2i+1} e_i + root_{2i+2} e_{i+1}."""
    odd, k = omegas.size % 2, np.frexp(omegas.max())[1] // 2
    w = np.ldexp(np.concatenate(([0.0], omegas[1:], [0.0] * (1 + odd))), -2 * k)
    root = np.sqrt(w)
    return root, k, w[0:-1:2] + w[1::2], root[1:-2:2] * root[2:-1:2]


def _half_size_rule(omegas):
    """Gauss rule of a table with every alpha 0 from the eigenvectors of T
    (_half_size_matrix): each eigenpair (theta, u) gives the nodes +-2^k
    ||B^T u|| (sqrt(theta) loses the small ones) of weight u_0^2 / 2, and an
    odd order's zero mode the node 0.0 of weight u_0^2.  B^T u is formed in
    place, 64 rows at a time, so u is the one matrix of T's order."""
    odd = omegas.size % 2
    root, k, diag, offdiag = _half_size_matrix(omegas)
    u = _eigh(diag, offdiag)[1]
    first = u[0] ** 2
    # row r of B^T u is a_r u_r + b_r u_{r+1} (u_m = 0): a block reads the
    # first row of the next one before that is overwritten
    a, b = root[1::2, None], root[2:-1:2, None]
    for start in range(0, u.shape[0], 64):
        below = b[start:start + 64] * u[start + 1:start + 65]
        u[start:start + 64] *= a[start:start + 64]
        u[start:start + below.shape[0]] += below
    u *= u
    sigma, half = np.ldexp(np.sqrt(np.add.reduce(u, axis=0))[odd:], k), first[odd:] / 2
    return (np.concatenate((-sigma[::-1], [0.0] * odd, sigma)),
            np.concatenate((half[::-1], first[:odd], half)))


def _newton_rule(alphas, omegas):
    """Gauss rule of a table from its eigenvalues alone, in O(n) memory, or
    None when the rule fails its moment check (a table with atoms, where the
    forward recurrence follows the solution that grows away from them).

    The eigenvalues x of eigvalsh_tridiagonal are polished by one Newton step
    e = q / q' on the orthonormal recurrence b_{j+1} p_{j+1} = (x - alpha_j)
    p_j - b_j p_{j-1}, q = b_n p_n, and the weight is the Christoffel number
    1 / S(x - e), S = sum_{j<n} p_j^2 (Gautschi, 2004), to first order (1 +
    2 e T / S) / S with T = sum_{j<n} p_j p_j' = S' / 2, all in one pass over
    the degrees.  Every RESCALE_DEGREES degrees a node's p, p', S and T are
    divided by a power of 2 that brings max(|p|, |p'|) below 1, so the extreme
    nodes get their Newton step too, and a weight below the smallest double
    underflows to 0 with no overflow on the way.  A table with every alpha 0
    passes over its nodes >= 0 alone, 2^k sqrt(theta) from the eigenvalues of
    its half-size matrix (_half_size_matrix) and an odd order's node 0.0,
    which the Newton step keeps, and the rule is mirrored."""
    import scipy.linalg

    offdiag = np.sqrt(omegas[1:])
    symmetric, odd = not alphas.any(), alphas.size % 2
    if symmetric:
        _, power, diag, half_offdiag = _half_size_matrix(omegas)
        theta = scipy.linalg.eigvalsh_tridiagonal(diag, half_offdiag)
        x = np.concatenate(([0.0] * odd, np.ldexp(np.sqrt(theta[odd:]), power)))
    else:
        x = scipy.linalg.eigvalsh_tridiagonal(alphas, offdiag)
    # b_j with b_0 = 0, and 1 / b_{j+1} with 1 for b_n, as q = b_n p_n
    root, inverse = [0.0, *offdiag.tolist()], [*(1.0 / offdiag).tolist(), 1.0]
    # rows (p_j, p_j') in cur, (p_{j-1}, p_{j-1}') in prev, and (S, T) in sums
    prev, cur, sums = np.zeros((3, 2, x.size))
    cur[0] = 1.0
    exponent = np.zeros(x.size, dtype=int)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j, shift in enumerate(alphas.tolist()):
            if j % RESCALE_DEGREES == 0:
                k = np.maximum(np.frexp(np.abs(cur).max(axis=0))[1], 0)
                prev, cur, sums = np.ldexp(prev, -k), np.ldexp(cur, -k), np.ldexp(sums, -2 * k)
                exponent += k
            sums += cur * cur[0]
            new = cur * (x - shift)
            new[1] += cur[0]
            new -= root[j] * prev
            new *= inverse[j]
            prev, cur = cur, new
        (q, dq), (s, t) = cur, sums
        step = q / dq
        nodes = x - step
        weights = np.ldexp((1.0 + 2.0 * step * t / s) / s, -2 * exponent)
        if symmetric:
            nodes = np.concatenate((-nodes[odd:][::-1], nodes))
            weights = np.concatenate((weights[odd:][::-1], weights))
        powers = np.vander(nodes, 3, increasing=True)
        moments, absolute = powers.T @ weights, np.abs(powers).T @ weights
    exact = [1.0, alphas[0], alphas[0] ** 2 + omegas[1]]
    if weights.min() >= 0.0 and (np.abs(moments - exact) <= NEWTON_RULE_MOMENT_TOL * absolute).all():
        return nodes, weights
    return None


def _past_ratio_guard(omegas) -> bool:
    """Whether a table of order >= 3, or any row of a stack, has omega_2 above
    CLOSED_FORM_MAX_OMEGA_RATIO omega_1, where the eigenvector routes'
    weights are wrong (free Meixner at b = 1e300 reads sum w x^2 = 3 for 1)."""
    return omegas.shape[-1] >= 3 and bool(
        (omegas[..., 2] > CLOSED_FORM_MAX_OMEGA_RATIO * omegas[..., 1]).any())


def _rule(alphas, omegas):
    """Nodes and weights of one table's Jacobi matrix.  Above
    DENSE_EIGH_MAX_ORDER a constant-tail table (_closed_form_table) has its
    rule in closed form (_constant_tail_rule).  A table whose eigenvector
    matrix (of the Gauss order, or ceil(order / 2) for a table with every
    alpha 0) has at least NEWTON_RULE_MIN_ORDER rows, so a symmetric one from
    order 399, tries _newton_rule first, and so does a table past the ratio
    guard (_past_ratio_guard) at any order.  Otherwise, or when that rule
    fails its moment check (a table with atoms), a larger table with every
    alpha 0 takes _half_size_rule, and any other _eigh's eigenvectors."""
    order = alphas.size
    if order > DENSE_EIGH_MAX_ORDER and _closed_form_table(alphas, omegas):
        return _constant_tail_rule(alphas[0], alphas[1], omegas[1], omegas[2], order)
    symmetric = not alphas.any()
    rows = (order + 1) // 2 if symmetric else order
    if rows >= NEWTON_RULE_MIN_ORDER or _past_ratio_guard(omegas):
        rule = _newton_rule(alphas, omegas)
        if rule is not None:
            return rule
    if order <= DENSE_EIGH_MAX_ORDER or not symmetric:
        nodes, vectors = _eigh(alphas, np.sqrt(omegas[1:]))
        return nodes, vectors[0] ** 2
    return _half_size_rule(omegas)


def gauss_quadrature(seq: JacobiSzegoSequence, order: int) -> QuadratureRule:
    """Gauss rule of `order` nodes from the first `order` coefficients of
    seq, one rule per row of a stack (nodes and weights of shape (C, order)).

    Nodes are the eigenvalues of the order x order symmetric Jacobi matrix;
    weights are the squared first components of the normalized eigenvectors
    (total mass omega_0 = 1).  Up to DENSE_EIGH_MAX_ORDER, with no row past
    the ratio guard (_past_ratio_guard), one batched dense eigh serves every
    row; otherwise each row takes its own route (see _rule): a constant-tail
    row in closed form, a row with every alpha 0 from a matrix of half the
    order, any other from LAPACK's eigenvectors, and a row whose eigenvector
    matrix would have NEWTON_RULE_MIN_ORDER rows (200 nodes, 399 with every
    alpha 0), or a row past the ratio guard, from its eigenvalues and
    Christoffel weights unless that rule fails its moment check.  So each
    row is bit for bit its own rule.  On every route an extreme weight below
    the smallest double is 0.  order must lie in 1 .. N; a non-finite
    coefficient among the first `order`, or an omega <= 0, raises the error
    of the first row that has one before either solver runs.
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
        if order <= DENSE_EIGH_MAX_ORDER and not _past_ratio_guard(omegas):
            nodes, vectors = _eigh(diag, np.sqrt(omegas[..., 1:]))
            weights = vectors[..., 0, :] ** 2
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
