"""Monic orthogonal polynomials from their three-term recurrence data.

Conventions: the monic polynomials satisfy

    x P_n(x) = P_{n+1}(x) + alpha_n P_n(x) + omega_n P_{n-1}(x),
    P_{-1} = 0,  P_0 = 1,  omega_0 = 1,

and a *standardized* sequence (mean-0, variance-1 measure) additionally has
alpha_0 = 0 and omega_1 = 1.  The squared norm of P_n under the orthogonality
measure is the product omega_1 ... omega_n (equivalently omega_0 ... omega_n,
since omega_0 = 1), by ||P_{n+1}||^2 = omega_{n+1} ||P_n||^2.

eval_monic is the one evaluator of P_0 .. P_n, for a table or for a stack of
tables of one length, one recurrence step per degree on arrays.  The
majorants (majorant_values, majorant_stack) bound |P_n| from the same tables
for the series truncation, lazily, one degree at a time.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NumericalBreakdownError, ParameterError

# Naive discrete Stieltjes is unstable in doubles past this degree.
STIELTJES_MAX_DEGREE = 40

_STANDARD_TOL = 1e-12
# Majorant entries turned into Python floats before the rest of a table: a
# term count usually reads only a few dozen of a 200-entry table.
_HEAD = 40


@dataclass(frozen=True, eq=False)
class JacobiSzegoSequence:
    """Recurrence coefficients alpha_0 .. alpha_{N-1}, omega_0 .. omega_{N-1}
    of a monic orthogonal system, held as two read-only float arrays of one
    length N >= 1.

    N coefficients give P_0 .. P_N; closed-form families are tabulated to the
    length their caller reads, and tables (e.g. from the Stieltjes procedure)
    are used as they are.
    """

    alphas: np.ndarray
    omegas: np.ndarray

    def __post_init__(self):
        for name in ("alphas", "omegas"):
            table = np.array(getattr(self, name), dtype=float)
            table.flags.writeable = False
            object.__setattr__(self, name, table)
        shape = self.alphas.shape
        if len(shape) != 1 or shape[0] == 0 or shape != self.omegas.shape:
            raise ParameterError(
                f"alphas and omegas must be 1-D of one length >= 1, got shapes "
                f"{shape} and {self.omegas.shape}"
            )
        if abs(self.omegas[0] - 1.0) > _STANDARD_TOL:
            raise ParameterError("omega_0 must be 1 by convention")

    @property
    def standardized(self) -> bool:
        """alpha_0 = 0 and omega_1 = 1: the measure has mean 0, variance 1."""
        return (self.alphas.size > 1
                and abs(self.alphas[0]) <= _STANDARD_TOL
                and abs(self.omegas[1] - 1.0) <= _STANDARD_TOL)


def eval_monic(seq, n_max: int, x) -> np.ndarray:
    """P_0 .. P_{n_max} at x by running the recurrence upward: shape
    (n_max + 1,) for a float x, (n_max + 1, X) for a 1-D array of X points.

    seq may also be a list of C tables of one length with x a (C, X) array,
    which gives (n_max + 1, C, X): row c runs the recurrence of table c, and
    each step serves every row.  A table of its own is the stack of one.  N
    coefficients give P_0 .. P_N; a degree past them raises ParameterError.
    """
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max}")
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ParameterError(f"x must be finite, got {xs[~np.isfinite(xs)][0]}")
    single = isinstance(seq, JacobiSzegoSequence)
    points = xs.reshape(1, -1) if single else xs
    alphas, omegas = _table_stack([seq] if single else seq, points)
    size = alphas.shape[1]
    if n_max > size:
        raise ParameterError(f"{size} coefficients give P_0 .. P_{size} only, not P_{size + 1}")
    # the shifts x - alpha_n of all degrees in one array operation, and
    # omega_n spread over the points: a same-shape product is faster than a
    # broadcast one
    shifts = points - alphas.T[:n_max, :, None]
    omegas = np.repeat(omegas.T[:n_max, :, None], points.shape[1], axis=-1)
    values = np.empty((n_max + 1,) + points.shape)
    values[0], p_prev = 1.0, np.zeros_like(points)
    for n in range(n_max):
        values[n + 1] = shifts[n] * values[n] - omegas[n] * p_prev
        p_prev = values[n]
    return values.reshape((n_max + 1,) + xs.shape) if single else values


def _table_stack(seqs, xs) -> tuple[np.ndarray, np.ndarray]:
    """alphas and omegas of C tables of one length N as (C, N) arrays, for
    the (C, X) points xs, one row per table."""
    sizes = [table.alphas.size for table in seqs]
    if len(set(sizes)) != 1 or xs.ndim != 2 or xs.shape[0] != len(seqs):
        raise ParameterError(
            f"a stack needs tables of one length and a (C, X) x, one row per "
            f"table; got lengths {sizes} and x of shape {xs.shape}"
        )
    return (np.array([table.alphas for table in seqs]),
            np.array([table.omegas for table in seqs]))


def majorant_values(seq: JacobiSzegoSequence, x, scale: float) -> Iterator[tuple]:
    """Yield (M_n s^n, rho_n s) for n = 0, 1, 2, ... without end, s = scale.

    M_0 = 1 and M_{n+1} = D_n M_n + |omega_n| M_{n-1}, where D_n is the
    largest |x - alpha_n| over the points x (a float or a 1-D array), bound
    the monic polynomials: |P_n(x)| <= M_n at every point, by the triangle
    inequality on the recurrence.  rho_n = (Dbar + sqrt(Dbar^2 + 4 Wbar)) / 2,
    with Dbar and Wbar the maxima of D_m and |omega_m| over the table's
    indices m >= n, solves rho^2 = Dbar rho + Wbar, so by induction

        M_m <= max(M_n, rho_n M_{n-1}) rho_n^(m - n)   for every m >= n.

    Assumption: past the end of the table the coefficients stay within the
    table's suffix maxima; its last entry stands in for them.  This is
    majorant_stack with one row.
    """
    return majorant_stack([seq], np.reshape(x, (1, -1)), scale)[0]


def majorant_stack(seqs, x_rows, scale) -> list[Iterator[tuple]]:
    """majorant_values for C tables of one length, one iterator per row: row
    c bounds table seqs[c] over the points x_rows[c], a (C, X) array, with
    one scale for every row or scale[c], a 1-D array of one per row.

    The distances D, the suffix maxima and rho of every row are formed in
    one pass of (C, N) array operations; each iterator then runs its own
    scalar recurrence for M_n, so every row equals its own majorant_values
    bit for bit.
    """
    xs = np.asarray(x_rows, dtype=float)
    alphas, omegas = _table_stack(seqs, xs)
    scales = np.full(len(seqs), scale, dtype=float)
    d = np.maximum(xs.max(axis=1)[:, None] - alphas, alphas - xs.min(axis=1)[:, None])
    w = np.abs(omegas)
    d_bar = np.maximum.accumulate(d[:, ::-1], axis=1)[:, ::-1]
    w_bar = np.maximum.accumulate(w[:, ::-1], axis=1)[:, ::-1]
    rho = (0.5 * scales[:, None]) * (d_bar + np.sqrt(d_bar * d_bar + 4.0 * w_bar))
    return [_majorant_row(*row, s) for *row, s in zip(d, w, rho, scales.tolist())]


def _majorant_row(d, w, rho, scale: float) -> Iterator[tuple]:
    """majorant_values from one row's arrays D_n, |omega_n| and rho_n s."""
    entries = itertools.chain.from_iterable(
        zip(*(a[part].tolist() for a in (d, w, rho)))
        for part in (slice(_HEAD), slice(_HEAD, None)))
    last = (d[-1].item(), w[-1].item(), rho[-1].item())
    m_prev, m = 0.0, 1.0
    for d_n, w_n, rho_n in itertools.chain(entries, itertools.repeat(last)):
        yield m, rho_n
        m_prev, m = m, scale * (d_n * m + scale * w_n * m_prev)


def norm_squared(seq: JacobiSzegoSequence, n: int) -> float:
    """||P_n||^2 = omega_1 omega_2 ... omega_n (1 for n = 0).

    Follows from ||P_{n+1}||^2 = <x P_n, P_{n+1}> = omega_{n+1} ||P_n||^2 and
    unit total mass; with the omega_0 = 1 convention the product can equally
    be written omega_0 ... omega_n.
    """
    if not 0 <= n < seq.omegas.size:
        raise ParameterError(f"n must be in 0 .. {seq.omegas.size - 1}, got {n}")
    return math.prod(seq.omegas[1:n + 1].tolist(), start=1.0)


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
