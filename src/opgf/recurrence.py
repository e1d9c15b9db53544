"""Monic orthogonal polynomials from their three-term recurrence data.

Conventions: the monic polynomials satisfy

    x P_n(x) = P_{n+1}(x) + alpha_n P_n(x) + omega_n P_{n-1}(x),
    P_{-1} = 0,  P_0 = 1,  omega_0 = 1,

and a *standardized* sequence (mean-0, variance-1 measure) additionally has
alpha_0 = 0 and omega_1 = 1.  The squared norm of P_n under the orthogonality
measure is the product omega_1 ... omega_n (equivalently omega_0 ... omega_n,
since omega_0 = 1), by ||P_{n+1}||^2 = omega_{n+1} ||P_n||^2.

eval_monic is the one evaluator of P_0 .. P_n, for a table or for a stack of
tables of one length, one recurrence step per degree on arrays.
majorant_stack bounds |P_n| from the same tables for the series truncation,
lazily, one degree at a time.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ParameterError

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
    length their caller reads.
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


def majorant_stack(seqs, x_rows, scale) -> list[Iterator[tuple]]:
    """Majorants of C tables of one length, one endless iterator per row:
    row c yields (M_n s^n, rho_n s) for n = 0, 1, 2, ... for table seqs[c]
    over the points x_rows[c], a (C, X) array, with s = scale, one scale for
    every row or scale[c], a 1-D array of one per row.

    M_0 = 1 and M_{n+1} = D_n M_n + |omega_n| M_{n-1}, where D_n is the
    largest |x - alpha_n| over the row's points, bound the monic
    polynomials: |P_n(x)| <= M_n at every point, by the triangle inequality
    on the recurrence.  rho_n = (Dbar + sqrt(Dbar^2 + 4 Wbar)) / 2, with
    Dbar and Wbar the maxima of D_m and |omega_m| over the table's indices
    m >= n, solves rho^2 = Dbar rho + Wbar, so by induction

        M_m <= max(M_n, rho_n M_{n-1}) rho_n^(m - n)   for every m >= n.

    Assumption: past the end of the table the coefficients stay within the
    table's suffix maxima; its last entry stands in for them.

    The distances D, the suffix maxima and rho of every row are formed in
    one pass of (C, N) array operations; each iterator then runs its own
    scalar recurrence for M_n, so every row equals the stack of one of its
    table bit for bit.
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
    """One row of majorant_stack from its arrays D_n, |omega_n| and rho_n s."""
    entries = itertools.chain.from_iterable(
        zip(*(a[part].tolist() for a in (d, w, rho)))
        for part in (slice(_HEAD), slice(_HEAD, None)))
    last = (d[-1].item(), w[-1].item(), rho[-1].item())
    m_prev, m = 0.0, 1.0
    for d_n, w_n, rho_n in itertools.chain(entries, itertools.repeat(last)):
        yield m, rho_n
        m_prev, m = m, scale * (d_n * m + scale * w_n * m_prev)
