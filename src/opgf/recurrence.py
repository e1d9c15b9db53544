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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_STANDARD_TOL = 1e-12


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
    the (C, X) points xs, one row per table.  A non-finite point is refused
    first."""
    if not np.all(np.isfinite(xs)):
        raise ParameterError(f"x must be finite, got {xs[~np.isfinite(xs)][0]}")
    sizes = [table.alphas.size for table in seqs]
    if len(set(sizes)) != 1 or xs.ndim != 2 or xs.shape[0] != len(seqs):
        raise ParameterError(
            f"a stack needs tables of one length and a (C, X) x, one row per "
            f"table; got lengths {sizes} and x of shape {xs.shape}"
        )
    return (np.array([table.alphas for table in seqs]),
            np.array([table.omegas for table in seqs]))
