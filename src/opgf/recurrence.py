"""Monic orthogonal polynomials from their three-term recurrence data.

Conventions: the monic polynomials satisfy

    x P_n(x) = P_{n+1}(x) + alpha_n P_n(x) + omega_n P_{n-1}(x),
    P_{-1} = 0,  P_0 = 1,  omega_0 = 1,

and a *standardized* sequence (mean-0, variance-1 measure) additionally has
alpha_0 = 0 and omega_1 = 1.  The squared norm of P_n under the orthogonality
measure is the product omega_1 ... omega_n (equivalently omega_0 ... omega_n,
since omega_0 = 1), by ||P_{n+1}||^2 = omega_{n+1} ||P_n||^2.

A JacobiSzegoSequence is a table or a stack of tables; eval_monic is the
one evaluator of P_0 .. P_n for either, one step per degree on arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_STANDARD_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class JacobiSzegoSequence:
    """Recurrence coefficients alpha_0 .. alpha_{N-1}, omega_0 .. omega_{N-1}
    of a monic orthogonal system, held as two read-only float arrays of
    shape (N,), N >= 1; or a stack of C tables, row c table c, as (C, N)
    arrays, of which a table is the stack of one without the leading axis.

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
        if len(shape) not in (1, 2) or shape[-1] == 0 or shape != self.omegas.shape:
            raise ParameterError(f"alphas and omegas must be of one shape (N,) or (C, N) with "
                                 f"N >= 1, got shapes {shape} and {self.omegas.shape}")
        if (abs(self.omegas[..., 0] - 1.0) > _STANDARD_TOL).any():
            raise ParameterError("omega_0 must be 1 by convention")

    @classmethod
    def stack(cls, tables: list) -> JacobiSzegoSequence:
        """A list of tables of their own, of one length, as one stack."""
        return cls(np.array([t.alphas for t in tables]), np.array([t.omegas for t in tables]))


def eval_monic(seq: JacobiSzegoSequence, n_max: int, x) -> np.ndarray:
    """P_0 .. P_{n_max} at x by running the recurrence upward, of shape
    (n_max + 1,) + x.shape: x is a float or an array for a table of its
    own, and has one row per table for a stack, row c running the
    recurrence of table c.  N coefficients give P_0 .. P_N; a degree past
    them raises ParameterError.
    """
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max}")
    xs = np.asarray(x, dtype=float)
    points = _points(seq, xs)
    size = seq.alphas.shape[-1]
    if n_max > size:
        raise ParameterError(f"{size} coefficients give P_0 .. P_{size} only, not P_{size + 1}")
    # the shifts x - alpha_n of all degrees in one array operation, and
    # omega_n spread over the points: a same-shape product is faster than a
    # broadcast one
    alphas, omegas = (table.reshape(len(points), -1).T[:n_max, :, None]
                      for table in (seq.alphas, seq.omegas))
    shifts, omegas = points - alphas, np.repeat(omegas, points.shape[1], axis=-1)
    values = np.empty((n_max + 1,) + points.shape)
    values[0], p_prev = 1.0, np.zeros_like(points)
    for n in range(n_max):
        values[n + 1] = shifts[n] * values[n] - omegas[n] * p_prev
        p_prev = values[n]
    return values.reshape((n_max + 1,) + xs.shape)


def _points(seq: JacobiSzegoSequence, xs: np.ndarray) -> np.ndarray:
    """The float points xs as one row per table of seq, (C, X); a table of
    its own takes any xs as its one row.  A non-finite point is refused
    first."""
    if not np.all(np.isfinite(xs)):
        raise ParameterError(f"x must be finite, got {xs[~np.isfinite(xs)][0]}")
    lead = seq.alphas.shape[:-1]
    if xs.shape[:len(lead)] != lead:
        raise ParameterError(f"a stack of {lead[0]} tables needs x with one row per table, "
                             f"got x of shape {xs.shape}")
    return xs.reshape(len(seq.alphas) if lead else 1, -1)
