"""Monic orthogonal polynomials from their three-term recurrence data.

Conventions: the monic polynomials satisfy

    x P_n(x) = P_{n+1}(x) + alpha_n P_n(x) + omega_n P_{n-1}(x),
    P_{-1} = 0,  P_0 = 1,  omega_0 = 1,

and a *standardized* sequence (mean-0, variance-1 measure) additionally has
alpha_0 = 0 and omega_1 = 1.  The squared norm of P_n under the orthogonality
measure is the product omega_1 ... omega_n (equivalently omega_0 ... omega_n,
since omega_0 = 1), by ||P_{n+1}||^2 = omega_{n+1} ||P_n||^2.
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


def monic_values(seq: JacobiSzegoSequence, x) -> Iterator:
    """Yield P_0(x), P_1(x), ..., P_N(x) by running the recurrence upward;
    asking for P_{N+1} raises ParameterError.

    x is a float or a 1-D array of points; an array yields arrays, one
    recurrence step per degree for every point at once, with the shifts
    x - alpha_n of all degrees formed in one array operation.  Each degree
    is computed only when it is requested.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ParameterError(f"x must be finite, got {xs[~np.isfinite(xs)][0]}")
    if xs.ndim == 0:
        x, p_prev, p_cur = float(xs), 0.0, 1.0
        shifts = (x - alpha for alpha in seq.alphas.tolist())
    else:
        p_prev, p_cur = np.zeros_like(xs), np.ones_like(xs)
        shifts = xs - seq.alphas[:, None]
    for shift, omega in zip(shifts, seq.omegas.tolist()):
        yield p_cur
        p_prev, p_cur = p_cur, shift * p_cur - omega * p_prev
    yield p_cur
    size = seq.alphas.size
    raise ParameterError(f"{size} coefficients give P_0 .. P_{size} only, not P_{size + 1}")


def eval_monic(seq: JacobiSzegoSequence, n_max: int, x) -> np.ndarray:
    """P_0 .. P_{n_max} at x: shape (n_max + 1,) for a float x, (n_max + 1, X)
    for a 1-D array of X points."""
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max}")
    return np.array(list(itertools.islice(monic_values(seq, x), n_max + 1)))


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
    table's suffix maxima; its last entry stands in for them.
    """
    xs = np.asarray(x, dtype=float)
    d = np.maximum(xs.max() - seq.alphas, seq.alphas - xs.min())
    w = np.abs(seq.omegas)
    d_bar = np.maximum.accumulate(d[::-1])[::-1]
    w_bar = np.maximum.accumulate(w[::-1])[::-1]
    rho = (0.5 * scale) * (d_bar + np.sqrt(d_bar * d_bar + 4.0 * w_bar))
    table = zip(d.tolist(), w.tolist(), rho.tolist())
    last = (d[-1].item(), w[-1].item(), rho[-1].item())
    m_prev, m = 0.0, 1.0
    for d_n, w_n, rho_n in itertools.chain(table, itertools.repeat(last)):
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
