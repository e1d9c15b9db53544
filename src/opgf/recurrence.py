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
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import NumericalBreakdownError, ParameterError

# Naive discrete Stieltjes is unstable in doubles past this degree.
STIELTJES_MAX_DEGREE = 40

_STANDARD_TOL = 1e-12

_QUIET_FACTOR = 1e-15
_QUIET_RUN = 3


@dataclass(frozen=True)
class JacobiSzegoSequence:
    """Recurrence coefficients (alpha_n, omega_n) of a monic orthogonal system.

    The coefficients are callables so closed-form families need no
    precomputation; finite tables (e.g. from the Stieltjes procedure) are
    wrapped in the same interface and raise ParameterError past their end.
    """

    alpha: Callable[[int], float]
    omega: Callable[[int], float]
    standardized: bool = True

    def __post_init__(self):
        if abs(self.omega(0) - 1.0) > _STANDARD_TOL:
            raise ParameterError("omega(0) must be 1 by convention")
        if self.standardized:
            if abs(self.alpha(0)) > _STANDARD_TOL or abs(self.omega(1) - 1.0) > _STANDARD_TOL:
                raise ParameterError(
                    "standardized sequence requires alpha(0) = 0 and omega(1) = 1"
                )

    @classmethod
    def from_tables(cls, alphas, omegas) -> "JacobiSzegoSequence":
        """Wrap finite coefficient tables; indices past the table raise."""
        alphas = np.asarray(alphas, dtype=float)
        omegas = np.asarray(omegas, dtype=float)

        def alpha(n: int) -> float:
            if not 0 <= n < alphas.size:
                raise ParameterError(f"alpha index {n} outside table of size {alphas.size}")
            return float(alphas[n])

        def omega(n: int) -> float:
            if not 0 <= n < omegas.size:
                raise ParameterError(f"omega index {n} outside table of size {omegas.size}")
            return float(omegas[n])

        standardized = (
            alphas.size > 0
            and omegas.size > 1
            and abs(alphas[0]) <= _STANDARD_TOL
            and abs(omegas[1] - 1.0) <= _STANDARD_TOL
        )
        return cls(alpha=alpha, omega=omega, standardized=standardized)


@dataclass(frozen=True)
class PolynomialValueTable:
    """Values P_0(x) .. P_{max_degree}(x) at a fixed point x."""

    values: np.ndarray
    x: float
    max_degree: int


def monic_values(seq: JacobiSzegoSequence, x) -> Iterator:
    """Yield P_0(x), P_1(x), ... by running the recurrence upward.

    x is a float or a 1-D array of points; an array yields arrays, one
    recurrence step per degree for every point at once.  Each degree is
    computed only when it is requested, so a consumer that stops early never
    reads coefficients past the degrees it used.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ParameterError(f"x must be finite, got {x}")
    if xs.ndim == 0:
        x, p_prev, p_cur = float(xs), 0.0, 1.0
    else:
        x, p_prev, p_cur = xs, np.zeros_like(xs), np.ones_like(xs)
    for n in itertools.count():
        yield p_cur
        p_prev, p_cur = p_cur, (x - seq.alpha(n)) * p_cur - seq.omega(n) * p_prev


def eval_monic(seq: JacobiSzegoSequence, n_max: int, x: float) -> PolynomialValueTable:
    """Evaluate P_0 .. P_{n_max} at x by running the recurrence upward."""
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max}")
    values = np.fromiter(itertools.islice(monic_values(seq, x), n_max + 1),
                         dtype=float, count=n_max + 1)
    return PolynomialValueTable(values=values, x=float(x), max_degree=n_max)


def quiet_sum(terms: Iterable) -> tuple:
    """Sum terms until three consecutive ones are each at most
    1e-15 * |partial sum| in magnitude, or until the terms run out.

    Terms may be scalars or arrays of one shape.  For arrays the rule holds
    element by element: an element that has stopped keeps the sum and last
    term of its own stopping point, and iteration ends once every element
    has stopped.  Returns (sum, last term added); the caller bounds the
    number of terms.
    """
    total = last = 0.0
    quiet = 0
    live = True
    for term in terms:
        if live is True:
            last = term
        else:
            # Array terms: an element that has stopped adds zeros from now
            # on, which keeps it quiet, and keeps its last term.
            last = np.where(live, term, last)
            term = np.where(live, term, 0.0)
        total = total + term
        quiet = (quiet + 1) * (abs(term) <= _QUIET_FACTOR * abs(total))
        live = quiet < _QUIET_RUN
        if not (live if isinstance(live, bool) else live.any()):
            break
    return total, last


def norm_squared(seq: JacobiSzegoSequence, n: int) -> float:
    """||P_n||^2 = omega_1 omega_2 ... omega_n (1 for n = 0).

    Follows from ||P_{n+1}||^2 = <x P_n, P_{n+1}> = omega_{n+1} ||P_n||^2 and
    unit total mass; with the omega_0 = 1 convention the product can equally
    be written omega_0 ... omega_n.
    """
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    out = 1.0
    for k in range(1, n + 1):
        out *= seq.omega(k)
    return out


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
    return JacobiSzegoSequence.from_tables(alphas, omegas)
