"""Identities that tie the classified families to classical forms.

beta_law_table_check compares a Beta law's whole coefficient table with
the classical monic Jacobi table mapped onto its support, and returns
relative residuals for the caller's tolerance.  It reads the
configuration's closed form and table: an identity of lambda alone would
certify nothing about a configuration, so those live among the test
oracles (tests/reference.py).

The check takes a closed form of its own with its table, or a stack of C
closed forms (genfun.stack_closed_forms) with a stack of C tables; a stack
gives a result with a leading axis of length C from one evaluation, whose
row c is bit for bit the call with the c-th closed form alone.

The classical monic Jacobi recurrence coefficients on [-1, 1] are
implemented here from the standard formulas, a table for float parameters
and the stack of C tables for 1-D arrays of C, and are cross-validated in
the test suite against the Stieltjes procedure run on the corresponding
Beta densities.
"""
from __future__ import annotations

import numpy as np

from . import families, genfun
from .recurrence import JacobiSzegoSequence


# ----------------------------------------------------------------------------
# Classical monic Jacobi recurrence on [-1, 1]
#
# The table evaluates the standard tail formulas (alpha_n for n >= 1,
# omega_n for n >= 2) at n1 = max(n, 1) and n2 = max(n, 2), as
# measures.family_sequence does, and writes the head over the result; the
# parameters enter as a length-1 array or a (C, 1) column beside n.  Each
# formula is a product of ratios of O(1) (or 1 / (s + 3)), so nothing
# overflows where a product of four factors of size s would (s^4 at s = 2e77).


def jacobi_sequence(alf, bet, size: int) -> JacobiSzegoSequence:
    """Monic Jacobi coefficients, weight (1-x)^alf (1+x)^bet, for
    n = 0 .. size - 1."""
    alf, bet = (np.asarray(p, dtype=float)[..., None] for p in (alf, bet))
    n = np.arange(size, dtype=float)
    n1, n2 = np.maximum(n, 1.0), np.maximum(n, 2.0)
    s1, s2 = 2.0 * n1 + alf + bet, 2.0 * n2 + alf + bet
    alphas = (bet - alf) / s1 * ((bet + alf) / (s1 + 2.0))
    omegas = (4.0 * (n2 / s2) * ((n2 + alf) / s2) * ((n2 + bet) / (s2 + 1.0))
              * ((n2 + alf + bet) / (s2 - 1.0)))
    s = alf + bet
    alphas[..., :1] = (bet - alf) / (s + 2.0)
    omegas[..., :1] = 1.0
    omegas[..., 1:2] = 4.0 * ((alf + 1.0) / (s + 2.0)) * ((bet + 1.0) / (s + 2.0)) / (s + 3.0)
    return JacobiSzegoSequence(alphas, omegas)


def beta_law_table_check(cf: genfun.GenFunClosedForm, seq) -> np.ndarray:
    """The N residuals |delta alpha_n| / h, then the N - 1 |delta omega_n| /
    omega_n, between the table seq and its Beta law's: the Jacobi table of
    families.beta_exponents(cf) mapped onto [c - h, c + h] = support_interval
    by alpha_n = c + h alpha_n^J and omega_n = h^2 omega_n^J (n >= 1).  A
    stack of C closed forms takes a stack of C tables and gives a leading
    axis of length C.  Free Meixner raises ParameterError."""
    lead = genfun._table_lead(seq, cf)
    laws = [families.beta_exponents(tag, lam) + families.support_interval(tag, lam) for tag, lam
            in zip(np.ravel(np.asarray(cf.family, dtype=object)), np.ravel(cf.lam).tolist())]
    alf, bet, lo, hi = np.moveaxis(np.reshape(laws, lead + (4,)), -1, 0)
    law = jacobi_sequence(alf, bet, seq.alphas.shape[-1])
    centre, half = (0.5 * (lo + hi))[..., None], (0.5 * (hi - lo))[..., None]
    omegas = seq.omegas[..., 1:]
    return np.concatenate((np.abs(seq.alphas - (centre + half * law.alphas)) / half,
                           np.abs(omegas - half * half * law.omegas[..., 1:]) / omegas), axis=-1)
