"""Shared sweep definitions and cached constructors for the test suite."""
from functools import lru_cache

from opgf import Family, closed_form, family_sequence
from opgf.genfun import SERIES_CAP

# The standard verification sweep: every family over its lambda grid, the
# free Meixner family over three (a, b) pairs.
LAMBDA_SWEEP = (0.6, 0.75, 1.5, 2.0, 2.5)
MEIXNER_SWEEP = ((0.0, 0.0), (0.5, 0.25), (-1.0, -0.5))

SWEEP_CONFIGS = tuple(
    (family, lam, None, None)
    for family in (Family.SYM1, Family.SYM2, Family.NONSYM_PLUS, Family.NONSYM_MINUS)
    for lam in LAMBDA_SWEEP
) + tuple((Family.FREE_MEIXNER, None, a, b) for a, b in MEIXNER_SWEEP)


@lru_cache(maxsize=None)
def get_closed_form(family, lam, a, b):
    return closed_form(family, lam, a, b)


@lru_cache(maxsize=None)
def get_sequence(family, lam, a, b):
    return family_sequence(family, lam, a, b, size=SERIES_CAP)
