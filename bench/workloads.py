"""Seeded operation streams for the three benchmark workloads.

An operation is one `opgf` CLI command, described by its argument list (the
output path is added when it runs) and the facts its oracle needs.  Each
stream is infinite and depends only on the seed, so the same seed yields the
same commands in the same order.  Parameters come from the README's
documented domain; nothing here calls into the package.

The domain and catalog streams are built from shuffled blocks with a fixed
mix of families, parameter regions and quadrature orders.  The mix, and so
the cost and failure profile of a run, is the same for every seed, while the
parameters inside each block are fresh draws.  The quadrature orders are
drawn one per stratum of a fixed log-spaced ladder: a Gauss rule's cost grows
with the square of its order, so unstratified draws would make a run's cost
depend on the seed.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from itertools import count
from typing import Iterator, Optional

WORKLOADS = ("sweep", "domain", "catalog")

# The README campaign: all 23 configurations of the standard sweep.
SWEEP_ARGV = ("verify", "--zmax", "0.1", "--grid", "16")

# Documented parameter domain (README "CLI" section).
LAMBDA_HALF_GUARD = 0.51   # sym2 / nonsym-* require lambda >= 0.51
LAMBDA_MAX = 6.0
ZMAX_MIN, ZMAX_MAX = 0.02, 0.1
GRID_MIN, GRID_MAX = 4, 8

# Gauss-rule orders of each catalog block: one draw between each pair of
# neighbours of this ladder from 24 to 1000, evenly spaced in log.
ORDER_LADDER = tuple(24 * (1000 / 24) ** (k / 9) for k in range(10))
CATALOG_CLASSIFY_PER_BLOCK = 2


@dataclass(frozen=True)
class Op:
    """One CLI command.  kind is sweep, verify, classify or quadrature; lam
    and order are the classify lambda and the Gauss-rule order."""

    kind: str
    argv: tuple[str, ...]
    lam: Optional[float] = None
    order: Optional[int] = None


def _num(value: float) -> str:
    """Exact decimal form.  Negative values are passed as --opt=value, since
    argparse reads a lone "-8e-05" as an option."""
    return repr(float(value))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _lambda(rng: random.Random, lo: float, hi: float) -> float:
    """A lambda in [lo, hi], off the lambda = 1 point the README excludes."""
    while True:
        lam = _log_uniform(rng, lo, hi)
        if abs(lam - 1.0) >= 1e-6:
            return lam


def _min_root_modulus(c2: float, c1: float, c0: float) -> float:
    """Smallest |root| of c2 z^2 + c1 z + c0 (inf when there is none)."""
    if c2 == 0.0:
        return abs(c0 / c1) if c1 != 0.0 else math.inf
    sq = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
    return min(abs((-c1 + sq) / (2.0 * c2)), abs((-c1 - sq) / (2.0 * c2)))


def domain_radius(family: str, lam: float, a: float = 0.0, b: float = 0.0) -> float:
    """0.9 times the distance from 0 to the nearest singular point of the
    family's closed form, as the README documents it."""
    if family == "sym1":
        return 0.9 * math.sqrt(2.0 / (1.0 + lam))
    if family == "sym2":
        return 0.9 * math.sqrt(2.0 / lam)
    if family in ("nonsym-plus", "nonsym-minus"):
        return 0.9 * math.sqrt(2.0 * lam - 1.0) / lam
    nearest = min(_min_root_modulus(1.0 + b, a, 1.0), _min_root_modulus(b, a, 1.0))
    if b > -1.0:
        nearest = min(nearest, 1.0 / math.sqrt(1.0 + b))
    return 0.9 * nearest


def _family_params(rng: random.Random, family: str, edge: bool) -> tuple:
    """(argv fragment, lambda, a, b) for one draw.  edge=True draws from the
    documented-valid edge of the family's domain: sym1 below lambda = 1/2,
    the 0.51 guard band of sym2/nonsym-*, free Meixner at b = -1."""
    if family == "free-meixner":
        a = rng.uniform(-1.0, 1.0)
        b = -1.0 if edge else rng.uniform(-1.0, 1.0)
        return (f"--a={_num(a)}", f"--b={_num(b)}"), 1.0, a, b
    if family == "sym1":
        lam = rng.uniform(0.05, 0.5) if edge else _lambda(rng, 0.5, LAMBDA_MAX)
    else:
        lam = (rng.uniform(LAMBDA_HALF_GUARD, 0.56) if edge
               else _lambda(rng, 0.56, LAMBDA_MAX))
    return ("--lambda", _num(lam)), lam, 0.0, 0.0


def _verify_op(rng: random.Random, family: str, edge: bool) -> Op:
    params, lam, a, b = _family_params(rng, family, edge)
    zmax = min(rng.uniform(ZMAX_MIN, ZMAX_MAX), 0.9 * domain_radius(family, lam, a, b))
    grid = rng.randint(GRID_MIN, GRID_MAX)
    argv = ("verify", "--family", family, *params,
            "--zmax", _num(zmax), "--grid", str(grid))
    return Op("verify", argv)


FAMILIES = ("sym1", "sym2", "nonsym-plus", "nonsym-minus", "free-meixner")


def domain_block(rng: random.Random) -> list[Op]:
    """20 single-configuration verifies: per family one edge draw and three
    interior draws, shuffled."""
    ops = [_verify_op(rng, family, edge)
           for family in FAMILIES
           for edge in (True, False, False, False)]
    rng.shuffle(ops)
    return ops


def _quadrature_op(rng: random.Random, family: str, lo: float, hi: float) -> Op:
    if family == "free-meixner":
        # b > -1: at b = -1 the law has two atoms and no Gauss rule of
        # order >= 3 exists.
        a, b = rng.uniform(-1.0, 1.0), rng.uniform(-0.9, 1.0)
        params = (f"--a={_num(a)}", f"--b={_num(b)}")
    else:
        lam_lo = 0.1 if family == "sym1" else LAMBDA_HALF_GUARD
        params = ("--lambda", _num(_lambda(rng, lam_lo, LAMBDA_MAX)))
    order = round(_log_uniform(rng, lo, hi))
    return Op("quadrature", ("quadrature", "--family", family, *params,
                             "--order", str(order)), order=order)


def catalog_block(rng: random.Random, index: int) -> list[Op]:
    """Two classify calls and nine Gauss-rule exports, one per stratum of the
    order ladder, the families rotating from block to block, shuffled."""
    ops = []
    for _ in range(CATALOG_CLASSIFY_PER_BLOCK):
        lam = _lambda(rng, 0.1, LAMBDA_MAX)
        ops.append(Op("classify", ("classify", "--lambda", _num(lam)), lam=lam))
    strata = list(zip(ORDER_LADDER, ORDER_LADDER[1:]))
    for slot, (lo, hi) in enumerate(strata, start=index * len(strata)):
        ops.append(_quadrature_op(rng, FAMILIES[slot % len(FAMILIES)], lo, hi))
    rng.shuffle(ops)
    return ops


def stream(workload: str, seed: int) -> Iterator[Op]:
    """Endless seeded operation stream of a workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    for index in count():
        if workload == "sweep":
            yield Op("sweep", SWEEP_ARGV)
        elif workload == "domain":
            yield from domain_block(rng)
        else:
            yield from catalog_block(rng, index)


def warmup_ops() -> list[Op]:
    """One small command of each kind, run untimed before measuring."""
    return [
        Op("verify", ("verify", "--family", "sym1", "--lambda", "2.0",
                      "--zmax", "0.05", "--grid", "4")),
        Op("classify", ("classify", "--lambda", "2.0"), lam=2.0),
        Op("quadrature", ("quadrature", "--family", "sym2", "--lambda", "2.0",
                          "--order", "40"), order=40),
    ]
