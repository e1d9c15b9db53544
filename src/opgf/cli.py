"""Command-line front end: verification campaigns, classification, quadrature.

Subcommands:

    opgf verify      run the identity/residual checks for one family (or the
                     whole sweep when --family is omitted) and write a JSON
                     report; exit 0 iff every check passed, 1 on check
                     failure (report still written), 2 on bad parameters.
    opgf classify    write all classification branches for a given lambda.
    opgf quadrature  export a Gauss rule as CSV (exit 3 on I/O failure).

Reports are deterministic for fixed inputs except the wall_time_ms field;
numbers are serialized with 17 significant digits.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__, genfun, identities, measures, riccati
from .errors import OpgfError, ParameterError, RedirectToFreeMeixner
from .families import Family

SCHEMA_VERSION = 1

SWEEP_LAMBDAS = (0.6, 0.75, 1.5, 2.0, 2.5)
SWEEP_MEIXNER = ((0.0, 0.0), (0.5, 0.25), (-1.0, -0.5))

# Pinned tolerances for the non-series checks (the --tol flag only moves the
# series-vs-closed-form tolerance).
TOL_M0 = 1e-10
TOL_M1 = 1e-9
TOL_M2 = 1e-9
TOL_RICCATI = 1e-11
TOL_ODE = 1e-7
TOL_DUPLICATION = 1e-12
TOL_POCH_RATIO = 1e-12
TOL_1F0 = 1e-11
TOL_GF_IDENTITY = 1e-10
TOL_JACOBI_SHIFT = 1e-9
TOL_GF3 = 1e-12
TOL_UNIQUENESS = 1e-12


def _json_dump(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pieces = []

    def emit(node):
        if node is None:
            pieces.append("null")
        elif isinstance(node, bool):
            pieces.append("true" if node else "false")
        elif isinstance(node, str):
            pieces.append(json.dumps(node))
        elif isinstance(node, int):
            pieces.append(str(node))
        elif isinstance(node, float):
            if not math.isfinite(node):
                raise ValueError(f"non-finite value {node} in report")
            pieces.append(format(node + 0.0, ".17g"))  # folds -0.0 into 0
        elif isinstance(node, (list, tuple)):
            pieces.append("[")
            for i, item in enumerate(node):
                if i:
                    pieces.append(", ")
                emit(item)
            pieces.append("]")
        elif isinstance(node, dict):
            pieces.append("{")
            for i, (key, value) in enumerate(node.items()):
                if i:
                    pieces.append(", ")
                pieces.append(json.dumps(str(key)))
                pieces.append(": ")
                emit(value)
            pieces.append("}")
        else:
            raise TypeError(f"cannot serialize {type(node)!r}")

    emit(obj)
    return "".join(pieces)


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check(name: str, points: int, max_residual: float, tolerance: float) -> dict:
    return {
        "name": name,
        "points_tested": points,
        "max_residual": float(max_residual),
        "tolerance": float(tolerance),
        "passed": bool(max_residual <= tolerance),
    }


def _grid_angles(grid: int):
    """Angles k*pi/grid for k = 0..grid-1: covers the upper half circle and
    never touches pi (the branch cut direction)."""
    return [k * math.pi / grid for k in range(grid)]


def _series_check(cf, seq, zs, xs, tol) -> dict:
    series = genfun.psi_series(seq, cf.lam, zs, xs).value
    worst = np.abs(genfun.psi_closed(cf, zs, xs) - series).max()
    return _check("series-vs-closed", len(zs) * len(xs), worst, tol)


def run_family_checks(family: Family, lam, a, b, zmax: float, grid: int,
                      tol: float) -> dict:
    """All checks for one family configuration; returns the report dict."""
    cf = genfun.closed_form(family, lam, a, b)
    if not 0.0 < zmax < cf.domain_radius:
        raise ParameterError(
            f"zmax must lie in (0, {cf.domain_radius:.6g}) for {family.value}, "
            f"got {zmax}"
        )
    if grid < 4:
        raise ParameterError(f"grid must be >= 4, got {grid}")
    measure = measures.build_measure(family, lam, a, b)
    seq = measures.recurrence_of(measure, genfun.SERIES_CAP)
    lo, hi = measure.support
    xs = list(np.linspace(lo, hi, 11))
    zs_circle = [zmax * complex(math.cos(t), math.sin(t)) for t in _grid_angles(grid)]
    zs_real = np.array([s * zmax for s in (-1.0, -0.5, -0.2, 0.2, 0.5, 1.0)])

    checks = [_series_check(cf, seq, zs_circle, xs, tol)]

    m0, m1, m2 = genfun.psi_family_moments(measure, cf, zs_real)
    lam_ = cf.lam
    m2_claim = (0.5 * lam_ * (lam_ + 1.0) * cf.omega2 * zs_real * zs_real
                + lam_ * cf.alpha1 * zs_real + 1.0)
    checks.append(_check("moment-m0", len(zs_real), np.abs(m0 - 1.0).max(), TOL_M0))
    checks.append(_check("moment-m1", len(zs_real), np.abs(m1 - lam_ * zs_real).max(),
                         TOL_M1))
    checks.append(_check("moment-m2", len(zs_real), np.abs(m2 - m2_claim).max(), TOL_M2))

    coeffs = riccati.coefficients(cf.lam, cf.alpha1, cf.omega2)
    zs_two_circles = [radius * complex(math.cos(t), math.sin(t))
                      for radius in (0.5 * zmax, zmax) for t in _grid_angles(grid)]
    worst_f = np.abs(riccati.residual_f(cf, coeffs, zs_two_circles)).max()
    worst_u = np.abs(riccati.residual_u(cf, zs_two_circles)).max()
    pts = len(zs_two_circles)
    checks.append(_check("riccati-residual-f", pts, worst_f, TOL_RICCATI))
    checks.append(_check("riccati-residual-u", pts, worst_u, TOL_RICCATI))

    ode_zs = np.array([s * zmax for s in (-0.8, -0.5, -0.2, 0.2, 0.5, 0.8)])
    r1, r2 = riccati.residual_moment_ode(cf, measure, ode_zs)
    worst_ode = max(r1.max(), r2.max())
    checks.append(_check("moment-ode", 2 * len(ode_zs), worst_ode, TOL_ODE))

    dup_points = [0.25 * k for k in range(1, 21)]
    worst = max(identities.duplication_check(av) for av in dup_points)
    checks.append(_check("gamma-duplication", len(dup_points), worst, TOL_DUPLICATION))

    worst = identities.pochhammer_ratio_check(cf.lam, np.arange(21)).max()
    checks.append(_check("pochhammer-ratio", 21, worst, TOL_POCH_RATIO))

    ys = (-0.5, -0.25, 0.0, 0.25, 0.5)
    worst = identities.one_f_zero_reduction(cf.lam, ys).max()
    checks.append(_check("binomial-1f0", len(ys), worst, TOL_1F0))

    checks.extend(_family_identity_checks(family, cf, zmax, lo, hi))

    all_passed = all(c["passed"] for c in checks)
    return {
        "schema": SCHEMA_VERSION,
        "tool_version": __version__,
        "family": family.value,
        "lambda": float(cf.lam),
        "a": None if a is None else float(a),
        "b": None if b is None else float(b),
        "checks": checks,
        "all_passed": all_passed,
    }


def _family_identity_checks(family: Family, cf, zmax: float, lo: float,
                            hi: float) -> list[dict]:
    lam = cf.lam
    xs5 = list(np.linspace(lo, hi, 5))
    zs = [zmax, 0.5 * zmax, zmax * 1j, zmax * complex(-0.5, 0.5)]
    out = []
    if family is Family.SYM1:
        worst = identities.gegenbauer_gf_check(
            lam, [0.25, 0.1, 0.1j, complex(-0.1, 0.1)], [-1.0, -0.5, 0.0, 0.5, 1.0], 120
        ).max()
        out.append(_check("gegenbauer-gf", 20, worst, TOL_GF_IDENTITY))
        worst = identities.tilde_gegenbauer_identity(lam, zs, xs5).max()
        out.append(_check("scaled-gegenbauer-gf", len(zs) * len(xs5), worst,
                          TOL_GF_IDENTITY))
    elif family is Family.SYM2:
        worst = identities.family2_identity(lam, zs, xs5).max()
        out.append(_check("shifted-parameter-gf", len(zs) * len(xs5), worst,
                          TOL_GF_IDENTITY))
    elif family.nonsymmetric:
        sign = "plus" if family is Family.NONSYM_PLUS else "minus"
        worst = identities.jacobi_shift_check(lam, 10, xs5, sign).max()
        out.append(_check("jacobi-shift", 11 * len(xs5), worst, TOL_JACOBI_SHIFT))
        worst = identities.jacobi_2f1_gf_check(
            lam, [-0.15, -0.1, 0.1, 0.15], [-0.4, 0.0, 0.4, 0.8]
        ).max()
        out.append(_check("jacobi-2f1-gf", 16, worst, TOL_GF_IDENTITY))
        worst = identities.two_f_one_collapse_check(
            lam, [-0.15, -0.1, 0.1, 0.15], [-0.4, 0.0, 0.4, 0.8]
        ).max()
        out.append(_check("2f1-collapse", 16, worst, TOL_GF_IDENTITY))
        worst = identities.gf3_equivalence(
            lam, [-0.5 * zmax, 0.5 * zmax, zmax], xs5, sign
        ).max()
        out.append(_check("psi-prefactor-form", 3 * len(xs5), worst, TOL_GF3))
    else:
        series = riccati.free_meixner_uniqueness(cf.a, cf.b, 15)
        worst = float(np.abs(series.c).max())
        out.append(_check("series-uniqueness", series.n_terms, worst, TOL_UNIQUENESS))
    return out


def _sweep_configs():
    for fam in (Family.SYM1, Family.SYM2, Family.NONSYM_PLUS, Family.NONSYM_MINUS):
        for lam in SWEEP_LAMBDAS:
            yield fam, lam, None, None
    for a, b in SWEEP_MEIXNER:
        yield Family.FREE_MEIXNER, None, a, b


def cmd_verify(args) -> int:
    start = time.perf_counter()
    if args.family is None:
        reports = [
            run_family_checks(fam, lam, a, b, args.zmax, args.grid, args.tol)
            for fam, lam, a, b in _sweep_configs()
        ]
        all_passed = all(r["all_passed"] for r in reports)
        payload = {
            "schema": SCHEMA_VERSION,
            "tool_version": __version__,
            "campaign": "full-sweep",
            "reports": reports,
            "all_passed": all_passed,
            "wall_time_ms": int(1000 * (time.perf_counter() - start)),
        }
    else:
        family = Family(args.family)
        payload = run_family_checks(
            family, args.lam, args.a, args.b, args.zmax, args.grid, args.tol
        )
        all_passed = payload["all_passed"]
        payload["wall_time_ms"] = int(1000 * (time.perf_counter() - start))
    _write_atomic(args.out, _json_dump(payload) + "\n")
    status = "all checks passed" if all_passed else "CHECK FAILURES (see report)"
    print(f"opgf verify: {status}; report written to {args.out}")
    return 0 if all_passed else 1


def _solution_dict(sol: riccati.ClassificationSolution) -> dict:
    return {
        "branch": sol.branch_label,
        "omega2": float(sol.omega2),
        "alpha1": float(sol.alpha1),
        "e_coeffs": [float(c) for c in sol.e_coeffs],
        "max_residual": float(sol.max_residual),
        "valid": sol.valid,
        "invalid_reason": sol.invalid_reason,
    }


def cmd_classify(args) -> int:
    lam = args.lam
    if lam is None or lam <= 0.0:
        raise ParameterError(f"classify requires lambda > 0, got {lam}")
    payload = {
        "schema": SCHEMA_VERSION,
        "tool_version": __version__,
        "lambda": float(lam),
        "symmetric": None,
        "nonsymmetric": None,
        "nonsymmetric_excluded": None,
        "rejected_degenerate_omega2": None,
        "note": None,
    }
    try:
        payload["symmetric"] = [_solution_dict(s) for s in riccati.solve_symmetric(lam)]
    except RedirectToFreeMeixner:
        payload["note"] = (
            "degenerate case: free Meixner family (constant Jacobi-Szego tail "
            "alpha_n = a, omega_n = 1 + b; E has degree <= 1)"
        )
    if payload["note"] is None:
        try:
            degenerate, _ = riccati.nonsymmetric_omega2_roots(lam)
            payload["nonsymmetric"] = [
                _solution_dict(s) for s in riccati.solve_nonsymmetric(lam)
            ]
            payload["rejected_degenerate_omega2"] = float(degenerate)
        except ParameterError as exc:
            payload["nonsymmetric_excluded"] = str(exc)
    _write_atomic(args.out, _json_dump(payload) + "\n")
    print(f"opgf classify: report written to {args.out}")
    return 0


def cmd_quadrature(args) -> int:
    family = Family(args.family)
    measure = measures.build_measure(family, args.lam, args.a, args.b)
    rule = measures.gauss_quadrature(measure, args.order)
    header = f"family={family.value} lambda={measure.lam:.17g} order={args.order}"
    if family is Family.FREE_MEIXNER:
        header += f" a={measure.a:.17g} b={measure.b:.17g}"
    try:
        rule.to_csv(args.out, header_comment=header)
    except OSError as exc:
        print(f"opgf quadrature: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    print(f"opgf quadrature: {args.order} nodes written to {args.out}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by later main() calls
    (parse_args keeps no state between calls)."""
    parser = argparse.ArgumentParser(
        prog="opgf",
        description="Verify generating-function identities of the classified "
                    "orthogonal polynomial families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    family_choices = [f.value for f in Family]

    p_verify = sub.add_parser("verify", help="run a verification campaign")
    p_verify.add_argument("--family", choices=family_choices, default=None,
                          help="run one family (default: the full sweep)")
    p_verify.add_argument("--lambda", dest="lam", type=float, default=None)
    p_verify.add_argument("--a", type=float, default=None)
    p_verify.add_argument("--b", type=float, default=None)
    p_verify.add_argument("--zmax", type=float, default=0.1)
    p_verify.add_argument("--grid", type=int, default=16)
    p_verify.add_argument("--tol", type=float, default=1e-9,
                          help="tolerance of the series-vs-closed-form check")
    p_verify.add_argument("--out", default="opgf_verify.json")
    p_verify.set_defaults(func=cmd_verify)

    p_classify = sub.add_parser("classify", help="solve the classification systems")
    p_classify.add_argument("--lambda", dest="lam", type=float, required=True)
    p_classify.add_argument("--out", default="opgf_classify.json")
    p_classify.set_defaults(func=cmd_classify)

    p_quad = sub.add_parser("quadrature", help="export a Gauss rule as CSV")
    p_quad.add_argument("--family", choices=family_choices, required=True)
    p_quad.add_argument("--lambda", dest="lam", type=float, default=None)
    p_quad.add_argument("--a", type=float, default=None)
    p_quad.add_argument("--b", type=float, default=None)
    p_quad.add_argument("--order", type=int, required=True)
    p_quad.add_argument("--out", default="opgf_quadrature.csv")
    p_quad.set_defaults(func=cmd_quadrature)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OpgfError as exc:
        print(f"opgf {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
