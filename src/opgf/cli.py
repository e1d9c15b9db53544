"""Command-line front end: verification campaigns, classification, quadrature.

Subcommands:

    opgf verify      run the identity/residual checks for one family (or the
                     whole sweep when --family is omitted) and write a JSON
                     report; exit 0 iff every check passed, 1 on check
                     failure (report still written), 2 on bad parameters
                     or a residual that is not finite (no report).
    opgf classify    write all classification branches for a given lambda.
    opgf quadrature  export a Gauss rule as CSV.

Every command exits 3 when it cannot write its output file.

A verify command is one campaign (run_campaign): the sweep's 23
configurations, or the one configuration of --family.  It builds one closed
form and one coefficient table per configuration and then runs the rows of
_checks, one check at a time.  Each check is one call over the
configurations it checks, laid out by _stack: one configuration's own closed
form and table, or one stack of each for several, whose row c is bit for bit
configuration c's own call, made once per set of families checked.
series-vs-closed is one psi_series_stack pass and one psi_analytic call,
and the moments (one Gauss rule per row), the three coefficient identities
(both Riccati equations and the m2 moment ODE), and the identity of every
Beta law's table are one call each.  Nothing is kept between commands.

If a campaign of several configurations raises, it is run again
configuration by configuration, and so raises the error that such a loop
meets first.

Reports are deterministic for fixed inputs except the wall_time_ms field;
json.dumps writes each number by its shortest round-trip repr.  cmd_verify
raises NumericalBreakdownError on the first non-finite residual before the
report is written, so a non-finite value never reaches json.dumps.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, families, genfun, identities, measures, riccati
from .errors import NumericalBreakdownError, OpgfError, ParameterError, RedirectToFreeMeixner
from .families import Family
from .recurrence import JacobiSzegoSequence

SCHEMA_VERSION = 2

SWEEP_LAMBDAS = (0.6, 0.75, 1.5, 2.0, 2.5)
SWEEP_MEIXNER = ((0.0, 0.0), (0.5, 0.25), (-1.0, -0.5))


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a temporary file in its directory, which
    replaces path only once it is written in full.  The file is created as
    open(path, "w") creates a new one, mode 0o666 under the current umask,
    which the process keeps throughout; its name does not grow with path's,
    so that any name path may take leaves it room.  As with open(path, "w"),
    a symlinked path keeps its link and the link's target gets the text."""
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f"{os.getpid()}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Run:
    """One configuration of a campaign: the point-set parameters, the closed
    form and coefficient table that every check reads, and the check records
    so far."""

    def __init__(self, family, lam, a, b, zmax: float, grid: int):
        self.checks: list[dict] = []
        cf = genfun.closed_form(family, lam, a, b)
        if not 0.0 < zmax < cf.domain_radius:
            raise ParameterError(
                f"zmax must lie in (0, {cf.domain_radius:.6g}) for {cf.family.value}, "
                f"got {zmax}"
            )
        if grid < 4:
            raise ParameterError(f"grid must be >= 4, got {grid}")
        self.cf = cf
        self.seq = measures.family_sequence(cf.family, cf.lam, cf.a, cf.b,
                                            size=genfun.SERIES_CAP)
        lo, hi = families.support_interval(cf.family, cf.lam, cf.a, cf.b)
        self.xs = list(np.linspace(lo, hi, 11))

    def report(self) -> dict:
        a, b = self.cf.a, self.cf.b
        return {
            "schema": SCHEMA_VERSION,
            "tool_version": __version__,
            "family": self.cf.family.value,
            "lambda": float(self.cf.lam),
            "a": None if a is None else float(a) + 0.0,  # + 0.0 folds -0.0 into 0.0
            "b": None if b is None else float(b) + 0.0,
            "checks": self.checks,
            "all_passed": all(c["passed"] for c in self.checks),
        }


def _stack(live) -> tuple:
    """The closed forms and tables of the runs live: one run's own closed
    form, whose Python-float fields numpy combines with complex points
    without casts, and table; several runs' as one stack of each."""
    if len(live) == 1:
        return live[0].cf, live[0].seq
    return (genfun.stack_closed_forms(run.cf for run in live),
            JacobiSzegoSequence.stack([run.seq for run in live]))


def _stacked(runs, stacks, records, families_checked, evaluate) -> None:
    """The check records of one row of _checks for every run whose family is
    in families_checked: their worst residuals are the run's row of one call
    evaluate(live, *stacks[families_checked]) over all of those runs, where
    stacks keeps _stack(live) for each families tuple once it is laid out."""
    live = [run for run in runs if run.cf.family in families_checked]
    if not live:
        return
    if families_checked not in stacks:
        stacks[families_checked] = _stack(live)
    for run, row in zip(live, _rows(live, evaluate(live, *stacks[families_checked]))):
        for (name, points, tolerance), residual in zip(records, row, strict=True):
            run.checks.append({
                "name": name,
                "points_tested": points,
                "max_residual": float(residual),
                "tolerance": float(tolerance),
                "passed": bool(residual <= tolerance),
            })


def _rows(runs, values) -> np.ndarray:
    """values of one call over the stack of runs as one flat row per run."""
    return np.asarray(values).reshape(len(runs), -1)


def _worst(runs, values) -> np.ndarray:
    """Each run's worst |value| of one call over the stack of runs."""
    return np.abs(_rows(runs, values)).max(axis=1)


def _checks(zmax: float, grid: int, tol: float) -> list:
    """The campaign's checks in report order, one row (records, families,
    evaluate) per check.  records lists the (name, points, tolerance) of
    the row's check records, three for the moments and for the coefficient
    identities and one for every other check; the row checks the runs whose
    family is in families; evaluate(live, cf, seq) is one call over those
    runs, with their closed forms cf and tables seq laid out by _stack,
    that gives each run one worst residual per record.  tol is the
    tolerance of series-vs-closed, the others are pinned.

    series-vs-closed is one psi_series_stack pass and one psi_analytic call
    over the stack, and the moments and the three coefficient identities
    (both Riccati residuals and the m2 moment ODE, which read no point) are
    one call each.
    beta-law-table (each whole table against its Beta law) is one call over
    the stack of the families it checks.  Every check reads its
    configuration's closed form or table: an identity of lambda alone could
    certify nothing about the configuration, and none is a row.
    """
    # the upper half circle zmax e^(i k pi / grid), never touching pi (the branch cut)
    zs = [zmax * complex(math.cos(t), math.sin(t)) for t in (k * math.pi / grid for k in range(grid))]
    zs_real = np.array([s * zmax for s in (-1.0, -0.5, -0.2, 0.2, 0.5, 1.0)])

    def series(live, cf, seq):
        xs = [run.xs for run in live]
        values = genfun.psi_series_stack(seq, [run.cf.lam for run in live], zs, xs)
        closed = _rows(live, genfun.psi_analytic(cf, zs, xs))
        return _worst(live, closed - _rows(live, [row.value for row in values]))

    def moments(live, cf, seq):
        m0, m1, m2 = (_rows(live, m) for m in genfun.psi_family_moments(seq, cf, zs_real))
        # lambda z and (lambda + 1) z stay finite where lambda (lambda + 1) overflows
        m2_claim = (0.5 * (cf.lam * zs_real) * ((cf.lam + 1.0) * zs_real) * cf.omega2
                    + cf.lam * cf.alpha1 * zs_real + 1.0)
        return np.stack([_worst(live, m0 - 1.0), _worst(live, m1 - cf.lam * zs_real),
                         _worst(live, m2 - m2_claim)], axis=1)

    every = tuple(Family)
    beta = tuple(family for family in Family if family is not Family.FREE_MEIXNER)
    return [
        ([("series-vs-closed", len(zs) * 11, tol)], every, series),
        ([("moment-m0", len(zs_real), 1e-10), ("moment-m1", len(zs_real), 1e-9),
          ("moment-m2", len(zs_real), 1e-9)], every, moments),
        # the five coefficients of each degree-4 identity
        ([(name, 5, riccati.IDENTITY_BOUND) for name in
          ("riccati-residual-f", "riccati-residual-u", "moment-ode")], every,
         lambda live, cf, seq: np.stack(
             [_worst(live, r) for r in riccati.coefficient_residuals(cf, seq)], axis=1)),
        ([("beta-law-table", 2 * genfun.SERIES_CAP - 1, 1e-12)], beta,
         lambda live, cf, seq: _worst(live, identities.beta_law_table_check(cf, seq))),
    ]


def run_campaign(configs, zmax: float, grid: int, tol: float) -> list[dict]:
    """The reports of the configurations (family, lambda, a, b), evaluated
    check by check, one row of _checks at a time.

    Each configuration builds one closed form and one coefficient table,
    which all its checks read (_stack).  tol must be finite and > 0.
    If anything raises in a campaign of several configurations, each
    configuration is run again as a campaign of its own, in order: that
    loop raises the first failing configuration's first error, and gives
    the stacked reports otherwise.  A campaign of one raises its error.
    """
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must be a finite number > 0, got {tol}")
    configs = list(configs)
    try:
        runs, stacks = [_Run(*config, zmax, grid) for config in configs], {}
        for check in _checks(zmax, grid, tol):
            _stacked(runs, stacks, *check)
    except Exception:
        if len(configs) == 1:
            raise
        return [run_campaign([config], zmax, grid, tol)[0] for config in configs]
    return [run.report() for run in runs]


def _sweep_configs():
    for fam in (Family.SYM1, Family.SYM2, Family.NONSYM_PLUS, Family.NONSYM_MINUS):
        for lam in SWEEP_LAMBDAS:
            yield fam, lam, None, None
    for a, b in SWEEP_MEIXNER:
        yield Family.FREE_MEIXNER, None, a, b


def cmd_verify(args) -> int:
    start = time.perf_counter()
    if args.family is None:
        reports = run_campaign(_sweep_configs(), args.zmax, args.grid, args.tol)
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
        payload = run_campaign([(Family(args.family), args.lam, args.a, args.b)],
                               args.zmax, args.grid, args.tol)[0]
        all_passed = payload["all_passed"]
        payload["wall_time_ms"] = int(1000 * (time.perf_counter() - start))
    for report in payload.get("reports", [payload]):
        for check in report["checks"]:
            if not math.isfinite(check["max_residual"]):
                raise NumericalBreakdownError(
                    f"{check['name']} of {report['family']} reads {check['max_residual']}: "
                    "no report of a non-finite residual")
    _write_atomic(args.out, json.dumps(payload, allow_nan=False) + "\n")
    status = "all checks passed" if all_passed else "CHECK FAILURES (see report)"
    print(f"opgf verify: {status}; report written to {args.out}")
    return 0 if all_passed else 1


def _solution_dict(sol: riccati.ClassificationSolution) -> dict:
    return {
        "branch": sol.branch_label,
        "omega2": float(sol.omega2) + 0.0,  # + 0.0 folds -0.0 into 0.0
        "alpha1": float(sol.alpha1) + 0.0,
        "e_coeffs": [float(c) + 0.0 for c in sol.e_coeffs],
        "max_residual": float(sol.max_residual),
        "valid": sol.valid,
        "invalid_reason": sol.invalid_reason,
    }


def cmd_classify(args) -> int:
    lam = args.lam
    if not 0.0 < lam < math.inf:
        raise ParameterError(f"classify requires a finite lambda > 0, got {lam}")
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
            degenerate, solutions = riccati.solve_nonsymmetric(lam)
            payload["nonsymmetric"] = [_solution_dict(s) for s in solutions]
            payload["rejected_degenerate_omega2"] = float(degenerate) + 0.0
        except ParameterError as exc:
            payload["nonsymmetric_excluded"] = str(exc)
    _write_atomic(args.out, json.dumps(payload, allow_nan=False) + "\n")
    print(f"opgf classify: report written to {args.out}")
    return 0


def cmd_quadrature(args) -> int:
    family = Family(args.family)
    # a table of at least one entry, so that a bad --order meets
    # gauss_quadrature's message after any parameter error
    seq = measures.family_sequence(family, args.lam, args.a, args.b, size=max(args.order, 1))
    rule = measures.gauss_quadrature(seq, args.order)
    lam = 1.0 if family is Family.FREE_MEIXNER else args.lam
    header = f"family={family.value} lambda={lam:.17g} order={args.order}"
    if family is Family.FREE_MEIXNER:
        header += f" a={args.a:.17g} b={args.b:.17g}"
    _write_atomic(args.out, rule.csv_text(header))
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
    except OSError as exc:
        # strerror, not the exception text, which names the temporary file
        print(f"opgf {args.command}: cannot write {args.out}: {exc.strerror}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
