"""Mutation matrix: what each check of the verify campaign can catch.

Each mutation changes one function or constant of the package where the
verify campaign reaches it (DeMillo, Lipton and Sayward, 1978), runs the
full sweep in process and records the sorted names of the checks that fail,
or "raises <ErrorType>" when the campaign raises.  The expected matrix is
the fixture mutation_matrix.json, and a changed set fails the test.  The
fixture also holds three findings derived from the matrix and the check
names of sweep_structure.json: the checks that no mutation fails, the checks
that no mutation fails alone, and the mutations that no check catches.

Rewrite the fixture after a deliberate change with

    PYTHONPATH=src python tests/test_mutations.py
"""
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from opgf import Family, cli, families, genfun, identities, measures
from opgf.recurrence import JacobiSzegoSequence

MATRIX = Path(__file__).with_name("mutation_matrix.json")
SWEEP_STRUCTURE = Path(__file__).with_name("sweep_structure.json")
ZMAX, GRID, TOL = 0.1, 16, 1e-9


def table(family, start, alpha=0.0, omega=1.0):
    """measures.family_sequence with alpha_n + alpha and omega_n * omega from
    n = start in the tables of family."""
    def make(original):
        def mutated(fam, *args, **kwargs):
            seq = original(fam, *args, **kwargs)
            if Family(fam) is not family:
                return seq
            alphas, omegas = seq.alphas.copy(), seq.omegas.copy()
            alphas[start:] += alpha
            omegas[start:] *= omega
            return JacobiSzegoSequence(alphas, omegas)
        return mutated
    return measures, "family_sequence", make


def classical(name, start, alpha=0.0, omega=1.0):
    """identities.<name> (a classical sequence) with alpha_n + alpha and
    omega_n * omega from n = start, in a table or each row of a stack."""
    def make(original):
        def mutated(*args):
            seq = original(*args)
            alphas, omegas = seq.alphas.copy(), seq.omegas.copy()
            alphas[..., start:] += alpha
            omegas[..., start:] *= omega
            return JacobiSzegoSequence(alphas, omegas)
        return mutated
    return identities, name, make


def closed(family, **scale):
    """genfun.closed_form with the fields of family's closed form scaled:
    a coefficient of zf_coeffs or numerator_coeffs by its name c1, c2, d1
    or d2, another field (omega2) by its own name."""
    def make(original):
        def mutated(*args):
            cf = original(*args)
            if cf.family is not family:
                return cf
            zf, num = list(cf.zf_coeffs), list(cf.numerator_coeffs)
            fields = {}
            for name, factor in scale.items():
                if name in ("c1", "c2", "d1", "d2"):
                    (zf if name[0] == "c" else num)[int(name[1])] *= factor
                else:
                    fields[name] = getattr(cf, name) * factor
            return dataclasses.replace(cf, zf_coeffs=tuple(zf),
                                       numerator_coeffs=tuple(num), **fields)
        return mutated
    return genfun, "closed_form", make


def exponents_of(family, source):
    """families.beta_exponents giving family the exponents of source."""
    def make(original):
        def mutated(fam, lam):
            return original(source if Family(fam) is family else fam, lam)
        return mutated
    return families, "beta_exponents", make


def results(owner, name, change):
    """owner.<name> with change applied to each result it returns."""
    return owner, name, lambda original: lambda *args: change(original(*args))


def arguments(owner, name, change):
    """owner.<name> called with the arguments change(*args)."""
    return owner, name, lambda original: lambda *args: original(*change(*args))


def scaled_from(start, factor):
    """An array's entries from index start on along the first axis, times factor."""
    def change(values):
        values = np.array(values)
        values[start:] *= factor
        return values
    return change


def scaled_weight(rule):
    """A Gauss rule whose middle weight (of every rule of a stack) is off by 1e-8."""
    weights = rule.weights.copy()
    weights[..., weights.shape[-1] // 2] *= 1.0 + 1e-8
    return measures.QuadratureRule(rule.nodes, weights)


def loose_stop(original):
    """genfun._first_stop stopping at 2^-33 of the sum instead of 2^-53."""
    return lambda terms, slack, valid: original(terms, slack * 2.0**20, valid)


# name: the (owner, attribute, make) changes of the mutation; make takes the
# attribute's value and gives the mutated one.
MUTATIONS = {
    "table-sym1-omega-from-5": [table(Family.SYM1, 5, omega=1.0 + 1e-6)],
    "table-sym1-omega-from-10": [table(Family.SYM1, 10, omega=1.0 + 1e-6)],
    "table-sym2-omega-from-5": [table(Family.SYM2, 5, omega=1.0 + 1e-6)],
    "table-nonsym-plus-alpha-from-5": [table(Family.NONSYM_PLUS, 5, alpha=1e-6)],
    "table-nonsym-minus-omega-from-5": [table(Family.NONSYM_MINUS, 5, omega=1.0 + 1e-6)],
    "table-free-meixner-omega-from-5": [table(Family.FREE_MEIXNER, 5, omega=1.0 + 1e-6)],
    "table-nonsym-plus-alpha1": [table(Family.NONSYM_PLUS, 1, alpha=1e-6)],
    "table-free-meixner-alpha1": [table(Family.FREE_MEIXNER, 1, alpha=1e-6)],
    "table-free-meixner-alpha-1e-8": [table(Family.FREE_MEIXNER, 1, alpha=1e-8)],
    "jacobi-alpha-from-5": [classical("jacobi_sequence", 5, alpha=1e-6)],
    "sym2-exponents-of-sym1": [exponents_of(Family.SYM2, Family.SYM1)],
    "closed-sym1-c2": [closed(Family.SYM1, c2=1.0 + 1e-8)],
    "closed-sym2-d2": [closed(Family.SYM2, d2=1.0 + 1e-8)],
    "closed-sym2-d2-1e-12": [closed(Family.SYM2, d2=1.0 + 1e-12)],
    "closed-free-meixner-omega2": [closed(Family.FREE_MEIXNER, omega2=1.0 + 1e-8)],
    "closed-nonsym-plus-d1": [closed(Family.NONSYM_PLUS, d1=1.0 + 1e-8)],
    "closed-nonsym-minus-c1": [closed(Family.NONSYM_MINUS, c1=1.0 + 1e-8)],
    "closed-nonsym-plus-c2": [closed(Family.NONSYM_PLUS, c2=1.0 + 1e-8)],
    "closed-zf-c1-1e-12": [closed(Family.NONSYM_PLUS, c1=1.0 + 1e-12)],
    "psi-analytic-value": [results(genfun, "psi_analytic", lambda psi: psi * (1.0 + 1e-8))],
    "eval-monic-from-degree-5": [results(genfun, "eval_monic",
                                         scaled_from(5, 1.0 + 1e-6))],
    "first-stop-threshold": [(genfun, "_first_stop", loose_stop)],
    "truncation-g-halved": [arguments(genfun, "_truncation",
                                      lambda seq, lams, xs, r: (seq, lams, xs, 0.5 * r))],
    "gauss-weight": [results(measures, "gauss_quadrature", scaled_weight)],
}


def caught(changes=()) -> str | list:
    """The sorted names of the checks that fail on the sweep with changes
    made, or "raises <ErrorType>"."""
    with pytest.MonkeyPatch.context() as patch:
        for owner, name, make in changes:
            patch.setattr(owner, name, make(getattr(owner, name)))
        try:
            reports = cli.run_campaign(cli._sweep_configs(), ZMAX, GRID, TOL)
        except Exception as exc:
            return f"raises {type(exc).__name__}"
    return sorted({check["name"] for report in reports for check in report["checks"]
                   if not check["passed"]})


def findings(matrix) -> dict:
    """The checks of the sweep that no mutation of matrix fails, those that
    no mutation fails alone, and its mutations that no check catches."""
    checks = {name for report in json.loads(SWEEP_STRUCTURE.read_text())
              for name, _, _ in report["checks"]}
    rows = [row for row in matrix.values() if isinstance(row, list)]
    failed = {name for row in rows for name in row}
    alone = {row[0] for row in rows if len(row) == 1}
    return {
        "checks_no_mutation_fails": sorted(checks - failed),
        "checks_no_mutation_of_their_own": sorted(checks - alone),
        "mutations_no_check_catches": sorted(name for name, row in matrix.items() if not row),
    }


def fixture() -> dict:
    return json.loads(MATRIX.read_text())


def test_unmutated_sweep_passes():
    assert caught() == []


def test_fixture_lists_every_mutation_of_this_campaign():
    expected = fixture()
    assert expected["campaign"] == {"zmax": ZMAX, "grid": GRID, "tol": TOL}
    assert list(expected["matrix"]) == list(MUTATIONS)


@pytest.mark.parametrize("name", MUTATIONS)
def test_mutation_caught_set(name):
    assert caught(MUTATIONS[name]) == fixture()["matrix"][name]


def test_findings_follow_from_the_matrix():
    expected = fixture()
    assert expected["findings"] == findings(expected["matrix"])


if __name__ == "__main__":
    matrix = {name: caught(changes) for name, changes in MUTATIONS.items()}
    text = json.dumps({"campaign": {"zmax": ZMAX, "grid": GRID, "tol": TOL},
                       "matrix": matrix, "findings": findings(matrix)}, indent=1)
    MATRIX.write_text(text + "\n")
    sys.stdout.write(text + "\n")
