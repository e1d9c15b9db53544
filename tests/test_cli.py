"""Tests for the command-line front end: exit codes, reports, determinism."""
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import opgf
from opgf import Family, ParameterError, cli, genfun, identities, measures, riccati
from opgf.cli import main, run_campaign
from opgf.recurrence import eval_monic

# Ordered (name, points_tested, passed) of every check in the default full
# sweep; a refactor must leave it unchanged.
SWEEP_STRUCTURE = Path(__file__).with_name("sweep_structure.json")
# `opgf classify --lambda L` report text for L over 0.05 .. 40 and the
# lambda = 1/2 and lambda = 1 guard edges; a faster kernel must not move a bit.
CLASSIFY_REFERENCE = json.loads(
    Path(__file__).with_name("classify_reference.json").read_text()
)


def run(args):
    return main(args)


class TestVerify:
    def test_single_family_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--family", "sym1", "--lambda", "2", "--zmax", "0.1",
                    "--grid", "16", "--tol", "1e-9", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 2
        assert report["family"] == "sym1"
        assert report["lambda"] == 2.0
        assert report["all_passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert names == {"series-vs-closed", "moment-m0", "moment-m1", "moment-m2",
                         "riccati-residual-f", "riccati-residual-u", "moment-ode",
                         "beta-law-table"}
        for check in report["checks"]:
            assert check["passed"] == (check["max_residual"] <= check["tolerance"])
            assert check["points_tested"] >= 1

    def test_free_meixner_check_names(self, tmp_path):
        out = tmp_path / "fm.json"
        code = run(["verify", "--family", "free-meixner", "--a", "0.5", "--b", "0.25",
                    "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        names = [c["name"] for c in report["checks"]]
        assert names == ["series-vs-closed", "moment-m0", "moment-m1", "moment-m2",
                         "riccati-residual-f", "riccati-residual-u", "moment-ode"]

    def test_invalid_lambda_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = run(["verify", "--family", "sym1", "--lambda", "-1", "--out", str(out)])
        assert code == 2
        assert "lambda must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_zmax_validation(self, tmp_path):
        out = tmp_path / "x.json"
        code = run(["verify", "--family", "sym1", "--lambda", "2", "--zmax", "2.0",
                    "--out", str(out)])
        assert code == 2

    def test_failing_tolerance_exits_1_report_written(self, tmp_path):
        out = tmp_path / "fail.json"
        code = run(["verify", "--family", "sym1", "--lambda", "2", "--tol", "1e-30",
                    "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["all_passed"] is False
        series = next(c for c in report["checks"] if c["name"] == "series-vs-closed")
        assert series["passed"] is False

    def test_determinism_excluding_wall_time(self, tmp_path):
        texts = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            assert run(["verify", "--family", "sym2", "--lambda", "1.5",
                        "--out", str(out)]) == 0
            texts.append(re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": X',
                                out.read_text()))
        assert texts[0] == texts[1]

    def test_sym1_below_half_passes(self, tmp_path):
        out = tmp_path / "small.json"
        assert run(["verify", "--family", "sym1", "--lambda", "0.4",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["all_passed"] is True

    @pytest.mark.parametrize("args", [
        ("--family", "free-meixner", "--a", "0", "--b", "-1"),
        ("--family", "free-meixner", "--a", "0.7", "--b", "-1"),
        ("--family", "nonsym-plus", "--lambda", "0.51"),
        ("--family", "nonsym-minus", "--lambda", "0.51"),
        ("--family", "sym1", "--lambda", "0.5"),
    ])
    def test_documented_edge_passes(self, tmp_path, args):
        # two-point free Meixner law, the 0.51 guard band, lambda = 1/2
        out = tmp_path / "edge.json"
        assert run(["verify", *args, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["all_passed"] is True

    @pytest.mark.parametrize("args", [
        ("--family", "sym1", "--lambda", "0.1", "--zmax", "0.02", "--grid", "5"),
        ("--family", "sym2", "--lambda", "0.55", "--zmax", "0.02"),
        ("--family", "sym1", "--lambda", "0.2", "--zmax", "0.03"),
    ])
    def test_small_zmax_moment_ode_passes(self, tmp_path, args):
        # the moment ODE is differentiated in closed form, so points near the
        # z^(lambda-1) behaviour at 0 are checked as accurately as far ones
        out = tmp_path / "small_zmax.json"
        assert run(["verify", *args, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["all_passed"] is True

    def test_tiny_zmax_gives_a_report(self, tmp_path):
        # a documented-valid zmax: a report and exit 0 or 1, never exit 2
        out = tmp_path / "tiny_zmax.json"
        code = run(["verify", "--family", "sym1", "--lambda", "2", "--zmax", "1e-5",
                    "--out", str(out)])
        assert code in (0, 1)
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert checks["moment-ode"]["passed"] is True

    def test_parser_shared_between_calls(self, tmp_path):
        # the parser is built once; a second call must not see the first
        # call's options
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert run(["verify", "--family", "sym2", "--lambda", "1.5", "--grid", "8",
                    "--out", str(first)]) == 0
        assert run(["verify", "--family", "sym1", "--lambda", "2",
                    "--out", str(second)]) == 0
        report = json.loads(second.read_text())
        assert (report["family"], report["lambda"]) == ("sym1", 2.0)
        series = next(c for c in report["checks"] if c["name"] == "series-vs-closed")
        assert series["points_tested"] == 16 * 11

    def test_report_numbers_are_floats_and_never_negative_zero(self, tmp_path):
        # every report number but the counts is written as a JSON float that
        # round-trips exactly, and -0.0 (classify's rejected_degenerate_omega2
        # at lambda = 2, a verify --a=-0.0) is folded into 0.0
        counts = {"schema", "points_tested", "wall_time_ms"}

        def numbers(node, key=None):
            if isinstance(node, dict):
                for name, value in node.items():
                    yield from numbers(value, name)
            elif isinstance(node, list):
                for value in node:
                    yield from numbers(value, key)
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                yield key, node

        reports = {}
        for name, argv in [
            ("sweep", ["verify"]),
            ("classify", ["classify", "--lambda", "2"]),
            ("free-meixner", ["verify", "--family", "free-meixner", "--a=-0.0", "--b", "0"]),
        ]:
            out = tmp_path / f"{name}.json"
            assert run([*argv, "--out", str(out)]) == 0
            reports[name] = json.loads(out.read_text())
        assert [r["lambda"] for r in reports["sweep"]["reports"]] == [
            1.0 if lam is None else lam for _, lam, _, _ in cli._sweep_configs()]
        assert reports["classify"]["rejected_degenerate_omega2"] == 0.0
        for name, report in reports.items():
            found = list(numbers(report))
            assert "schema" in {key for key, _ in found}, name
            for key, value in found:
                assert isinstance(value, int if key in counts else float), (name, key, value)
                assert value != 0 or math.copysign(1.0, value) == 1.0, (name, key)

    def test_full_sweep_deterministic(self, tmp_path):
        texts = []
        for name in ("s1.json", "s2.json"):
            out = tmp_path / name
            assert run(["verify", "--out", str(out)]) == 0
            texts.append(re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": X',
                                out.read_text()))
        assert texts[0] == texts[1]
        report = json.loads(texts[0].replace('"wall_time_ms": X',
                                             '"wall_time_ms": 0'))
        assert report["campaign"] == "full-sweep"
        assert len(report["reports"]) == 23
        assert report["all_passed"] is True

    def test_full_sweep_structure_unchanged(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run(["verify", "--out", str(out)]) == 0
        reports = json.loads(out.read_text())["reports"]
        got = [
            {"family": r["family"], "lambda": r["lambda"], "a": r["a"], "b": r["b"],
             "checks": [[c["name"], c["points_tested"], c["passed"]]
                        for c in r["checks"]]}
            for r in reports
        ]
        assert got == json.loads(SWEEP_STRUCTURE.read_text())


@pytest.mark.parametrize("family, lam, a, b", [
    (Family.SYM1, 2.0, None, None),
    (Family.SYM2, 1.5, None, None),
    (Family.NONSYM_PLUS, 2.0, None, None),
    (Family.NONSYM_MINUS, 0.6, None, None),
    (Family.FREE_MEIXNER, None, 0.5, 0.25),
])
def test_one_array_call_per_check(family, lam, a, b, monkeypatch):
    # each closed-form check evaluates its whole point set in one call
    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("closed_form", "psi_analytic"):
        counted(genfun, name)
    counted(riccati, "coefficient_residuals")
    report = run_campaign([(family, lam, a, b)], zmax=0.1, grid=16, tol=1e-9)[0]
    assert report["all_passed"]
    # series-vs-closed and the moments evaluate one psi_analytic grid each
    assert calls["closed_form"] == 1
    assert calls["psi_analytic"] == 2
    assert calls["coefficient_residuals"] == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "nonsym-plus", "--lambda", "2"],
    ["verify"],
], ids=["nonsym-plus", "sweep"])
def test_one_coefficient_residuals_call_per_campaign(argv, tmp_path, monkeypatch):
    # the three coefficient records of every configuration come from one
    # call over the campaign's stack
    calls = []
    coefficient_residuals = riccati.coefficient_residuals

    def counted(cf, seq):
        calls.append(len(stack_families(cf)))
        return coefficient_residuals(cf, seq)

    monkeypatch.setattr(riccati, "coefficient_residuals", counted)
    assert run([*argv, "--out", str(tmp_path / "report.json")]) == 0
    assert calls == [1 if len(argv) > 1 else 23]
    report = json.loads((tmp_path / "report.json").read_text())
    for one in report.get("reports", [report]):
        names = [c["name"] for c in one["checks"]]
        assert names[4:7] == ["riccati-residual-f", "riccati-residual-u", "moment-ode"]


@pytest.mark.parametrize("argv, configs", [
    (["verify", "--family", "nonsym-plus", "--lambda", "2"], 1),
    (["verify"], 23),
], ids=["nonsym-plus", "sweep"])
def test_one_closed_form_and_one_table_per_configuration(argv, configs, tmp_path,
                                                         monkeypatch):
    # every check of a configuration reads the same closed form and table
    calls = {"family_sequence": 0, "closed_form": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(measures, "family_sequence")
    counted(genfun, "closed_form")
    assert run([*argv, "--out", str(tmp_path / "report.json")]) == 0
    assert calls == {"family_sequence": configs, "closed_form": configs}


# The configurations each identity call of a full sweep stacks: one call,
# beta-law-table's over the campaign's twenty configurations of a Beta law.
IDENTITY_STACKS = {
    "beta_law_table_check": [20],
}
# psi_series_stack rows per sweep: series-vs-closed over the 23
# configurations.
SERIES_STACKS = [23]
# eval_monic tables per sweep: the series pass above, and nothing else.
MONIC_STACKS = [23]


# The closed-form checks, each one call over the stack of the campaign's
# closed forms.  psi_analytic serves series-vs-closed, then the moments
# inside psi_family_moments.
STACKED_CHECKS = ((genfun, "psi_analytic"), (genfun, "psi_family_moments"),
                  (riccati, "coefficient_residuals"))
CLOSED_ROWS = {name: [23] for _, name in STACKED_CHECKS} | {"psi_analytic": [23, 23]}


def test_sweep_evaluates_each_lambda_identity_once(tmp_path, monkeypatch):
    # one stacked series pass, one call over the 23 closed forms per
    # closed-form check, one call per identity over the configurations it
    # checks, and nothing kept from one sweep to the next
    calls, stack_rows, closed_rows = {}, [], {}

    def counted(name):
        fn = getattr(identities, name)

        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(len(stack_families(args[0])))
            return fn(*args, **kwargs)

        monkeypatch.setattr(identities, name, wrapper)

    def counted_closed(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            cf = next(arg for arg in args if isinstance(arg, genfun.GenFunClosedForm))
            closed_rows.setdefault(name, []).append(len(stack_families(cf)))
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in IDENTITY_STACKS:
        counted(name)
    for module, name in STACKED_CHECKS:
        counted_closed(module, name)
    stack = genfun.psi_series_stack

    def counted_stack(seqs, *args, **kwargs):
        stack_rows.append(len(seqs.alphas))
        return stack(seqs, *args, **kwargs)

    monkeypatch.setattr(genfun, "psi_series_stack", counted_stack)
    monic_rows = []

    def counted_monic(seqs, n_max, x):
        monic_rows.append(len(seqs.alphas))
        return eval_monic(seqs, n_max, x)

    monkeypatch.setattr(genfun, "eval_monic", counted_monic)
    for _ in range(2):
        calls.clear()
        stack_rows.clear()
        closed_rows.clear()
        monic_rows.clear()
        assert run(["verify", "--out", str(tmp_path / "sweep.json")]) == 0
        assert calls == IDENTITY_STACKS
        assert stack_rows == SERIES_STACKS
        assert monic_rows == MONIC_STACKS
        assert closed_rows == CLOSED_ROWS


def test_sweep_reports_equal_single_family_reports(tmp_path):
    # the campaign of 23 gives each configuration the report of its own run
    out = tmp_path / "sweep.json"
    assert run(["verify", "--zmax", "0.1", "--grid", "16", "--out", str(out)]) == 0
    for report in json.loads(out.read_text())["reports"]:
        argv = ["verify", "--family", report["family"], "--zmax", "0.1", "--grid", "16"]
        if report["family"] == "free-meixner":
            argv += [f"--a={report['a']!r}", f"--b={report['b']!r}"]
        else:
            argv += ["--lambda", repr(report["lambda"])]
        single = tmp_path / "single.json"
        assert run([*argv, "--out", str(single)]) == 0
        expected = json.loads(single.read_text())
        del expected["wall_time_ms"]
        assert report == expected
    # so do the moment records of a free Meixner row past the Gauss rules'
    # ratio guard beside sym1; at this zmax the other records overflow
    configs = [(Family.SYM1, 2.0, None, None), (Family.FREE_MEIXNER, None, 0.5, 1e300)]
    with np.errstate(all="ignore"):
        stacked = run_campaign(configs, 4.5e-151, 16, 1e-9)[1]["checks"]
        own = run_campaign(configs[1:], 4.5e-151, 16, 1e-9)[0]["checks"]
    assert [record["name"] for record in stacked[1:4]] == ["moment-m0", "moment-m1", "moment-m2"]
    assert stacked[1:4] == own[1:4]


def stack_families(cf):
    """The families of a closed form or of a stack of them."""
    return np.ravel(np.asarray(cf.family, dtype=object)).tolist()


@pytest.mark.parametrize("order", ["check-error-first", "setup-error-first"])
def test_campaign_raises_what_a_per_configuration_loop_meets_first(order, monkeypatch):
    # a check error of the first configuration beats a set-up error of the
    # second, as in a loop that runs each configuration to the end in turn;
    # the coefficient identities are one call over the stack of closed
    # forms, which fails whenever it holds sym1
    coefficient_residuals = riccati.coefficient_residuals

    def failing(cf, *args):
        if Family.SYM1 in stack_families(cf):
            raise ParameterError("moment-ode of sym1")
        return coefficient_residuals(cf, *args)

    monkeypatch.setattr(riccati, "coefficient_residuals", failing)
    configs = [(Family.SYM1, 2.0, None, None), (Family.SYM2, 0.3, None, None)]
    if order == "setup-error-first":
        configs.reverse()
    with pytest.raises(ParameterError) as excinfo:
        run_campaign(configs, 0.1, 16, 1e-9)
    expected = ("moment-ode of sym1" if order == "check-error-first"
                else "sym2 requires lambda > 1/2")
    assert str(excinfo.value).startswith(expected)


class TestClassify:
    def test_lambda2_three_families(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["classify", "--lambda", "2", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        omegas = sorted(
            [s["omega2"] for s in report["symmetric"] if s["valid"]]
            + [report["nonsymmetric"][0]["omega2"]]
        )
        assert omegas == pytest.approx(sorted([1.25, 1.0, 32.0 / 27.0]))
        assert report["rejected_degenerate_omega2"] == pytest.approx(0.0, abs=1e-14)
        assert report["note"] is None

    def test_lambda_one_note(self, tmp_path):
        out = tmp_path / "c1.json"
        assert run(["classify", "--lambda", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "free Meixner" in report["note"]
        assert report["symmetric"] is None

    def test_lambda_small_only_sym1_valid(self, tmp_path):
        out = tmp_path / "c04.json"
        assert run(["classify", "--lambda", "0.4", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        valid = [s for s in report["symmetric"] if s["valid"]]
        assert len(valid) == 1
        assert valid[0]["branch"] == "sym1"
        assert report["nonsymmetric"] is None
        assert "1/2" in report["nonsymmetric_excluded"]

    def test_invalid_lambda(self, tmp_path, capsys):
        assert run(["classify", "--lambda", "-2",
                    "--out", str(tmp_path / "x.json")]) == 2
        assert "lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    def test_non_finite_lambda_exits_2(self, lam, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(["classify", f"--lambda={lam}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"opgf classify: classify requires a finite lambda > 0, got {float(lam)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("lam", list(CLASSIFY_REFERENCE))
    def test_report_bytes_unchanged(self, lam, tmp_path):
        out = tmp_path / "c.json"
        assert run(["classify", "--lambda", lam, "--out", str(out)]) == 0
        assert out.read_text() == CLASSIFY_REFERENCE[lam]

    def test_nonsymmetric_roots_solved_once(self, tmp_path, monkeypatch):
        # at lambda = 2: 15 coefficient-matching evaluations for the two
        # symmetric branches, 11 for the non-symmetric omega_2 roots, which
        # the report's degenerate root and the solutions share, and 8 more
        # for the non-symmetric solutions
        calls = []
        matching_residual = riccati._matching_residual

        def counted(*args):
            calls.append(args)
            return matching_residual(*args)

        monkeypatch.setattr(riccati, "_matching_residual", counted)
        assert run(["classify", "--lambda", "2", "--out", str(tmp_path / "c.json")]) == 0
        assert len(calls) == 15 + 11 + 8


class TestQuadrature:
    def test_uniform_two_point(self, tmp_path):
        out = tmp_path / "q.csv"
        assert run(["quadrature", "--family", "sym1", "--lambda", "0.5",
                    "--order", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# family=sym1 lambda=0.5 order=2")
        assert lines[1] == "node,weight"
        rows = [tuple(map(float, line.split(","))) for line in lines[2:]]
        assert rows[0] == pytest.approx((-1.0, 0.5))
        assert rows[1] == pytest.approx((1.0, 0.5))

    def test_order_one(self, tmp_path):
        out = tmp_path / "q1.csv"
        assert run(["quadrature", "--family", "sym2", "--lambda", "1.5",
                    "--order", "1", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        node, weight = map(float, rows[0].split(","))
        assert node == pytest.approx(0.0, abs=1e-15)
        assert weight == pytest.approx(1.0)

    def test_nonsym_order20_weights_sum_one(self, tmp_path):
        out = tmp_path / "q20.csv"
        assert run(["quadrature", "--family", "nonsym-plus", "--lambda", "2",
                    "--order", "20", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert len(rows) == 20
        assert sum(float(w) for _, w in rows) == pytest.approx(1.0, abs=1e-12)

    def test_io_failure_exits_3(self, tmp_path, capsys):
        code = run(["quadrature", "--family", "sym1", "--lambda", "0.5",
                    "--order", "2", "--out", str(tmp_path / "no-dir" / "q.csv")])
        assert code == 3
        assert "cannot write" in capsys.readouterr().err

    def test_free_meixner_header_carries_ab(self, tmp_path):
        out = tmp_path / "fm.csv"
        assert run(["quadrature", "--family", "free-meixner", "--a", "0.5",
                    "--b", "0.25", "--order", "6", "--out", str(out)]) == 0
        assert "a=0.5 b=0.25" in out.read_text().splitlines()[0]

    def test_bad_parameters_exit_2(self, tmp_path):
        assert run(["quadrature", "--family", "sym2", "--lambda", "0.4",
                    "--order", "4", "--out", str(tmp_path / "x.csv")]) == 2


# Commands that build no Gauss rule above measures.DENSE_EIGH_MAX_ORDER nodes,
# nor a symmetric one above twice that (its half-size matrix is dense too),
# except free Meixner rules at a != 0, which are in closed form.
SMALL_COMMANDS = [
    ["verify"],
    ["verify", "--family", "sym1", "--lambda", "2"],
    ["verify", "--family", "sym2", "--lambda", "0.75"],
    ["verify", "--family", "nonsym-plus", "--lambda", "0.6"],
    ["verify", "--family", "nonsym-minus", "--lambda", "2.5"],
    ["verify", "--family", "free-meixner", "--a", "0.5", "--b=-1"],
    ["classify", "--lambda", "2"],
    ["quadrature", "--family", "sym1", "--lambda", "2",
     "--order", str(measures.DENSE_EIGH_MAX_ORDER)],
    ["quadrature", "--family", "sym2", "--lambda", "2",
     "--order", str(2 * measures.DENSE_EIGH_MAX_ORDER)],
    ["quadrature", "--family", "free-meixner", "--a", "0.5", "--b", "0.25", "--order", "1000"],
    ["quadrature", "--family", "free-meixner", "--a", "0.9", "--b=-0.5", "--order", "1000"],
]


def test_small_commands_leave_out_scipy(tmp_path):
    # numpy builds the small Gauss rules, so verify, classify and small
    # exports never load scipy; a larger export imports its tridiagonal
    # solver, each control in a fresh process after the small commands
    code = (
        "import contextlib, io, json, sys\n"
        "from opgf.cli import main\n"
        "loaded = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    loaded.append([code, sorted(m for m in sys.modules if m.startswith('scipy'))])\n"
        "print(json.dumps(loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(opgf.__file__).resolve().parents[1]))
    for large in (["quadrature", "--family", "nonsym-plus", "--lambda", "2",
                   "--order", str(measures.DENSE_EIGH_MAX_ORDER + 1)],
                  ["quadrature", "--family", "sym1", "--lambda", "2",
                   "--order", str(2 * measures.DENSE_EIGH_MAX_ORDER + 1)]):
        commands = [argv + ["--out", str(tmp_path / f"out{k}")]
                    for k, argv in enumerate(SMALL_COMMANDS + [large])]
        result = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                                capture_output=True, text=True, check=True)
        loaded = json.loads(result.stdout)
        assert loaded[:-1] == [[0, []]] * len(SMALL_COMMANDS)
        assert loaded[-1][0] == 0 and "scipy.linalg" in loaded[-1][1]


def test_quadrature_at_huge_lambda_exits_2_with_a_message(tmp_path):
    # documented (sym1 takes any lambda > 0) but beyond double precision,
    # where n + 2 lambda overflows: one line on stderr, with no
    # RuntimeWarning before it even when warnings are errors
    env = dict(os.environ, PYTHONPATH=str(Path(opgf.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "opgf", "quadrature",
         "--family", "sym1", "--lambda", "1e308", "--order", "24",
         "--out", str(tmp_path / "rule.csv")],
        env=env, capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stderr == ("opgf quadrature: omega_2 = inf is not finite: "
                             "no Gauss rule of order 24\n")


@pytest.mark.parametrize("lam", ["1e16", "1e18", "1e20", "1e80", "1e100", "1e150", "1e154",
                                 "1e200", "1e300"])
def test_quadrature_at_large_lambda_still_exports(lam, tmp_path):
    # the rule needs only the recurrence, which stays finite here: its
    # entries are products of ratios of O(1); a RuntimeWarning would be an
    # error
    out = tmp_path / "rule.csv"
    for order in (24, 100):
        assert run(["quadrature", "--family", "sym1", "--lambda", lam, "--order", str(order),
                    "--out", str(out)]) == 0
        rule = np.loadtxt(out, delimiter=",", skiprows=2)
        assert rule.shape == (order, 2) and np.isfinite(rule).all()


@pytest.mark.parametrize("family, lam", [("sym1", 1e160), ("nonsym-minus", 1e155)])
def test_moment_m2_claim_stays_finite_at_huge_lambda(family, lam):
    # the claim multiplies (lambda z) ((lambda + 1) z), where lambda (lambda +
    # 1) alone overflowed
    report, = run_campaign([(Family(family), lam, None, None)], 1e-300, 4, 1e-9)
    m2, = (check for check in report["checks"] if check["name"] == "moment-m2")
    assert m2["passed"] and math.isfinite(m2["max_residual"])


def test_verify_with_a_non_finite_residual_exits_2_with_one_line(tmp_path):
    # the series of sym2 at lambda = 1e200 is not finite (its recurrence
    # overflows, with RuntimeWarnings, ignored here): the command names the
    # check, the family and the value, and writes no report
    env = dict(os.environ, PYTHONPATH=str(Path(opgf.__file__).resolve().parents[1]))
    out = tmp_path / "report.json"
    result = subprocess.run(
        [sys.executable, "-W", "ignore::RuntimeWarning", "-m", "opgf", "verify",
         "--family", "sym2", "--lambda", "1e200", "--zmax", "1e-300", "--grid", "4",
         "--out", str(out)],
        env=env, capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stderr == ("opgf verify: series-vs-closed of sym2 reads nan: "
                             "no report of a non-finite residual\n")
    assert not out.exists()


def readme_checks_table():
    """(name, families, points, tolerance) of each row of the README's
    table of verify checks; "all" names every family."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| check | families | points | tolerance | compares |") + 2
    rows = []
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        name, families, points, tolerance = (
            cell.strip().strip("`") for cell in line.strip("|").split("|")[:4])
        rows.append((name, set(Family) if families == "all"
                     else {Family(value) for value in families.split(", ")},
                     int(points), float(tolerance.split()[0])))
    return rows


def test_readme_checks_table_matches_the_campaign():
    # the README's table of verify checks is the campaign's table at the
    # defaults --zmax 0.1 --grid 16 --tol 1e-9, row for row
    assert readme_checks_table() == [
        (name, set(families), points, tolerance)
        for records, families, _ in cli._checks(0.1, 16, 1e-9)
        for name, points, tolerance in records]


def test_public_names_resolve():
    # every name the package exports exists, once
    import opgf

    assert len(set(opgf.__all__)) == len(opgf.__all__)
    for name in opgf.__all__:
        assert getattr(opgf, name, None) is not None, name


def test_stacked_step_error_stays_with_its_configuration(monkeypatch):
    # sym2 makes the stacked coefficient_residuals call fail, sym1 fails
    # only later in beta-law-table: a loop that runs each configuration to
    # the end in turn meets sym1's error first, and so must the campaign
    coefficient_residuals = riccati.coefficient_residuals
    beta_law_table_check = identities.beta_law_table_check

    def failing_residuals(cf, *args):
        if Family.SYM2 in stack_families(cf):
            raise ParameterError("residual-f of sym2")
        return coefficient_residuals(cf, *args)

    def failing_table(cf, *args):
        if Family.SYM1 in stack_families(cf):
            raise ParameterError("beta-law-table of sym1")
        return beta_law_table_check(cf, *args)

    monkeypatch.setattr(riccati, "coefficient_residuals", failing_residuals)
    monkeypatch.setattr(identities, "beta_law_table_check", failing_table)
    configs = [(Family.SYM1, 2.0, None, None), (Family.SYM2, 1.5, None, None),
               (Family.NONSYM_PLUS, 2.0, None, None)]
    with pytest.raises(ParameterError, match="^beta-law-table of sym1$"):
        run_campaign(configs, 0.1, 16, 1e-9)
    with pytest.raises(ParameterError, match="^residual-f of sym2$"):
        run_campaign(configs[1:], 0.1, 16, 1e-9)


IDENTITY_STEP_CONFIGS = [(Family.SYM1, 0.6, None, None), (Family.SYM1, 1.5, None, None),
                         (Family.NONSYM_PLUS, 1.5, None, None),
                         (Family.NONSYM_MINUS, 2.0, None, None),
                         (Family.NONSYM_PLUS, 2.0, None, None), (Family.SYM1, 2.0, None, None)]


@pytest.mark.parametrize("name, bad_lam, failing", [
    # one call over the stack of closed forms: beta-law-table's holds all
    # six configurations, lambda = 2 three times, 1.5 twice and 0.6, the
    # first, once
    ("beta_law_table_check", 2.0, [3, 4, 5]),
    ("beta_law_table_check", 1.5, [1, 2]),
    ("beta_law_table_check", 0.6, [0]),
])
def test_identity_error_stays_with_its_configuration(name, bad_lam, failing, monkeypatch):
    # an identity that raises at one lambda makes the campaign raise that
    # error; the configurations of other lambdas still give, stacked, the
    # reports of their own campaigns of one
    identity = getattr(identities, name)

    def failing_identity(stack, *args):
        if bad_lam in np.ravel(stack.lam):
            raise ParameterError(f"{name} at {bad_lam}")
        return identity(stack, *args)

    monkeypatch.setattr(identities, name, failing_identity)
    with pytest.raises(ParameterError, match=f"^{name} at {bad_lam}$"):
        run_campaign(IDENTITY_STEP_CONFIGS, 0.1, 16, 1e-9)
    passing = []
    for index, config in enumerate(IDENTITY_STEP_CONFIGS):
        if index not in failing:
            passing.append(config)
            continue
        with pytest.raises(ParameterError, match=f"^{name} at {bad_lam}$"):
            run_campaign([config], 0.1, 16, 1e-9)
    assert run_campaign(passing, 0.1, 16, 1e-9) == [
        run_campaign([config], 0.1, 16, 1e-9)[0] for config in passing]


def test_stack_only_error_gives_the_reports_of_campaigns_of_one(monkeypatch):
    # a stacked step that raises only on stacks of more than one row sends
    # the sweep through its campaigns of one, whose reports equal the
    # stacked ones record for record
    configs = list(cli._sweep_configs())
    stacked = run_campaign(configs, 0.1, 16, 1e-9)
    coefficient_residuals, raised = riccati.coefficient_residuals, []

    def stack_only_failure(cf, *args):
        if np.size(cf.lam) > 1:
            raised.append(np.size(cf.lam))
            raise ParameterError("residual-u of a stack")
        return coefficient_residuals(cf, *args)

    monkeypatch.setattr(riccati, "coefficient_residuals", stack_only_failure)
    reports = run_campaign(configs, 0.1, 16, 1e-9)
    assert raised == [len(configs)]
    assert len(reports) == len(configs) == 23
    for report, config, expected in zip(reports, configs, stacked, strict=True):
        assert report == run_campaign([config], 0.1, 16, 1e-9)[0] == expected


@pytest.mark.parametrize("lam", ["1e-300", "1e-20", "0.05"])
def test_tiny_sym1_lambda_gives_a_passing_report(lam, tmp_path):
    # the sym1 table, closed form and series stay finite and free of a 0/0
    # however small lambda is
    out = tmp_path / "tiny_lambda.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["verify", "--family", "sym1", "--lambda", lam, "--zmax", "0.02",
                    "--grid", "4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["all_passed"] is True


@pytest.mark.parametrize("args", [
    ["--grid", "4", "--zmax", "1e-300"],
    ["--family", "sym1", "--lambda", "2", "--grid", "4", "--zmax", "5e-324"],
    ["--family", "sym1", "--lambda", "2", "--grid", "4", "--zmax", "1e-323"],
], ids=["sweep-1e-300", "sym1-5e-324", "sym1-1e-323"])
def test_tiny_zmax_gives_a_passing_report(args, tmp_path):
    # the Riccati and moment-ODE rows evaluate no z: no 1/z overflows, and
    # no point of theirs rounds to z = 0
    out = tmp_path / "tiny_zmax.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["verify", *args, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["all_passed"] is True


def test_huge_free_meixner_a_names_a_finite_radius(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run(["verify", "--family", "free-meixner", "--a", "1e160", "--b", "0",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "opgf verify: zmax must lie in (0, 9e-161) for free-meixner, got 0.1\n")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
@pytest.mark.parametrize("family", [["--family", "sym1", "--lambda", "2"], []],
                         ids=["sym1", "sweep"])
def test_non_finite_or_non_positive_tol_exits_2(tol, family, tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run(["verify", *family, f"--tol={tol}", "--out", str(out)]) == 2
    assert "tol must be a finite number > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["a", "b"])
@pytest.mark.parametrize("command", [["verify"], ["quadrature", "--order", "3"]],
                         ids=["verify", "quadrature"])
def test_non_finite_free_meixner_parameter_exits_2(command, name, value, tmp_path, capsys):
    params = {"a": "0", "b": "0", name: value}
    out = tmp_path / "x.out"
    assert run([*command, "--family", "free-meixner", f"--a={params['a']}",
                f"--b={params['b']}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"opgf {command[0]}: free-meixner requires a finite {name}, "
        f"got {name}={float(value)}\n")
    assert not out.exists()


@pytest.mark.parametrize("lam", ["nan", "inf", "2", "0.9", "1.0000000000001"])
@pytest.mark.parametrize("command", [["verify"], ["quadrature", "--order", "4"]],
                         ids=["verify", "quadrature"])
def test_free_meixner_lambda_other_than_one_exits_2(command, lam, tmp_path, capsys):
    out = tmp_path / "x.out"
    assert run([*command, "--family", "free-meixner", f"--lambda={lam}", "--a", "0",
                "--b", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"opgf {command[0]}: free-meixner has lambda = 1; drop the lambda argument\n")
    assert not out.exists()


def test_every_output_takes_the_mode_of_a_plain_write(tmp_path):
    # under umask 022 a plain open(path, "w") makes -rw-r--r--; the atomic
    # write's temporary file must not keep mkstemp's owner-only mode
    commands = [["verify", "--family", "sym1", "--lambda", "2"], ["classify", "--lambda", "2"],
                ["quadrature", "--family", "sym1", "--lambda", "2", "--order", "4"]]
    outs = [tmp_path / f"out{k}" for k in range(len(commands))]
    previous = os.umask(0o022)
    try:
        for command, out in zip(commands, outs):
            assert run([*command, "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    assert [stat.S_IMODE(out.stat().st_mode) for out in outs] == [0o644] * 3


def test_outputs_leave_the_process_umask_alone(tmp_path, monkeypatch):
    # os.umask can only be read by setting it, for every thread of the
    # process: the writes take the umask from os.open's mode instead
    def no_umask(*args):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", no_umask)
    commands = [["verify", "--family", "sym1", "--lambda", "2"], ["classify", "--lambda", "2"],
                ["quadrature", "--family", "sym1", "--lambda", "2", "--order", "4"]]
    for k, command in enumerate(commands):
        assert run([*command, "--out", str(tmp_path / f"out{k}")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out0", "out1", "out2"]


def test_output_name_of_the_longest_length_is_written(tmp_path):
    # a name of 255 bytes is one open(path, "w") can create, and the
    # temporary file's name must not grow with it
    out = tmp_path / ("o" * 250 + ".json")
    assert run(["classify", "--lambda", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lambda"] == 2.0
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


@pytest.mark.parametrize("command", [
    ["verify", "--family", "sym1", "--lambda", "2"],
    ["classify", "--lambda", "2"],
    ["quadrature", "--family", "sym1", "--lambda", "2", "--order", "4"],
], ids=["verify", "classify", "quadrature"])
def test_symlinked_output_writes_through_the_link(command, tmp_path):
    # as with open(path, "w"), the link stays a link and its target, here in
    # another directory, gets the output; no temporary file is left
    (tmp_path / "real").mkdir()
    target, link = tmp_path / "real" / "target.out", tmp_path / "link.out"
    target.write_text("")
    link.symlink_to(target)
    plain = tmp_path / "plain.out"
    assert run([*command, "--out", str(plain)]) == 0
    assert run([*command, "--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    strip = re.compile(r'"wall_time_ms": \d+')
    assert strip.sub("", target.read_text()) == strip.sub("", plain.read_text()) != ""
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


@pytest.mark.parametrize("command", [
    ["verify"],
    ["verify", "--family", "sym1", "--lambda", "2"],
    ["classify", "--lambda", "2"],
    ["quadrature", "--family", "sym1", "--lambda", "2", "--order", "4"],
], ids=["sweep", "verify", "classify", "quadrature"])
@pytest.mark.parametrize("target, reason", [
    ("missing-dir/out", "No such file or directory"),
    ("a-dir", "Is a directory"),
])
def test_unwritable_output_exits_3(command, target, reason, tmp_path, capsys):
    # every command maps a failed write to exit 3 with the OS reason, and
    # the atomic write leaves no temporary file behind
    (tmp_path / "a-dir").mkdir()
    out = tmp_path / target
    assert run([*command, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"opgf {command[0]}: cannot write {out}: {reason}\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a-dir"]

