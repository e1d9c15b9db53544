"""Tests for the command-line front end: exit codes, reports, determinism."""
import json
import re
from pathlib import Path

import pytest

from opgf.cli import main

# Ordered (name, points_tested, passed) of every check in the default full
# sweep; a refactor must leave it unchanged.
SWEEP_STRUCTURE = Path(__file__).with_name("sweep_structure.json")


def run(args):
    return main(args)


class TestVerify:
    def test_single_family_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--family", "sym1", "--lambda", "2", "--zmax", "0.1",
                    "--grid", "16", "--tol", "1e-9", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 1
        assert report["family"] == "sym1"
        assert report["lambda"] == 2.0
        assert report["all_passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"series-vs-closed", "moment-m0", "moment-m1", "moment-m2",
                "riccati-residual-f", "riccati-residual-u", "moment-ode",
                "gamma-duplication"} <= names
        for check in report["checks"]:
            assert check["passed"] == (check["max_residual"] <= check["tolerance"])
            assert check["points_tested"] >= 1

    def test_free_meixner_includes_uniqueness(self, tmp_path):
        out = tmp_path / "fm.json"
        code = run(["verify", "--family", "free-meixner", "--a", "0.5", "--b", "0.25",
                    "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        names = [c["name"] for c in report["checks"]]
        assert "series-uniqueness" in names

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

    def test_seventeen_digit_serialization(self, tmp_path):
        out = tmp_path / "digits.json"
        run(["verify", "--family", "sym1", "--lambda", "0.75", "--out", str(out)])
        # lambda must round-trip exactly
        assert json.loads(out.read_text())["lambda"] == 0.75

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


def test_public_names_resolve():
    # every name the package exports exists, once
    import opgf

    assert len(set(opgf.__all__)) == len(opgf.__all__)
    for name in opgf.__all__:
        assert getattr(opgf, name, None) is not None, name
