"""Verdict map: what `opgf verify` says over the documented domain.

Each cell is one `verify --family F` command: sym1, sym2, nonsym-plus and
nonsym-minus at 16 values of lambda from 0.6 to 1e8, and free Meixner at
b = -1 (a two-point law) with a growing |a|, each at --zmax 1e-4, 1e-2 and
0.1.  Where --zmax reaches a configuration's domain radius the input is
invalid and the command exits 2; every other cell is valid input.  A cell
records the command's exit code, or the type of the exception it ended in,
and the sorted names of the checks that failed.  It runs as the command
does from a shell, with RuntimeWarnings ignored (the test suite turns them
into errors) and its messages kept off the terminal.

The fixture domain_map.json is the expected map, and a changed cell fails
the test, better or worse: the map records where the certifier decides
today, defects included, so that a change shows its move.

Rewrite the fixture after a deliberate change with

    PYTHONPATH=src python tests/test_domain_map.py
"""
import contextlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from opgf import cli

MAP = Path(__file__).with_name("domain_map.json")
LAMBDAS = ("0.6", "1.5", "2", "3", "5", "8", "12", "16", "20", "30", "40", "100",
           "1e3", "1e4", "1e6", "1e8")
FAMILIES = ("sym1", "sym2", "nonsym-plus", "nonsym-minus")
MEIXNER_A = ("2", "10", "100", "-1000")
ZMAX = ("1e-4", "1e-2", "0.1")


def commands():
    """(cell name, verify arguments) of every cell, in map order."""
    for zmax in ZMAX:
        for family in FAMILIES:
            for lam in LAMBDAS:
                yield (f"{family} lambda={lam} zmax={zmax}",
                       ["--family", family, "--lambda", lam, "--zmax", zmax])
        for a in MEIXNER_A:
            yield (f"free-meixner a={a} b=-1 zmax={zmax}",
                   ["--family", "free-meixner", f"--a={a}", "--b=-1", "--zmax", zmax])


def cell(args, out: Path) -> dict:
    """The exit code (or exception type) of `verify args` and its failing
    checks."""
    out.unlink(missing_ok=True)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore", RuntimeWarning)
            status = cli.main(["verify", *args, "--out", str(out)])
    except Exception as exc:
        return {"exit": type(exc).__name__, "failing": []}
    failing = []
    if status in (0, 1):
        failing = sorted(check["name"] for check in json.loads(out.read_text())["checks"]
                         if not check["passed"])
    return {"exit": status, "failing": failing}


def domain_map() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        out = Path(directory) / "report.json"
        return {name: cell(args, out) for name, args in commands()}


def counts(cells) -> dict:
    """How many cells end in each exit code or exception type."""
    tally = {}
    for value in cells.values():
        tally[str(value["exit"])] = tally.get(str(value["exit"]), 0) + 1
    return dict(sorted(tally.items()))


@pytest.fixture(scope="module")
def regenerated():
    return domain_map()


def test_map_equals_the_fixture(regenerated):
    expected = json.loads(MAP.read_text())
    assert list(regenerated) == list(expected["cells"])
    changed = {name: (expected["cells"][name], value) for name, value in regenerated.items()
               if value != expected["cells"][name]}
    assert changed == {}


def test_fixture_counts_follow_from_its_cells():
    expected = json.loads(MAP.read_text())
    assert expected["counts"] == counts(expected["cells"])


if __name__ == "__main__":
    cells = domain_map()
    text = json.dumps({"counts": counts(cells), "cells": cells}, indent=1)
    MAP.write_text(text + "\n")
    sys.stdout.write(json.dumps(counts(cells)) + "\n")
