"""src/ holds what the commands run: every def in the package is entered by
at least one CLI command, or is listed below with the test that reaches it.

The commands run in this process under sys.setprofile, which records the
code object of every Python call; a def is entered when its code object is.
"""
import ast
import sys
from pathlib import Path

import opgf
from opgf import cli
from opgf.measures import NEWTON_RULE_MIN_ORDER

PACKAGE = Path(opgf.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# The sweep, one verify per family and free Meixner at b = -1, classify on
# both sides of lambda = 1 and below 1/2, a dense and a tridiagonal Gauss
# export and a symmetric one past the dense order, a non-symmetric export at
# the Newton rule's order and one with atoms above it, which falls back to
# the tridiagonal solver, a symmetric export at the Newton rule's order, one
# past the closed form's ratio guard below that order, two inputs that exit 2
# and one unwritable output that exits 3.  The symmetric exports read sym2 at
# lambda = 0.75: at lambda = 2 its table is free Meixner's at a = b = 0, which
# has its rule in closed form.
COMMANDS = [
    ["verify"],
    ["verify", "--family", "sym1", "--lambda", "2"],
    ["verify", "--family", "sym2", "--lambda", "0.75"],
    ["verify", "--family", "nonsym-plus", "--lambda", "0.6"],
    ["verify", "--family", "nonsym-minus", "--lambda", "2.5"],
    ["verify", "--family", "free-meixner", "--a", "0.5", "--b", "0.25"],
    ["verify", "--family", "free-meixner", "--a", "0.5", "--b=-1"],
    ["classify", "--lambda", "2"],
    ["classify", "--lambda", "1"],
    ["classify", "--lambda", "0.3"],
    ["quadrature", "--family", "nonsym-minus", "--lambda", "1.5", "--order", "8"],
    ["quadrature", "--family", "free-meixner", "--a", "0.5", "--b", "0.25",
     "--order", "40"],
    ["quadrature", "--family", "sym2", "--lambda", "0.75", "--order", "40"],
    ["quadrature", "--family", "nonsym-plus", "--lambda", "1.5",
     "--order", str(NEWTON_RULE_MIN_ORDER)],
    ["quadrature", "--family", "free-meixner", "--a", "1e5", "--b", "1e9",
     "--order", "400"],
    ["quadrature", "--family", "sym2", "--lambda", "0.75",
     "--order", str(2 * NEWTON_RULE_MIN_ORDER - 1)],
    ["quadrature", "--family", "free-meixner", "--a", "0.5", "--b", "1e300",
     "--order", "100"],
    ["verify", "--family", "sym2", "--lambda", "0.4"],
    ["quadrature", "--family", "sym1", "--lambda", "1e308", "--order", "24"],
]
EXITS = [0] * 17 + [2, 2]

# Defs that no command enters, each with a test that calls it.
NOT_RUN_BY_COMMANDS = {
    "errors.BranchCutError.__init__": "test_genfun.py::TestPsiAnalytic::test_branch_cut_reported",
    "genfun._at_first": "test_genfun.py::TestPsiAnalytic::test_outside_domain",
    "genfun.radius_guard.<locals>.error": "test_genfun.py::TestPsiAnalytic::test_outside_domain",
}


def package_defs() -> set[str]:
    """module.qualname of every def in the package, methods and nested defs
    included, in the form of the code objects' co_qualname."""
    names = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return names


def entered_defs(tmp_path) -> set[str]:
    """module.qualname of every package def the commands enter."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    (tmp_path / "a-dir").mkdir()
    # the parser is cached: clear it so that these commands build it
    cli._build_parser.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        exits = [cli.main([*command, "--out", str(tmp_path / f"out{k}")])
                 for k, command in enumerate(COMMANDS)]
        exits.append(cli.main(["classify", "--lambda", "2", "--out", str(tmp_path / "a-dir")]))
    finally:
        sys.setprofile(previous)
    assert exits == EXITS + [3]
    return {f"{Path(code.co_filename).stem}.{code.co_qualname}" for code in codes
            if Path(code.co_filename).resolve().parent == PACKAGE}


def test_every_def_is_run_by_a_command_or_listed(tmp_path):
    defs = package_defs()
    assert sorted(defs - entered_defs(tmp_path)) == sorted(NOT_RUN_BY_COMMANDS)


def test_listed_defs_name_a_test_that_exists():
    for name, test in NOT_RUN_BY_COMMANDS.items():
        path, *scopes = test.split("::")
        source = (TESTS / path).read_text()
        assert all(f"def {scope}(" in source or f"class {scope}" in source
                   for scope in scopes), (name, test)
