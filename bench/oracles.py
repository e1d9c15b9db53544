"""Output checks for the benchmark's operations, made from outside the package.

Every check reads the file the CLI wrote and returns (reason, margin):
reason is None when the output is right and names the defect otherwise;
margin is the smallest log10(tolerance / error) over the output's checks,
i.e. how many decades the output sits from a failed verdict.  Errors below
one rounding unit count as one rounding unit, so exact results give a finite
margin.
"""
from __future__ import annotations

import json
import math
import re
import sys
from typing import Optional

from workloads import Op

SWEEP_CONFIGS = 23
RULE_TOL = 1e-10         # |sum w - 1|, |sum w x|, |sum w x^2 - 1|
OMEGA2_REL_TOL = 1e-9    # classify: omega_2 against the paper's closed forms
NONSYM_GAP = 1e-6        # classify excludes nonsym-* when lambda - 1/2 < this

_EPS = sys.float_info.epsilon
_WALL_TIME = re.compile(rb'"wall_time_ms": -?\d+')

Verdict = tuple[Optional[str], Optional[float]]


def _decades(tolerance: float, error: float) -> float:
    return math.log10(tolerance / max(error, _EPS))


def _check_records(report: dict) -> Verdict:
    """Every check's verdict must follow from its own numbers."""
    checks = report.get("checks")
    if not isinstance(checks, list) or not checks:
        return "report has no checks", None
    margin = math.inf
    for check in checks:
        residual, tolerance = check["max_residual"], check["tolerance"]
        if check["passed"] != (residual <= tolerance):
            return f"check {check['name']} passed={check['passed']} disagrees with " \
                   f"{residual!r} <= {tolerance!r}", None
        margin = min(margin, _decades(tolerance, residual))
    if report["all_passed"] != all(c["passed"] for c in checks):
        return "all_passed disagrees with the checks", None
    return None, margin


class Oracle:
    """Checks of one run; the sweep reference is the run's first report."""

    def __init__(self) -> None:
        self._sweep_text: Optional[bytes] = None

    def check(self, op: Op, rc: int, raw: bytes) -> Verdict:
        try:
            if op.kind == "sweep":
                return self._sweep(rc, raw)
            if op.kind == "verify":
                return _verify(rc, raw)
            if op.kind == "classify":
                return _classify(op, rc, raw)
            return _quadrature(op, rc, raw)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}", None

    def _sweep(self, rc: int, raw: bytes) -> Verdict:
        payload = json.loads(raw)
        if rc != 0 or payload["all_passed"] is not True:
            return f"full sweep did not pass (exit {rc})", None
        reports = payload["reports"]
        if len(reports) != SWEEP_CONFIGS:
            return f"{len(reports)} configurations, expected {SWEEP_CONFIGS}", None
        margin = math.inf
        for report in reports:
            reason, m = _check_records(report)
            if reason is not None:
                return f"{report['family']}: {reason}", None
            margin = min(margin, m)
        text = _WALL_TIME.sub(b"", raw)
        if self._sweep_text is None:
            self._sweep_text = text
        elif text != self._sweep_text:
            return "report differs from the run's first sweep beyond wall_time_ms", None
        return None, margin


def _verify(rc: int, raw: bytes) -> Verdict:
    report = json.loads(raw)
    reason, margin = _check_records(report)
    if reason is None and rc != (0 if report["all_passed"] else 1):
        reason = f"exit {rc} disagrees with all_passed={report['all_passed']}"
    return reason, margin


def omega2_sym1(lam: float) -> float:
    return (2.0 * lam + 1.0) / (lam + 2.0)


def omega2_sym2(lam: float) -> float:
    return (2.0 * lam - 1.0) / (lam + 1.0)


def omega2_nonsym(lam: float) -> float:
    return 2.0 * lam**3 / ((lam + 1.0) ** 2 * (lam - 0.5))


def _omega2_margin(branches, expected: dict) -> Verdict:
    labels = [b["branch"] for b in branches]
    if sorted(labels) != sorted(expected):
        return f"branches {labels}, expected {sorted(expected)}", None
    margin = math.inf
    for branch in branches:
        want = expected[branch["branch"]]
        tolerance = OMEGA2_REL_TOL * max(1.0, abs(want))
        error = abs(branch["omega2"] - want)
        if not error <= tolerance:
            return f"{branch['branch']} omega2 {branch['omega2']!r}, expected {want!r}", None
        margin = min(margin, _decades(tolerance, error))
    return None, margin


def _classify(op: Op, rc: int, raw: bytes) -> Verdict:
    if rc != 0:
        return f"classify exit {rc}", None
    payload = json.loads(raw)
    lam = op.lam
    reason, margin = _omega2_margin(
        payload["symmetric"], {"sym1": omega2_sym1(lam), "sym2": omega2_sym2(lam)})
    if reason is not None:
        return reason, None
    if lam - 0.5 < NONSYM_GAP:
        if payload["nonsymmetric"] is not None or not payload["nonsymmetric_excluded"]:
            return "non-symmetric branches not excluded for lambda <= 1/2", None
        return None, margin
    w = omega2_nonsym(lam)
    reason, nonsym = _omega2_margin(payload["nonsymmetric"],
                                    {"nonsym-plus": w, "nonsym-minus": w})
    return reason, None if reason else min(margin, nonsym)


def _quadrature(op: Op, rc: int, raw: bytes) -> Verdict:
    if rc != 0:
        return f"quadrature exit {rc}", None
    lines = raw.decode("ascii").splitlines()
    if not lines[0].startswith("#") or lines[1] != "node,weight":
        return "missing CSV header", None
    rows = [line.split(",") for line in lines[2:]]
    if len(rows) != op.order:
        return f"{len(rows)} nodes, expected {op.order}", None
    nodes = [float(x) for x, _ in rows]
    weights = [float(w) for _, w in rows]
    errors = (
        abs(math.fsum(weights) - 1.0),
        abs(math.fsum(w * x for x, w in zip(nodes, weights))),
        abs(math.fsum(w * x * x for x, w in zip(nodes, weights)) - 1.0),
    )
    worst = max(errors)
    if not worst <= RULE_TOL:
        return f"moment error {worst:.3g} above {RULE_TOL:g}", None
    return None, _decades(RULE_TOL, worst)
