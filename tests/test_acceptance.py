"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is calibrated at run time.
"""
import cmath
import math
import time

import numpy as np

from conftest import LAMBDA_SWEEP, SWEEP_CONFIGS, get_closed_form, \
    get_measure, get_sequence
from opgf import (
    Family,
    coefficients,
    degree_bound_check,
    eval_monic,
    free_meixner_uniqueness,
    gauss_quadrature,
    norm_squared,
    psi_closed,
    psi_family_moments,
    psi_series,
    residual_f,
    residual_moment_ode,
    residual_u,
    solve_nonsymmetric,
    solve_symmetric,
    stieltjes_from_quadrature,
    symmetric_omega2_quadratic,
)
from opgf import cli
from opgf.identities import (
    duplication_check,
    family2_identity,
    gegenbauer_gf_check,
    gf3_equivalence,
    jacobi_2f1_gf_check,
    jacobi_shift_check,
    one_f_zero_reduction,
    pochhammer_ratio_check,
    tilde_gegenbauer_identity,
)

CLASSIFICATION_LAMBDAS = [float(v) for v in np.linspace(0.56, 3.0, 20)]


def report(number, name, passed, detail):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} failed: {detail}"


def support_grid(config, count=11):
    lo, hi = get_measure(*config).support
    return [float(x) for x in np.linspace(lo, hi, count)]


def z_circle(radius, count=16):
    return [radius * cmath.exp(1j * k * math.pi / count) for k in range(count)]


def test_criterion_01_generating_function_identity():
    start = time.perf_counter()
    worst = 0.0
    for config in SWEEP_CONFIGS:
        cf = get_closed_form(*config)
        seq = get_sequence(*config)
        for z in z_circle(0.1):
            for x in support_grid(config):
                closed = psi_closed(cf, z, x)
                series = psi_series(seq, cf.lam, z, x, 60)
                worst = max(worst, abs(series.value - closed))
    elapsed = time.perf_counter() - start
    report(1, "generating-function identity", worst <= 1e-9 and elapsed < 10.0,
           f"max |series - closed| = {worst:.3e}, tol 1e-9; {elapsed:.1f}s < 10s")


def test_criterion_02_psi_family_moments():
    worst = (0.0, 0.0, 0.0)
    for config in SWEEP_CONFIGS:
        cf = get_closed_form(*config)
        measure = get_measure(*config)
        lam = cf.lam
        for z in (-0.1, -0.05, -0.02, 0.02, 0.05, 0.1):
            m0, m1, m2 = psi_family_moments(measure, cf, z)
            m2_expected = 0.5 * lam * (lam + 1.0) * cf.omega2 * z * z \
                + lam * cf.alpha1 * z + 1.0
            worst = (
                max(worst[0], abs(m0 - 1.0)),
                max(worst[1], abs(m1 - lam * z)),
                max(worst[2], abs(m2 - m2_expected)),
            )
    passed = worst[0] <= 1e-10 and worst[1] <= 1e-9 and worst[2] <= 1e-9
    report(2, "psi-family moment claim", passed,
           f"m0 err {worst[0]:.2e} (1e-10), m1 err {worst[1]:.2e} (1e-9), "
           f"m2 err {worst[2]:.2e} (1e-9)")


def test_criterion_03_riccati_residuals():
    worst_f = worst_u = worst_ode = 0.0
    for config in SWEEP_CONFIGS:
        cf = get_closed_form(*config)
        measure = get_measure(*config)
        co = coefficients(cf.lam, cf.alpha1, cf.omega2)
        for radius in (0.05, 0.1):
            for z in z_circle(radius):
                worst_f = max(worst_f, abs(residual_f(cf, co, z)))
                worst_u = max(worst_u, abs(residual_u(cf, z)))
        for z in (-0.08, -0.05, -0.02, 0.02, 0.05, 0.08):
            r1, r2 = residual_moment_ode(cf, measure, z)
            worst_ode = max(worst_ode, r1, r2)
    passed = worst_f <= 1e-11 and worst_u <= 1e-11 and worst_ode <= 1e-7
    report(3, "first-order equation residuals", passed,
           f"f-residual {worst_f:.2e} (1e-11), u-residual {worst_u:.2e} (1e-11), "
           f"moment-ode {worst_ode:.2e} (1e-7)")


def test_criterion_04_classification_reproduction():
    worst_sym = worst_disc = worst_non = worst_eq = 0.0
    for lam in CLASSIFICATION_LAMBDAS:
        first, second = solve_symmetric(lam)
        worst_sym = max(
            worst_sym,
            abs(first.omega2 - (2.0 * lam + 1.0) / (lam + 2.0)),
            abs(second.omega2 - (2.0 * lam - 1.0) / (lam + 1.0)),
        )
        a, b, c = symmetric_omega2_quadratic(lam)
        worst_disc = max(worst_disc, abs(b * b - 4.0 * a * c - 9.0))
        plus, minus = solve_nonsymmetric(lam)
        w_expected = 2.0 * lam**3 / ((lam + 1.0) ** 2 * (lam - 0.5))
        a1sq_expected = 2.0 / ((lam + 1.0) ** 2 * (lam - 0.5))
        worst_non = max(
            worst_non,
            abs(plus.omega2 - w_expected) / w_expected,
            abs(plus.alpha1**2 - a1sq_expected) / a1sq_expected,
        )
        worst_eq = max(worst_eq, plus.max_residual, minus.max_residual,
                       first.max_residual, second.max_residual)
    passed = worst_sym <= 1e-10 and worst_disc <= 1e-10 and worst_non <= 1e-10 \
        and worst_eq <= 1e-12
    report(4, "classification reproduction", passed,
           f"omega2 err {max(worst_sym, worst_non):.2e}, "
           f"discriminant err {worst_disc:.2e} (1e-10), "
           f"equation residuals {worst_eq:.2e} (1e-12), 20 lambdas")


def test_criterion_05_recurrence_cross_validation():
    worst = 0.0
    for config in SWEEP_CONFIGS:
        family = config[0]
        catalog = get_sequence(*config)
        recovered = stieltjes_from_quadrature(
            gauss_quadrature(get_measure(*config), 20), 8
        )
        for n in range(9):
            worst = max(worst, abs(recovered.alphas[n] - catalog.alphas[n]),
                        abs(recovered.omegas[n] - catalog.omegas[n]))
        if family is not Family.FREE_MEIXNER:
            lam = config[1]
            if family.symmetric:
                sol = solve_symmetric(lam)[0 if family is Family.SYM1 else 1]
            else:
                sol = solve_nonsymmetric(lam)[0 if family is Family.NONSYM_PLUS else 1]
            worst = max(worst, abs(sol.omega2 - catalog.omegas[2]),
                        abs(sol.alpha1 - catalog.alphas[1]))
    report(5, "recurrence coefficient cross-validation", worst <= 1e-8,
           f"max disagreement {worst:.2e} over solver/catalog/Stieltjes, tol 1e-8")


def test_criterion_06_degree_bound():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(10):
        lam = float(rng.uniform(0.55, 3.0))
        if abs(lam - 1.0) < 0.01:
            lam += 0.05
        alpha1 = float(rng.uniform(-2.0, 2.0))
        omega2 = float(rng.uniform(0.1, 3.0))
        for degree in (3, 4, 5, 6):
            worst = max(worst, degree_bound_check(lam, alpha1, omega2, degree))
    report(6, "polynomial degree bound", worst <= 1e-13,
           f"max forced leading coefficient {worst:.2e} over 10 triples x degrees 3-6")


def test_criterion_07_free_meixner_uniqueness():
    pairs = [(0.0, 0.0), (0.5, 0.25), (-1.0, -0.5), (2.0, 1.0), (-0.3, -1.0),
             (1.5, 0.0), (0.1, 3.0), (-2.0, 0.5), (0.7, 0.3), (0.25, -0.75)]
    worst = 0.0
    for a, b in pairs:
        sol = free_meixner_uniqueness(a, b, 15)
        worst = max(worst, float(np.abs(sol.c).max()))
    report(7, "free Meixner series uniqueness", worst <= 1e-12,
           f"max |c_n| = {worst:.2e} over 10 (a,b) pairs, n <= 15, tol 1e-12")


def test_criterion_08_identity_suite():
    worst_dup = max(duplication_check(float(a)) for a in np.arange(0.25, 5.01, 0.25))
    worst_poch = max(
        pochhammer_ratio_check(lam, n)
        for lam in (0.6, 1.0, 1.7, 2.5, 3.0) for n in range(21)
    )
    worst_1f0 = max(
        one_f_zero_reduction(lam, y)
        for lam in (0.7, 1.0, 2.5) for y in (-0.5, -0.3, 0.0, 0.3, 0.5)
    )
    worst_gf = 0.0
    for lam in (0.7, 1.0, 2.5):
        for z in (0.25, 0.1, 0.1j, complex(-0.1, 0.1)):
            for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
                worst_gf = max(worst_gf, gegenbauer_gf_check(lam, z, x, 150))
    for lam in LAMBDA_SWEEP:
        for z in (0.1, 0.05j, complex(-0.05, 0.05)):
            for x in support_grid((Family.SYM1, lam, None, None), 5):
                worst_gf = max(worst_gf, tilde_gegenbauer_identity(lam, z, x))
            for x in support_grid((Family.SYM2, lam, None, None), 5):
                worst_gf = max(worst_gf, family2_identity(lam, z, x))
    for lam in (0.9, 1.6, 2.0, 2.5):
        for t in (-0.15, -0.1, 0.1, 0.15):
            for y in (-0.4, 0.0, 0.4, 0.8):
                worst_gf = max(worst_gf, jacobi_2f1_gf_check(lam, t, y))
    for lam in (0.8, 1.2, 2.0):
        for sign in ("plus", "minus"):
            for z in (-0.05, 0.05, 0.1):
                for x in (-0.5, 0.0, 0.5, 1.5):
                    worst_gf = max(worst_gf, gf3_equivalence(lam, z, x, sign))
    worst_shift = max(
        jacobi_shift_check(lam, 10, [-0.4, 0.2, 0.9], sign).max()
        for lam in (0.8, 1.8, 2.5)
        for sign in ("plus", "minus")
    )
    passed = worst_dup <= 1e-12 and worst_poch <= 1e-12 and worst_1f0 <= 1e-11 \
        and worst_gf <= 1e-10 and worst_shift <= 1e-9
    report(8, "special-function identity suite", passed,
           f"duplication {worst_dup:.1e} (1e-12), pochhammer {worst_poch:.1e} "
           f"(1e-12), 1F0 {worst_1f0:.1e} (1e-11), gf identities {worst_gf:.1e} "
           f"(1e-10), jacobi shift {worst_shift:.1e} (1e-9)")


def test_criterion_09_orthogonality():
    worst_cross = worst_norm = 0.0
    for config in SWEEP_CONFIGS:
        seq = get_sequence(*config)
        rule = gauss_quadrature(get_measure(*config), 24)
        tables = eval_monic(seq, 10, rule.nodes).T
        norms = [norm_squared(seq, n) for n in range(11)]
        for m in range(11):
            for n in range(m):
                inner = float(np.sum(rule.weights * tables[:, m] * tables[:, n]))
                worst_cross = max(
                    worst_cross, abs(inner) / math.sqrt(norms[m] * norms[n])
                )
            diag = float(np.sum(rule.weights * tables[:, m] ** 2))
            worst_norm = max(worst_norm, abs(diag - norms[m]) / norms[m])
    passed = worst_cross <= 1e-9 and worst_norm <= 1e-8
    report(9, "orthogonality and norms", passed,
           f"max scaled cross product {worst_cross:.2e} (1e-9), "
           f"max relative norm error {worst_norm:.2e} (1e-8)")


def test_criterion_10_full_campaign(tmp_path):
    out = tmp_path / "campaign.json"
    start = time.perf_counter()
    code = cli.main(["verify", "--out", str(out)])
    elapsed = time.perf_counter() - start
    passed = code == 0 and elapsed < 60.0
    report(10, "full verify campaign", passed,
           f"exit code {code}, {elapsed:.1f}s < 60s, report at {out.name}")
