"""Tests for the Riccati coefficients, residuals, and classification solvers."""
import cmath
import dataclasses
import math

import numpy as np
import pytest

from conftest import SWEEP_CONFIGS, get_closed_form, get_measure
from opgf import (
    DomainError,
    Family,
    ParameterError,
    RedirectToFreeMeixner,
    SingularityError,
    coefficients,
    degree_bound_check,
    free_meixner_uniqueness,
    h_lambda_initial,
    nonsymmetric_omega2_roots,
    residual_f,
    residual_moment_ode,
    residual_u,
    solve_nonsymmetric,
    solve_symmetric,
    stieltjes_from_quadrature,
    symmetric_omega2_quadratic,
)
from opgf.families import alpha1_value, omega2_value
from opgf.measures import gauss_quadrature

LAMBDA_GRID = [v for v in np.linspace(0.56, 3.0, 20)]


def polyval_ascending(coeffs, z):
    out = 0.0 + 0.0j
    for c in reversed(coeffs):
        out = out * z + c
    return out


class TestCoefficients:
    def test_lambda_one_free_meixner_form(self):
        a, b = 0.7, 0.2
        co = coefficients(1.0, a, 1.0 + b)
        assert co.q2 == pytest.approx([-1.0, -a, -b])
        assert co.q1 == pytest.approx([a, 2.0 * (1.0 + b)])
        # Q~2 collapses to the constant b - a^2/4
        assert abs(co.q2_tilde[1]) <= 1e-14
        assert abs(co.q2_tilde[2]) <= 1e-14
        assert co.q2_tilde[0] == pytest.approx(b - a * a / 4.0, abs=1e-14)

    def test_sym1_lambda2(self):
        co = coefficients(2.0, 0.0, 1.25)
        assert co.q2 == pytest.approx([-1.0, 0.0, 0.25])
        assert co.r1 == pytest.approx([-1.0, 0.0, 3.75])

    def test_symmetric_q1(self):
        for lam, w in ((0.7, 1.3), (2.2, 0.9)):
            co = coefficients(lam, 0.0, w)
            assert co.q1 == pytest.approx([0.0, (lam + 1.0) * w])

    @pytest.mark.parametrize("params", [(0.8, 0.5, 1.2), (2.0, -0.4, 0.9),
                                        (1.5, 1.1, 2.0)])
    def test_q2_tilde_expanded_display(self, params):
        # Oracle: the fully expanded coefficients of Q~2.
        lam, a1, w = params
        co = coefficients(lam, a1, w)
        expected = [
            0.5 * (lam + 1.0) * w - 1.0 - a1 * a1 / 4.0,
            0.5 * (lam * lam - 1.0) * a1 * w,
            ((lam + 1.0) * w - 2.0 * lam) * (lam * lam - 1.0) * w / 4.0,
        ]
        assert co.q2_tilde == pytest.approx(expected, abs=1e-14)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ParameterError):
            coefficients(0.0, 0.0, 1.0)


class TestResidualF:
    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_zero_on_families(self, config):
        cf = get_closed_form(*config)
        co = coefficients(cf.lam, cf.alpha1, cf.omega2)
        for z in (0.1 + 0.05j, 0.05, 0.02 - 0.07j):
            assert abs(residual_f(cf, co, z)) <= 1e-12

    def test_free_meixner_example(self):
        cf = get_closed_form(Family.FREE_MEIXNER, None, 0.5, 0.25)
        co = coefficients(1.0, 0.5, 1.25)
        assert abs(residual_f(cf, co, 0.1)) <= 1e-12

    def test_perturbed_omega2_detected(self):
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        co = coefficients(2.0, 0.0, 1.25 + 0.1)
        assert abs(residual_f(cf, co, 0.1 + 0.05j)) > 1e-4

    def test_domain_checks(self):
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        co = coefficients(2.0, 0.0, 1.25)
        with pytest.raises(DomainError):
            residual_f(cf, co, 0.0)
        with pytest.raises(DomainError):
            residual_f(cf, co, 5.0)


class TestResidualU:
    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_zero_on_families(self, config):
        cf = get_closed_form(*config)
        for z in (0.1, 0.05 + 0.02j, 0.02j - 0.05):
            assert abs(residual_u(cf, z)) <= 1e-11

    def test_free_meixner_semicircle(self):
        cf = get_closed_form(Family.FREE_MEIXNER, None, 0.0, 0.0)
        assert abs(residual_u(cf, 0.2)) <= 1e-13

    def test_singularity_error(self):
        # f(z) = lambda z happens outside the conservative radius, so widen it
        # artificially to exercise the guard.
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        wide = dataclasses.replace(cf, domain_radius=3.0)
        z_sing = math.sqrt(2.0)  # (1-lam)/2 z^2 + 1 = 0 at lam = 2
        with pytest.raises(SingularityError):
            residual_u(wide, z_sing)


class TestResidualMomentOde:
    def test_free_meixner_first_identity_trivial(self):
        # at lambda = 1 the right side vanishes and u (f - z) is constant
        cf = get_closed_form(Family.FREE_MEIXNER, None, 0.5, 0.25)
        measure = get_measure(Family.FREE_MEIXNER, None, 0.5, 0.25)
        r1, _ = residual_moment_ode(cf, measure, 0.07)
        assert r1 <= 1e-10

    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_both_residuals_small(self, config):
        cf = get_closed_form(*config)
        measure = get_measure(*config)
        for z in (-0.1, -0.05, 0.05, 0.1):
            r1, r2 = residual_moment_ode(cf, measure, z)
            assert r1 <= 1e-7
            assert r2 <= 1e-7

    def test_stencil_domain_guard(self):
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        measure = get_measure(Family.SYM1, 2.0, None, None)
        with pytest.raises(DomainError):
            residual_moment_ode(cf, measure, cf.domain_radius - 1e-9)
        with pytest.raises(DomainError):
            residual_moment_ode(cf, measure, 1e-7)
        with pytest.raises(ParameterError):
            residual_moment_ode(cf, measure, 0.05, step=-1.0)


class TestSolveSymmetric:
    def test_lambda2_branches(self):
        first, second = solve_symmetric(2.0)
        assert first.omega2 == pytest.approx(1.25, abs=1e-13)
        assert first.e_coeffs[0] == pytest.approx(-3.0 / 8.0, abs=1e-13)
        assert second.omega2 == pytest.approx(1.0, abs=1e-13)
        assert second.e_coeffs[0] == pytest.approx(-0.5, abs=1e-13)
        for sol in (first, second):
            assert sol.alpha1 == 0.0
            assert sol.e_coeffs[2] == 1.0
            assert sol.valid

    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    def test_branch_formulas_and_discriminant(self, lam):
        first, second = solve_symmetric(lam)
        assert first.omega2 == pytest.approx((2 * lam + 1) / (lam + 2), abs=1e-10)
        assert second.omega2 == pytest.approx((2 * lam - 1) / (lam + 1), abs=1e-10)
        assert first.e_coeffs[0] == pytest.approx(
            (1 - lam * lam) / (2 * (lam + 2)), abs=1e-10
        )
        assert second.e_coeffs[0] == pytest.approx((1 - lam) / 2, abs=1e-10)
        a, b, c = symmetric_omega2_quadratic(lam)
        assert b * b - 4.0 * a * c == pytest.approx(9.0, abs=1e-10)

    @pytest.mark.parametrize("lam", [0.7, 1.4, 2.8])
    def test_quadratic_matches_display(self, lam):
        # Oracle: the displayed quadratic -(l+1)(l+2) w^2 + (4l^2+6l-1) w + 1-4l^2
        a, b, c = symmetric_omega2_quadratic(lam)
        assert a == pytest.approx(-(lam + 1.0) * (lam + 2.0), rel=1e-12)
        assert b == pytest.approx(4.0 * lam * lam + 6.0 * lam - 1.0, rel=1e-12)
        assert c == pytest.approx(1.0 - 4.0 * lam * lam, rel=1e-12)

    def test_small_lambda_invalid_branch(self):
        first, second = solve_symmetric(0.4)
        assert first.valid
        assert not second.valid
        assert second.omega2 == pytest.approx(-0.2 / 1.4, abs=1e-12)
        assert "positive" in second.invalid_reason

    def test_lambda_one_redirects(self):
        with pytest.raises(RedirectToFreeMeixner):
            solve_symmetric(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            solve_symmetric(-0.5)


class TestSolveNonsymmetric:
    def test_lambda2_values(self):
        plus, minus = solve_nonsymmetric(2.0)
        assert plus.omega2 == pytest.approx(32.0 / 27.0, abs=1e-13)
        assert plus.alpha1**2 == pytest.approx(4.0 / 27.0, abs=1e-13)
        assert plus.alpha1 > 0 > minus.alpha1
        assert plus.e_coeffs[0] == pytest.approx(-4.0 / 9.0, abs=1e-13)
        assert plus.e_coeffs[1] == pytest.approx(plus.alpha1, abs=1e-13)  # a1 = l a1/2
        assert plus.e_coeffs[2] == 1.0

    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    def test_formulas_and_consistency(self, lam):
        plus, minus = solve_nonsymmetric(lam)
        w_expected = 2.0 * lam**3 / ((lam + 1.0) ** 2 * (lam - 0.5))
        a1sq_expected = 2.0 / ((lam + 1.0) ** 2 * (lam - 0.5))
        assert plus.omega2 == pytest.approx(w_expected, rel=1e-12)
        assert plus.alpha1**2 == pytest.approx(a1sq_expected, rel=1e-12)
        # the constraint linking alpha_1^2, omega_2 and lambda
        cons = (plus.alpha1**2 / 2.0 + 2.0) * lam - (lam + 1.5) * plus.omega2
        assert abs(cons) <= 1e-12
        assert plus.max_residual <= 1e-12
        assert minus.max_residual <= 1e-12
        assert minus.omega2 == plus.omega2
        assert minus.alpha1 == -plus.alpha1

    def test_degenerate_root_rejected(self):
        degenerate, solution = nonsymmetric_omega2_roots(2.0)
        assert abs(degenerate) <= 1e-14
        assert solution == pytest.approx(32.0 / 27.0, abs=1e-13)

    @pytest.mark.parametrize("lam", [0.8, 1.3, 2.4])
    def test_omega2_prefactored_form(self, lam):
        # 4 l^3 / (2 l^3 + 3 l^2 - 1) before deflating the double root at -1
        _, solution = nonsymmetric_omega2_roots(lam)
        assert solution == pytest.approx(
            4.0 * lam**3 / (2.0 * lam**3 + 3.0 * lam**2 - 1.0), rel=1e-12
        )

    def test_denominator_double_root_deflation(self):
        # 2 l^3 + 3 l^2 - 1 = (l + 1)^2 (2 l - 1): deflate by (l + 1) twice
        cubic = np.array([2.0, 3.0, 0.0, -1.0])
        quotient, remainder = np.polydiv(cubic, np.array([1.0, 1.0]))
        assert abs(remainder[-1]) <= 1e-14
        quotient, remainder = np.polydiv(quotient, np.array([1.0, 1.0]))
        assert abs(remainder[-1]) <= 1e-14
        assert quotient == pytest.approx([2.0, -1.0])

    def test_near_degenerate_lambda_refused(self):
        with pytest.raises(ParameterError):
            solve_nonsymmetric(0.5 + 1e-9)
        with pytest.raises(RedirectToFreeMeixner):
            solve_nonsymmetric(1.0 + 1e-9)
        with pytest.raises(RedirectToFreeMeixner):
            solve_symmetric(1.0 - 1e-9)

    def test_f_display_lambda2(self):
        # f(z) = [ (4/3) z^2 + z/sqrt(3) + 1 ] / z for the plus sign
        plus = solve_nonsymmetric(2.0)[0]
        a0, a1, a2 = plus.e_coeffs
        lam, w = 2.0, plus.omega2

        def f(z):
            g = (a0 * z * z + a1 * z + a2) / z
            return g + 0.5 * ((lam + 1.0) * w * z + plus.alpha1)

        for z in (0.1, 0.05 + 0.02j):
            expected = ((4.0 / 3.0) * z * z + z / math.sqrt(3.0) + 1.0) / z
            assert f(z) == pytest.approx(expected, rel=1e-12)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            solve_nonsymmetric(0.4)
        with pytest.raises(RedirectToFreeMeixner):
            solve_nonsymmetric(1.0)


class TestSolutionProperties:
    @pytest.mark.parametrize("lam", [0.6, 0.8, 1.5, 2.0, 2.7])
    def test_residual_f_from_solution_g(self, lam):
        # rebuild f = g + Q1/2 from each solution's E and check the Riccati
        # residual on two circles
        solutions = list(solve_symmetric(lam)) + list(solve_nonsymmetric(lam))
        for sol in solutions:
            if not sol.valid:
                continue
            co = coefficients(lam, sol.alpha1, sol.omega2)
            a0, a1, a2 = sol.e_coeffs

            def f(z):
                return (a0 * z * z + a1 * z + a2) / z + 0.5 * (
                    (lam + 1.0) * sol.omega2 * z + sol.alpha1
                )

            def f_prime(z):
                return a0 - a2 / (z * z) + 0.5 * (lam + 1.0) * sol.omega2

            for radius in (0.05, 0.1):
                for k in range(16):
                    z = radius * cmath.exp(1j * k * math.pi / 16)
                    fz = f(z)
                    res = (
                        polyval_ascending(co.q2, z) * f_prime(z)
                        - fz * fz
                        + polyval_ascending(co.q1, z) * fz
                        - polyval_ascending(co.r1, z)
                    )
                    assert abs(res) <= 1e-11

    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    def test_equation_system_residuals(self, lam):
        for sol in solve_symmetric(lam):
            assert sol.max_residual <= 1e-12
        for sol in solve_nonsymmetric(lam):
            assert sol.max_residual <= 1e-12

    @pytest.mark.parametrize(
        "family,lam",
        [(Family.SYM1, 0.75), (Family.SYM1, 2.5), (Family.SYM2, 1.5),
         (Family.NONSYM_PLUS, 2.0), (Family.NONSYM_MINUS, 0.6)],
    )
    def test_solver_catalog_stieltjes_agreement(self, family, lam):
        # three routes to (alpha_1, omega_2) agree to 1e-8
        measure = get_measure(family, lam, None, None)
        seq = stieltjes_from_quadrature(gauss_quadrature(measure, 20), 4)
        if family.symmetric:
            branch = 0 if family is Family.SYM1 else 1
            sol = solve_symmetric(lam)[branch]
        else:
            branch = 0 if family is Family.NONSYM_PLUS else 1
            sol = solve_nonsymmetric(lam)[branch]
        assert sol.omega2 == pytest.approx(omega2_value(family, lam), rel=1e-12)
        assert sol.alpha1 == pytest.approx(alpha1_value(family, lam), abs=1e-12)
        assert seq.omegas[2] == pytest.approx(sol.omega2, abs=1e-8)
        assert seq.alphas[1] == pytest.approx(sol.alpha1, abs=1e-8)


class TestDegreeBound:
    @pytest.mark.parametrize("degree", [3, 4, 5, 6])
    def test_forced_leading_coefficient_zero(self, degree):
        assert degree_bound_check(1.7, 0.4, 1.2, degree) == 0.0

    def test_various_parameters(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            lam = float(rng.uniform(0.2, 3.0))
            a1 = float(rng.uniform(-2.0, 2.0))
            w = float(rng.uniform(0.1, 3.0))
            assert degree_bound_check(lam, a1, w, 4) <= 1e-13

    def test_degree_range(self):
        with pytest.raises(ParameterError):
            degree_bound_check(2.0, 0.0, 1.0, 2)
        with pytest.raises(ParameterError):
            degree_bound_check(2.0, 0.0, 1.0, 7)


class TestFreeMeixnerUniqueness:
    def test_semicircle_all_zero(self):
        sol = free_meixner_uniqueness(0.0, 0.0, 15)
        assert np.all(sol.c == 0.0)
        assert sol.h0 == 0.0

    @pytest.mark.parametrize("a,b", [(0.7, 0.3), (-1.0, -0.5), (2.0, 1.0),
                                     (0.1, -1.0)])
    def test_coefficients_vanish(self, a, b):
        sol = free_meixner_uniqueness(a, b, 15)
        assert np.abs(sol.c).max() <= 1e-13
        assert sol.h0 == pytest.approx(a / 2.0)

    def test_resulting_g_solves_riccati(self):
        # h == a/2 means g = a/2 + 1/z, i.e. f is the free Meixner closed form
        a, b = -1.0, -0.5
        cf = get_closed_form(Family.FREE_MEIXNER, None, a, b)
        co = coefficients(1.0, a, 1.0 + b)
        sol = free_meixner_uniqueness(a, b, 15)
        for z in (0.05, 0.1 + 0.04j):
            g = sol.h0 + 1.0 / z + polyval_ascending(
                np.concatenate([[0.0], sol.c]), z
            )
            f = g + 0.5 * polyval_ascending(co.q1, z)
            assert f == pytest.approx(cf.f(z), rel=1e-13)
        assert abs(residual_f(cf, co, 0.1)) <= 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            free_meixner_uniqueness(0.0, -1.5, 10)
        with pytest.raises(ParameterError):
            free_meixner_uniqueness(0.0, 0.0, 31)


class TestHLambdaInitial:
    def test_symmetric_families_zero(self):
        assert h_lambda_initial(2.0, 0.0, 1.25) == 0.0
        assert h_lambda_initial(1.5, 0.0, 2.0 / 2.5) == 0.0

    def test_nonsym_plus_lambda2(self):
        alpha1 = 2.0 / math.sqrt(27.0)
        value = h_lambda_initial(2.0, alpha1, 32.0 / 27.0)
        assert value == pytest.approx(2.0 / math.sqrt(27.0), rel=1e-12)

    def test_nonsym_minus(self):
        alpha1 = -2.0 / math.sqrt(27.0)
        assert h_lambda_initial(2.0, alpha1, 32.0 / 27.0) == pytest.approx(
            -2.0 / math.sqrt(27.0), rel=1e-12
        )

    def test_free_meixner_half_a(self):
        assert h_lambda_initial(1.0, 0.5, 1.25) == pytest.approx(0.25)

    def test_unrecognized_parameters(self):
        with pytest.raises(ParameterError):
            h_lambda_initial(2.0, 0.0, 0.77)
        with pytest.raises(ParameterError):
            h_lambda_initial(2.0, 1.0, 32.0 / 27.0)
