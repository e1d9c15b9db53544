"""Tests for the Riccati coefficients, residuals, and classification solvers."""
import cmath
import dataclasses
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import SWEEP_CONFIGS, get_closed_form, get_sequence
from opgf import (
    Family,
    ParameterError,
    RedirectToFreeMeixner,
    closed_form,
    coefficient_residuals,
    coefficients,
    nonsymmetric_omega2_roots,
    riccati,
    solve_nonsymmetric,
    solve_symmetric,
)
from opgf.genfun import UNIT_ROUNDOFF
from opgf.measures import family_sequence
from opgf.recurrence import JacobiSzegoSequence
from opgf.riccati import IDENTITY_BOUND, _matching_residual
from reference import (
    closed_f,
    degree_bound_check,
    gauss_rule,
    moment_ode_point_residual,
    riccati_point_residual,
    stieltjes_from_quadrature,
    symmetric_omega2_quadratic,
    u_point_residual,
)

LAMBDA_GRID = [v for v in np.linspace(0.56, 3.0, 20)]
# lambda = 1 rows of the identity sweep are carried by the free Meixner family
IDENTITY_SWEEP = SWEEP_CONFIGS + ((Family.FREE_MEIXNER, None, 0.0, 0.0),)


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


# The bound that a correct configuration's scaled coefficients meet here,
# far below the rows' IDENTITY_BOUND: a few roundings of each term.
ROUNDING = 4 * UNIT_ROUNDOFF


def fraction_closed_form(family, lam=None, a=None, b=None):
    """The closed form and the first three table entries of a family whose
    data are rational at rational lambda (sym1, sym2, free Meixner), in
    exact fractions.Fraction arithmetic, from the paper's formulas."""
    if family is Family.SYM1:
        c1, c2, d1, d2, alpha1, omega2 = 0, (1 + lam) / 2, 0, 0, 0, (2 * lam + 1) / (lam + 2)
    elif family is Family.SYM2:
        c1, c2, d1, d2, alpha1, omega2 = 0, lam / 2, 0, -lam / 2, 0, (2 * lam - 1) / (lam + 1)
    else:
        lam, c1, c2, d1, d2, alpha1, omega2 = 1, a, 1 + b, a, b, a, 1 + b
    lam, alpha1, omega2 = Fraction(lam), Fraction(alpha1), Fraction(omega2)
    cf = dataclasses.replace(get_closed_form(Family.SYM1, 2.0, None, None), family=family,
                             lam=lam, alpha1=alpha1, omega2=omega2,
                             zf_coeffs=(Fraction(1), Fraction(c1), Fraction(c2)),
                             numerator_coeffs=(Fraction(1), Fraction(d1), Fraction(d2)))
    table = SimpleNamespace(alphas=np.array([Fraction(0), alpha1, alpha1], dtype=object),
                            omegas=np.array([Fraction(1), Fraction(1), omega2], dtype=object))
    return cf, table


@pytest.mark.parametrize("config", [
    (Family.SYM1, Fraction(2), None, None), (Family.SYM1, Fraction(1, 3), None, None),
    (Family.SYM2, Fraction(3, 2), None, None), (Family.SYM2, Fraction(7, 5), None, None),
    (Family.FREE_MEIXNER, None, Fraction(1, 2), Fraction(1, 4)),
    (Family.FREE_MEIXNER, None, Fraction(-3, 7), Fraction(-1)),
])
def test_residuals_exactly_zero_on_fractions(config):
    # the kernel is plain arithmetic, so exact data give exact zeros
    cf, table = fraction_closed_form(*config)
    for residual in coefficient_residuals(cf, table):
        assert residual.shape == (5,)
        assert all(type(r) is Fraction and r == 0 for r in residual)


def residual_f(config, cf=None):
    """The Riccati row of coefficient_residuals at config, with its own
    closed form unless cf is given, and its table's first three entries."""
    cf = closed_form(*config) if cf is None else cf
    return coefficient_residuals(cf, family_sequence(*config, size=3))[0]


def residual_u(config):
    """The u'/u row of coefficient_residuals at config."""
    return coefficient_residuals(closed_form(*config), family_sequence(*config, size=3))[1]


def residual_moment_ode(cf, seq):
    """The moment-ODE row of coefficient_residuals."""
    return coefficient_residuals(cf, seq)[2]


class TestResidualF:
    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_zero_on_families(self, config):
        residual = residual_f(config)
        assert residual.shape == (5,)
        assert residual.max() <= ROUNDING

    def test_free_meixner_example(self):
        assert residual_f((Family.FREE_MEIXNER, None, 0.5, 0.25)).max() == 0.0

    def test_perturbed_omega2_detected(self):
        config = (Family.SYM1, 2.0, None, None)
        cf = dataclasses.replace(get_closed_form(*config), omega2=1.25 + 0.1)
        assert residual_f(config, cf).max() > 1e-3

    @pytest.mark.parametrize("family", [Family.SYM1, Family.NONSYM_PLUS])
    @pytest.mark.parametrize("lam", [1e4, 1e12, 1e100])
    def test_large_lambda_at_rounding(self, family, lam):
        # the scale of Q_2's z^2 coefficient carries its cancellation
        assert residual_f((family, lam, None, None)).max() <= ROUNDING


class TestResidualU:
    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_zero_on_families(self, config):
        residual = residual_u(config)
        assert residual.shape == (5,)
        assert residual.max() <= ROUNDING

    def test_free_meixner_semicircle(self):
        assert residual_u((Family.FREE_MEIXNER, None, 0.0, 0.0)).max() == 0.0

    def test_overflowing_terms_read_one(self):
        # past b ~ 1.3e154 the degree-4 terms overflow a double: the
        # coefficients they reach cannot be compared and read 1, not NaN
        residual = residual_u((Family.FREE_MEIXNER, None, 0.5, 1e200))
        assert residual.max() == 1.0


class TestResidualMomentOde:
    def test_free_meixner_identity_trivial(self):
        # at lambda = 1 the right side vanishes and h = z f - m2 is 0: the
        # table's alpha_1 and omega_2 are z f's c1, c2
        cf = get_closed_form(Family.FREE_MEIXNER, None, 0.5, 0.25)
        seq = get_sequence(Family.FREE_MEIXNER, None, 0.5, 0.25)
        assert residual_moment_ode(cf, seq).max() == 0.0
        assert seq.alphas[1] == pytest.approx(cf.zf_coeffs[1], rel=1e-14)
        assert seq.omegas[2] == pytest.approx(cf.zf_coeffs[2], rel=1e-14)

    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_residual_small(self, config):
        residual = residual_moment_ode(get_closed_form(*config), get_sequence(*config))
        assert residual.shape == (5,)
        assert residual.max() <= IDENTITY_BOUND

    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_sweep_residuals_at_rounding(self, config):
        # no point enters: only the rounding of the closed form and table
        residual = residual_moment_ode(get_closed_form(*config), get_sequence(*config))
        assert residual.max() <= ROUNDING

    @pytest.mark.parametrize("entry", ["alpha_1", "omega_2"])
    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_sees_a_wrong_table(self, config, entry):
        # m2 reads alpha_1 and omega_2 from the table
        seq = get_sequence(*config)
        alphas, omegas = seq.alphas.copy(), seq.omegas.copy()
        if entry == "alpha_1":
            alphas[1] += 1e-6
        else:
            omegas[2] += 1e-6
        residual = residual_moment_ode(get_closed_form(*config),
                                       JacobiSzegoSequence(alphas, omegas))
        assert residual.max() > IDENTITY_BOUND

    def test_sees_a_relative_alpha1_change_at_lambda_40(self):
        # |u| ~ |z|^40 no longer hides the table: alpha_1 (1 + 1e-6) fails
        config = (Family.NONSYM_PLUS, 40.0, None, None)
        seq = family_sequence(*config, size=3)
        alphas = seq.alphas.copy()
        alphas[1] *= 1.0 + 1e-6
        residual = residual_moment_ode(closed_form(*config), JacobiSzegoSequence(alphas, seq.omegas))
        assert residual.max() > 1e3 * IDENTITY_BOUND
        assert residual_moment_ode(closed_form(*config), seq).max() <= ROUNDING

    @pytest.mark.parametrize("size", [1, 2])
    def test_refuses_a_short_table(self, size):
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        with pytest.raises(ParameterError, match="omega_2"):
            residual_moment_ode(cf, family_sequence(Family.SYM1, 2.0, size=size))

    def test_short_table_error_comes_first(self):
        # all three identities are one call, which refuses a short table
        # before coefficients reads lambda
        cf = dataclasses.replace(get_closed_form(Family.SYM1, 2.0, None, None), lam=-1.0)
        with pytest.raises(ParameterError, match="lambda must be > 0"):
            coefficient_residuals(cf, get_sequence(Family.SYM1, 2.0, None, None))
        with pytest.raises(ParameterError, match="omega_2"):
            coefficient_residuals(cf, family_sequence(Family.SYM1, 2.0, size=2))

    def test_three_entries_suffice(self):
        cf = get_closed_form(Family.NONSYM_MINUS, 2.5, None, None)
        full = residual_moment_ode(cf, get_sequence(Family.NONSYM_MINUS, 2.5, None, None))
        short = residual_moment_ode(cf, family_sequence(Family.NONSYM_MINUS, 2.5, size=3))
        assert np.array_equal(short, full)


class TestPointwiseEquations:
    """Each row's identity is its equation with the denominators cleared: on
    a closed form or table with one entry moved by 1e-6, the row and the
    equation sampled at two circles (tests/reference.py) both fail, and on
    the true ones both read at rounding."""

    TWO_CIRCLES = np.array([r * cmath.exp(1j * k * math.pi / 16) for r in (0.05, 0.1)
                            for k in range(16)])
    POINT_ROUNDING = 16 * UNIT_ROUNDOFF

    @staticmethod
    def moved(cf, field):
        """cf with the z^2 coefficient of one of its quadratics raised by 1e-6."""
        one, first, second = getattr(cf, field)
        return dataclasses.replace(cf, **{field: (one, first, second + 1e-6)})

    @staticmethod
    def moved_table(seq):
        alphas = seq.alphas.copy()
        alphas[1] += 1e-6
        return JacobiSzegoSequence(alphas, seq.omegas)

    def assert_at_rounding(self, row, points):
        assert row.max() <= ROUNDING
        assert points.max() <= self.POINT_ROUNDING

    def assert_fails(self, row, points):
        assert row.max() > IDENTITY_BOUND
        assert points.min() > 1e3 * self.POINT_ROUNDING

    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_residual_f_matches_pointwise(self, config):
        cf = get_closed_form(*config)
        self.assert_at_rounding(residual_f(config, cf),
                                riccati_point_residual(cf, self.TWO_CIRCLES))

    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_residual_f_fails_with_pointwise(self, config):
        cf = self.moved(get_closed_form(*config), "zf_coeffs")
        self.assert_fails(residual_f(config, cf), riccati_point_residual(cf, self.TWO_CIRCLES))

    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_residual_u_matches_pointwise(self, config):
        cf = get_closed_form(*config)
        self.assert_at_rounding(coefficient_residuals(cf, get_sequence(*config))[1],
                                u_point_residual(cf, self.TWO_CIRCLES))

    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_residual_u_fails_with_pointwise(self, config):
        cf = self.moved(get_closed_form(*config), "numerator_coeffs")
        self.assert_fails(coefficient_residuals(cf, get_sequence(*config))[1],
                          u_point_residual(cf, self.TWO_CIRCLES))

    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_moment_ode_matches_pointwise(self, config):
        cf, seq = get_closed_form(*config), get_sequence(*config)
        self.assert_at_rounding(residual_moment_ode(cf, seq),
                                moment_ode_point_residual(cf, seq, self.TWO_CIRCLES))

    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_moment_ode_fails_with_pointwise(self, config):
        cf, seq = get_closed_form(*config), self.moved_table(get_sequence(*config))
        self.assert_fails(residual_moment_ode(cf, seq),
                          moment_ode_point_residual(cf, seq, self.TWO_CIRCLES))


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
        _, (plus, minus) = solve_nonsymmetric(2.0)
        assert plus.omega2 == pytest.approx(32.0 / 27.0, abs=1e-13)
        assert plus.alpha1**2 == pytest.approx(4.0 / 27.0, abs=1e-13)
        assert plus.alpha1 > 0 > minus.alpha1
        assert plus.e_coeffs[0] == pytest.approx(-4.0 / 9.0, abs=1e-13)
        assert plus.e_coeffs[1] == pytest.approx(plus.alpha1, abs=1e-13)  # a1 = l a1/2
        assert plus.e_coeffs[2] == 1.0

    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    def test_formulas_and_consistency(self, lam):
        _, (plus, minus) = solve_nonsymmetric(lam)
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
        plus = solve_nonsymmetric(2.0)[1][0]
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
        solutions = list(solve_symmetric(lam)) + solve_nonsymmetric(lam)[1]
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
        for sol in solve_nonsymmetric(lam)[1]:
            assert sol.max_residual <= 1e-12

    @pytest.mark.parametrize(
        "family,lam",
        [(Family.SYM1, 0.75), (Family.SYM1, 2.5), (Family.SYM2, 1.5),
         (Family.NONSYM_PLUS, 2.0), (Family.NONSYM_MINUS, 0.6)],
    )
    def test_solver_catalog_stieltjes_agreement(self, family, lam):
        # three routes to (alpha_1, omega_2) agree to 1e-8
        seq = stieltjes_from_quadrature(gauss_rule((family, lam, None, None), 20), 4)
        if family in (Family.SYM1, Family.SYM2):
            branch = 0 if family is Family.SYM1 else 1
            sol = solve_symmetric(lam)[branch]
        else:
            branch = 0 if family is Family.NONSYM_PLUS else 1
            sol = solve_nonsymmetric(lam)[1][branch]
        table = family_sequence(family, lam, size=3)
        assert sol.omega2 == pytest.approx(table.omegas[2], rel=1e-12)
        assert sol.alpha1 == pytest.approx(table.alphas[1], abs=1e-12)
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


EXACT_LAMBDAS = [Fraction(1, 3), Fraction(3, 10), Fraction(3, 4), Fraction(5, 2), Fraction(7)]


def symmetric_solutions(lam):
    """(omega_2, a0) of the paper's sym1 and, for lambda > 1/2, sym2 branch."""
    yield (2 * lam + 1) / (lam + 2), (1 - lam * lam) / (2 * (lam + 2))
    if lam > Fraction(1, 2):
        yield (2 * lam - 1) / (lam + 1), (1 - lam) / 2


class TestExactMatching:
    """The matching kernel on Fraction inputs: every coefficient is exact."""

    @pytest.mark.parametrize("lam", EXACT_LAMBDAS, ids=str)
    def test_symmetric_solutions_match_exactly(self, lam):
        for omega2, a0 in symmetric_solutions(lam):
            res = _matching_residual(lam, Fraction(0), omega2, [Fraction(1), Fraction(0), a0])
            assert res == [0] * 5
            assert all(type(c) is Fraction for c in res)

    def test_a_wrong_omega2_leaves_a_residual(self):
        lam = Fraction(5, 2)
        (omega2, a0), _ = symmetric_solutions(lam)
        res = _matching_residual(lam, Fraction(0), omega2 + Fraction(1, 10**6),
                                 [Fraction(1), Fraction(0), a0])
        assert any(res)

    @pytest.mark.parametrize("k", range(3, 9))
    @pytest.mark.parametrize("params", [(Fraction(17, 10), Fraction(2, 5), Fraction(6, 5)),
                                        (Fraction(1, 3), Fraction(0), Fraction(5, 7))],
                             ids=["nonsym", "sym"])
    def test_top_equation_is_minus_t_squared(self, params, k):
        # degree_bound_check's top-equation step, exactly and beyond degree 6
        lower = [Fraction(1)] + [Fraction((-1) ** j, j + 2) for j in range(1, k)]
        samples = [_matching_residual(*params, lower + [Fraction(t)])[2 * k] for t in range(3)]
        assert samples == [0, -1, -4]
        assert all(type(p) is Fraction for p in samples)


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} called on the classification path")


def test_classification_path_is_numpy_free(monkeypatch):
    monkeypatch.setattr(riccati, "np", _NoNumpy())
    for lam in (0.3, 2.3):
        assert len(solve_symmetric(lam)) == 2
    assert len(solve_nonsymmetric(2.3)[1]) == 2
    assert nonsymmetric_omega2_roots(2.3)[0] == 0.0
    assert degree_bound_check(1.7, 0.4, 1.2, 6) == 0.0


class TestFreeMeixnerUniqueness:
    # At lambda = 1, g = f - Q_1/2 solves Q_2 g' = g^2 + Q~_2.  Its solution
    # g = 1/z + h with h = h0 + sum_{n>=1} c_n z^n has h0 = a/2, and the
    # recursion (m+3) c_{m+1} = -a(m+1) c_m - b(m-1) c_{m-1} - conv_m, whose
    # factor m + 3 never vanishes, makes every c_n zero: g = 1/z + a/2 is
    # the only solution.  The free Meixner closed form must be it.
    ZS = (0.05, -0.08, 0.1 + 0.04j, -0.03j)

    @staticmethod
    def h(a, b, z):
        cf = get_closed_form(Family.FREE_MEIXNER, None, a, b)
        return closed_f(cf, z) - 0.5 * polyval_ascending(coefficients(1.0, a, 1.0 + b).q1, z) - 1.0 / z

    def test_semicircle_all_zero(self):
        assert max(abs(self.h(0.0, 0.0, z)) for z in self.ZS) <= 1e-14

    @pytest.mark.parametrize("a,b", [(0.7, 0.3), (-1.0, -0.5), (2.0, 1.0),
                                     (0.1, -1.0)])
    def test_coefficients_vanish(self, a, b):
        # h - a/2 vanishes at every point, so every c_n does
        assert max(abs(self.h(a, b, z) - 0.5 * a) for z in self.ZS) <= 1e-13

    def test_resulting_g_solves_riccati(self):
        # g = 1/z + a/2 solves the reduced equation, and f = g + Q_1/2 is
        # the free Meixner closed form
        a, b = -1.0, -0.5
        cf = get_closed_form(Family.FREE_MEIXNER, None, a, b)
        co = coefficients(1.0, a, 1.0 + b)
        for z in self.ZS:
            g, g_prime = 1.0 / z + 0.5 * a, -1.0 / (z * z)
            reduced = (polyval_ascending(co.q2, z) * g_prime - g * g
                       - polyval_ascending(co.q2_tilde, z))
            assert abs(reduced) <= 1e-12 * abs(g * g)
            f = g + 0.5 * polyval_ascending(co.q1, z)
            assert f == pytest.approx(closed_f(cf, z), rel=1e-13)
        assert residual_f((Family.FREE_MEIXNER, None, a, b), cf).max() == 0.0


def h_initial(config):
    """h(0) = lim_{z->0} (g(z) - 1/z) = c1 - alpha_1/2, g = f - Q_1/2, read
    exactly from the closed form z f(z) = 1 + c1 z + c2 z^2."""
    cf = get_closed_form(*config)
    return cf.zf_coeffs[1] - 0.5 * cf.alpha1


class TestHLambdaInitial:
    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_h0_is_half_lambda_alpha1(self, config):
        # the paper's h(0) = lambda alpha_1 / 2 on every sweep closed form
        cf = get_closed_form(*config)
        assert h_initial(config) == pytest.approx(0.5 * cf.lam * cf.alpha1, rel=1e-12,
                                                  abs=1e-15)

    def test_symmetric_families_zero(self):
        assert h_initial((Family.SYM1, 2.0, None, None)) == 0.0
        assert h_initial((Family.SYM2, 1.5, None, None)) == 0.0

    def test_nonsym_plus_lambda2(self):
        value = h_initial((Family.NONSYM_PLUS, 2.0, None, None))
        assert value == pytest.approx(2.0 / math.sqrt(27.0), rel=1e-12)

    def test_nonsym_minus(self):
        assert h_initial((Family.NONSYM_MINUS, 2.0, None, None)) == pytest.approx(
            -2.0 / math.sqrt(27.0), rel=1e-12
        )

    def test_free_meixner_half_a(self):
        assert h_initial((Family.FREE_MEIXNER, None, 0.5, 0.25)) == pytest.approx(0.25)
