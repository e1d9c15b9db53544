"""Tests for the special-function identity suite."""
import itertools
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LAMBDA_SWEEP
from opgf import (
    DomainError,
    Family,
    ParameterError,
    QuadratureRule,
    build_measure,
    closed_form,
    family_sequence,
    psi_analytic,
    psi_closed,
    stieltjes_from_quadrature,
)
from opgf.genfun import pochhammer_over_factorial
from opgf.identities import (
    HypergeometricParams,
    duplication_check,
    family2_identity,
    gauss_2f1,
    gegenbauer_gf_check,
    gegenbauer_omega,
    gegenbauer_sequence,
    gf3_equivalence,
    jacobi_2f1_gf_check,
    jacobi_alpha,
    jacobi_omega,
    jacobi_sequence,
    jacobi_shift_check,
    one_f_zero_reduction,
    pochhammer,
    pochhammer_ratio_check,
    tilde_gegenbauer_identity,
    two_f_one_collapse_check,
)
from opgf.recurrence import monic_values


class TestPochhammer:
    def test_base_cases(self):
        assert pochhammer(3.7, 0) == 1.0
        assert pochhammer(2.0, 3) == 24.0
        assert pochhammer(0.5, 2) == 0.75

    def test_rejects_negative_n(self):
        with pytest.raises(ParameterError):
            pochhammer(1.0, -1)

    @settings(max_examples=80, deadline=None)
    @given(lam=st.floats(0.05, 4.0), n=st.integers(0, 20))
    def test_recurrence_exact_in_floats(self, lam, n):
        # (lam)_{n+1} = (lam + n) (lam)_n holds bit-for-bit with the forward
        # product evaluation.
        assert pochhammer(lam, n + 1) == (lam + n) * pochhammer(lam, n)

    def test_over_factorial_matches(self):
        coefs = list(itertools.islice(pochhammer_over_factorial(1.7), 21))
        for n in range(21):
            assert coefs[n] == pytest.approx(
                pochhammer(1.7, n) / math.factorial(n), rel=1e-13
            )


class TestDuplication:
    def test_a_one_exact(self):
        assert duplication_check(1.0) <= 1e-15

    @pytest.mark.parametrize("a", [2.5, 0.75])
    def test_examples(self, a):
        assert duplication_check(a) <= 1e-13

    def test_grid(self):
        for a in np.arange(0.25, 5.01, 0.25):
            assert duplication_check(float(a)) <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            duplication_check(0.0)


class TestPochhammerRatio:
    def test_n_zero(self):
        assert pochhammer_ratio_check(1.3, 0) == 0.0

    def test_lambda_one_by_hand(self):
        # (1)_4 / (1/2)_2 = 24 / 0.75 = 32 = 2^4 (1)_2
        assert pochhammer_ratio_check(1.0, 2) <= 1e-15

    def test_long_products(self):
        for lam in (0.6, 1.0, 1.7, 2.5, 3.3):
            for n in range(21):
                assert pochhammer_ratio_check(lam, n) <= 1e-12

    def test_defined_at_lambda_half(self):
        # (0)_{2n} / (0)_n is 0/0 as written; with the common zero factor
        # cancelled it is 2 (1)_{2n-1} / (1)_{n-1} = 4^n (1/2)_n
        for n in range(21):
            assert pochhammer_ratio_check(0.5, n) <= 1e-12

    def test_rejects_nonpositive_lambda(self):
        for lam in (0.0, -0.5):
            with pytest.raises(ParameterError):
                pochhammer_ratio_check(lam, 3)


class TestOneFZero:
    def test_y_zero(self):
        assert one_f_zero_reduction(2.0, 0.0) == 0.0

    def test_geometric_case(self):
        assert one_f_zero_reduction(1.0, 0.5) <= 1e-12

    def test_binomial_case(self):
        assert one_f_zero_reduction(2.5, -0.3) <= 1e-12

    def test_grid(self):
        for lam in (0.7, 1.0, 2.5):
            for y in (-0.5, -0.3, 0.3, 0.5):
                assert one_f_zero_reduction(lam, y) <= 1e-11

    def test_domain(self):
        with pytest.raises(DomainError):
            one_f_zero_reduction(1.0, 1.0)


class TestClassicalRecurrences:
    """Cross-validate the textbook coefficients against the Stieltjes
    procedure run on independently generated Gauss-Jacobi rules."""

    @pytest.mark.parametrize("lam", [0.6, 1.0, 1.8, 2.5])
    def test_gegenbauer_vs_stieltjes(self, lam):
        nodes, weights = scipy.special.roots_jacobi(25, lam - 0.5, lam - 0.5)
        weights = weights / weights.sum()
        rule = QuadratureRule(nodes=nodes, weights=weights, order=25)
        seq = stieltjes_from_quadrature(rule, 8)
        for n in range(1, 9):
            assert seq.omegas[n] == pytest.approx(gegenbauer_omega(n, lam), abs=1e-10)
            assert seq.alphas[n] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("ab", [(0.7, -0.3), (1.5, 0.5), (2.3, 1.1)])
    def test_jacobi_vs_stieltjes(self, ab):
        alf, bet = ab
        nodes, weights = scipy.special.roots_jacobi(25, alf, bet)
        weights = weights / weights.sum()
        rule = QuadratureRule(nodes=nodes, weights=weights, order=25)
        seq = stieltjes_from_quadrature(rule, 8)
        for n in range(9):
            assert seq.alphas[n] == pytest.approx(jacobi_alpha(n, alf, bet), abs=1e-10)
            if n >= 1:
                assert seq.omegas[n] == pytest.approx(jacobi_omega(n, alf, bet), abs=1e-10)

    def test_sequences_not_standardized(self):
        assert not gegenbauer_sequence(1.5, 10).standardized
        assert not jacobi_sequence(0.5, -0.5, 10).standardized

    @pytest.mark.parametrize("ab", [(1.5, -0.5), (0.5, 0.5), (2.0, 1.0)])
    def test_monic_to_classical_constant(self, ab):
        # classical P_n = (n + alf + bet + 1)_n / (2^n n!) * monic p_n, n <= 5
        from opgf import eval_monic

        alf, bet = ab
        for n in range(6):
            const = pochhammer(n + alf + bet + 1.0, n) / (
                2.0**n * math.factorial(n)
            )
            for y in (-0.6, 0.0, 0.37, 0.9):
                monic = eval_monic(jacobi_sequence(alf, bet, 6), n, y)[n]
                classical = scipy.special.eval_jacobi(n, alf, bet, y)
                assert const * monic == pytest.approx(
                    classical, rel=1e-12, abs=1e-13
                )


@pytest.mark.parametrize("check, lam, zs, xs", [
    (lambda lam, z, x: gegenbauer_gf_check(lam, z, x, 120), 1.7,
     [0.25, 0.1, 0.1j, complex(-0.1, 0.1)], [-1.0, -0.5, 0.0, 0.5, 1.0]),
    (tilde_gegenbauer_identity, 0.6, [0.1, 0.05, 0.1j, complex(-0.05, 0.05)],
     list(np.linspace(-1.7, 1.7, 5))),
    (family2_identity, 2.5, [0.1, 0.05, 0.1j, complex(-0.05, 0.05)],
     list(np.linspace(-2.2, 2.2, 5))),
    (jacobi_2f1_gf_check, 1.6, [-0.15, -0.1, 0.1, 0.15], [-0.4, 0.0, 0.4, 0.8]),
])
def test_grid_checks_match_points(check, lam, zs, xs):
    # one call on the (z, x) grid gives each pair's residual, up to the
    # rounding of the closed form and of the series (a few 1e-16)
    grid = check(lam, zs, xs)
    assert grid.shape == (len(zs), len(xs))
    for i, z in enumerate(zs):
        for j, x in enumerate(xs):
            assert abs(grid[i, j] - check(lam, z, x)) <= 1e-15


class TestGegenbauerGf:
    def test_z_zero(self):
        assert gegenbauer_gf_check(1.5, 0.0, 0.5, 40) == 0.0

    def test_chebyshev_u_case(self):
        assert gegenbauer_gf_check(1.0, 0.2, 0.5, 120) <= 1e-11

    def test_high_lambda(self):
        assert gegenbauer_gf_check(2.5, 0.1, -0.8, 120) <= 1e-11

    def test_grid(self):
        for lam in (0.7, 1.0, 2.5):
            for z in (0.25, 0.1, 0.1j, complex(-0.1, 0.1)):
                for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
                    assert gegenbauer_gf_check(lam, z, x, 150) <= 1e-10

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            gegenbauer_gf_check(1.0, 0.1, 1.5, 40)
        with pytest.raises(DomainError):
            gegenbauer_gf_check(1.0, 0.5, 0.5, 40)


class TestTildeGegenbauer:
    def test_z_zero(self):
        assert tilde_gegenbauer_identity(2.0, 0.0, 1.0) == 0.0

    def test_lambda2_example_and_psi_closed(self):
        assert tilde_gegenbauer_identity(2.0, 0.1, 1.0) <= 1e-11
        # the closed side coincides with the sym1 generating function
        cf = closed_form(Family.SYM1, 2.0)
        closed = (1.0 - 0.1 * 1.0 + 0.5 * 3.0 * 0.01) ** (-2.0)
        assert psi_closed(cf, 0.1, 1.0) == pytest.approx(closed, rel=1e-13)

    def test_complex_z(self):
        assert tilde_gegenbauer_identity(0.7, 0.05j, -1.0) <= 1e-11

    def test_conjugation_invariance(self):
        z = complex(0.04, 0.07)
        r1 = tilde_gegenbauer_identity(1.6, z, 0.9)
        r2 = tilde_gegenbauer_identity(1.6, z.conjugate(), 0.9)
        assert r1 == pytest.approx(r2, abs=1e-14)


class TestFamily2:
    def test_z_zero(self):
        assert family2_identity(2.0, 0.0, 0.5) == 0.0

    def test_lambda2_closed_value(self):
        # closed form is (1 - 0.01)/(1.01)^2 at lambda=2, z=0.1, x=0
        assert family2_identity(2.0, 0.1, 0.0) <= 1e-11

    def test_negative_z(self):
        assert family2_identity(1.5, -0.08, 1.0) <= 1e-11

    def test_conjugation_invariance(self):
        z = complex(-0.03, 0.06)
        assert family2_identity(2.2, z, -0.4) == pytest.approx(
            family2_identity(2.2, z.conjugate(), -0.4), abs=1e-14
        )

    def test_lambda_validation(self):
        with pytest.raises(ParameterError):
            family2_identity(1.0, 0.1, 0.0)
        with pytest.raises(ParameterError):
            family2_identity(0.4, 0.1, 0.0)


class TestJacobiShift:
    def test_degree_zero(self):
        assert jacobi_shift_check(2.0, 1, [1.3], "plus")[0, 0] == 0.0

    def test_degree_one_is_x(self):
        # P_1(x) = x on both sides (standardized mean)
        assert jacobi_shift_check(2.0, 1, [0.8], "plus")[1, 0] <= 1e-15
        assert jacobi_shift_check(2.0, 1, [0.8], "minus")[1, 0] <= 1e-15

    def test_degree_five_minus(self):
        assert jacobi_shift_check(1.8, 5, [0.5], "minus")[5, 0] <= 1e-9

    def test_sweep(self):
        for lam in (0.8, 1.8, 2.5):
            for sign in ("plus", "minus"):
                grid = jacobi_shift_check(lam, 10, [-0.4, 0.2, 0.9], sign)
                assert grid.shape == (11, 3)
                assert grid.max() <= 1e-9

    def test_sign_validation(self):
        with pytest.raises(ParameterError):
            jacobi_shift_check(2.0, 3, [0.5], "both")

    def test_needs_a_coefficient(self):
        with pytest.raises(ParameterError):
            jacobi_shift_check(2.0, 0, [0.5], "plus")

    @pytest.mark.parametrize("lam", LAMBDA_SWEEP)
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_grid_equals_scalar_evaluation(self, lam, sign):
        # every (n, x) entry bit-equal to the one-point evaluation: a scalar
        # recurrence run per x for each side, k^n as a Python float power
        family = Family.NONSYM_PLUS if sign == "plus" else Family.NONSYM_MINUS
        lo, hi = build_measure(family, lam).support
        xs = np.linspace(lo, hi, 5)
        root = math.sqrt(2.0 * lam - 1.0)
        k, shift = 2.0 * lam / root, (-1.0 if sign == "plus" else 1.0)
        alf, bet = (lam - 0.5, lam - 1.5) if sign == "plus" else (lam - 1.5, lam - 0.5)
        catalog = family_sequence(family, lam, size=10)
        oracle = jacobi_sequence(alf, bet, 10)
        grid = jacobi_shift_check(lam, 10, xs, sign)
        assert grid.shape == (11, 5)
        for j, x in enumerate(xs.tolist()):
            y = (root * x + shift) / (2.0 * lam)
            pairs = zip(monic_values(catalog, x), monic_values(oracle, y))
            for n, (p, q) in enumerate(itertools.islice(pairs, 11)):
                expected = abs(p - k**n * q) / max(1.0, abs(k**n * q))
                assert grid[n, j] == expected


class TestJacobi2F1:
    def test_t_zero(self):
        assert jacobi_2f1_gf_check(2.0, 0.0, 0.5) == 0.0

    def test_lambda2(self):
        assert jacobi_2f1_gf_check(2.0, 0.1, 0.5) <= 1e-11

    def test_below_one(self):
        assert jacobi_2f1_gf_check(0.9, -0.15, -0.4) <= 1e-11

    def test_grid(self):
        for lam in (0.9, 1.6, 2.0, 2.5):
            for t in (-0.15, -0.1, 0.1, 0.15):
                for y in (-0.4, 0.0, 0.4, 0.8):
                    assert jacobi_2f1_gf_check(lam, t, y) <= 1e-10

    def test_domains(self):
        with pytest.raises(DomainError):
            jacobi_2f1_gf_check(2.0, 0.4, 0.5)
        with pytest.raises(DomainError):
            jacobi_2f1_gf_check(2.0, 0.1, 1.2)


class TestHypergeometric:
    def test_params_validation(self):
        with pytest.raises(DomainError):
            HypergeometricParams(upper=(1.0, 2.0), lower=1.5, argument=1.0)
        with pytest.raises(ParameterError):
            HypergeometricParams(upper=(1.0, 2.0), lower=-1.0, argument=0.3)
        with pytest.raises(ParameterError):
            HypergeometricParams(upper=(1.0, 2.0), lower=0.0, argument=0.3)

    def test_series_against_scipy(self):
        for upper, lower, arg in (((0.5, 1.3), 2.1, 0.4), ((1.0, 1.0), 0.7, -0.6),
                                  ((2.5, 0.3), 1.9, 0.25)):
            params = HypergeometricParams(upper=upper, lower=lower, argument=arg)
            expected = scipy.special.hyp2f1(upper[0], upper[1], lower, arg)
            assert gauss_2f1(params) == pytest.approx(expected, rel=1e-12)

    def test_collapse_lambda2(self):
        assert two_f_one_collapse_check(2.0, 0.1, 0.5) <= 1e-12

    def test_collapse_grid(self):
        for lam in (0.9, 1.6, 2.0, 2.5):
            for t in (-0.15, -0.1, 0.1, 0.15):
                for y in (-0.4, 0.0, 0.4, 0.8):
                    assert two_f_one_collapse_check(lam, t, y) <= 1e-11

    def test_collapse_domains(self):
        with pytest.raises(DomainError):
            two_f_one_collapse_check(2.0, 0.35, 0.5)


class TestGf3:
    def test_lambda2(self):
        for sign in ("plus", "minus"):
            assert gf3_equivalence(2.0, 0.1, 0.0, sign) <= 1e-13

    def test_small_z_tends_to_one(self):
        cf = closed_form(Family.NONSYM_PLUS, 2.0)
        assert abs(psi_analytic(cf, 1e-9, 0.7) - 1.0) <= 1e-8
        for sign in ("plus", "minus"):
            assert gf3_equivalence(2.0, 1e-9, 0.7, sign) <= 1e-13

    def test_negative_z(self):
        for sign in ("plus", "minus"):
            assert gf3_equivalence(1.2, -0.05, 1.0, sign) <= 1e-13

    def test_grid(self):
        for lam in (0.8, 1.2, 2.0):
            for sign in ("plus", "minus"):
                for z in (-0.05, 0.05, 0.1):
                    for x in (-0.5, 0.0, 0.5, 1.5):
                        assert gf3_equivalence(lam, z, x, sign) <= 1e-12

    def test_own_support_edge_in_guard_band(self):
        # at lambda = 0.51 the plus support reaches x = 14.28, where the
        # minus display has crossed its branch cut; each sign is checked
        # only on its own family's support
        families = ((Family.NONSYM_PLUS, "plus"), (Family.NONSYM_MINUS, "minus"))
        for family, sign in families:
            lo, hi = build_measure(family, 0.51).support
            for x in (lo, hi):
                assert gf3_equivalence(0.51, 0.05, x, sign) <= 1e-12

    def test_rejects_unknown_sign(self):
        with pytest.raises(ParameterError):
            gf3_equivalence(2.0, 0.1, 0.0, "both")


class TestSubstitutionChain:
    @pytest.mark.parametrize("lam", [0.8, 1.4, 2.0, 2.6])
    def test_2f1_form_equals_psi(self, lam):
        # substituting y = (sqrt(2l-1) x - 1)/(2l), t = l z / sqrt(2l-1)
        # turns the Jacobi closed form into the plus-family psi
        cf = closed_form(Family.NONSYM_PLUS, lam)
        root = math.sqrt(2.0 * lam - 1.0)
        for z in (-0.05, 0.02, 0.1):
            for x in (-0.3, 0.4, 1.1):
                t = lam * z / root
                y = (root * x - 1.0) / (2.0 * lam)
                closed = (1.0 + t) * (1.0 + t * t - 2.0 * t * y) ** (-lam)
                assert abs(closed - psi_analytic(cf, z, x)) <= 1e-10
                # and the series representation agrees with that closed form
                assert jacobi_2f1_gf_check(lam, t, y) <= 1e-10
