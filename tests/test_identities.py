"""Tests for the special-function identity suite."""
import itertools
import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LAMBDA_SWEEP, get_closed_form, get_sequence
from opgf import (
    DomainError,
    Family,
    ParameterError,
    QuadratureRule,
    closed_form,
    family_sequence,
    psi_analytic,
)
from opgf import genfun
from opgf.families import beta_exponents, support_interval
from opgf.genfun import SERIES_CAP
from opgf.identities import beta_law_table_check, jacobi_sequence
from opgf.recurrence import JacobiSzegoSequence, eval_monic
from reference import (
    beta_law,
    duplication_check,
    family2_identity,
    gauss_2f1,
    gegenbauer_gf_check,
    gegenbauer_omega,
    gegenbauer_sequence,
    jacobi_2f1_gf_check,
    jacobi_alpha,
    jacobi_omega,
    nonsym_prefactor_psi,
    one_f_zero_reduction,
    pochhammer_over_factorial,
    pochhammer_ratio_check,
    psi_closed,
    rising_table,
    standardized,
    stieltjes_from_quadrature,
    tilde_gegenbauer_identity,
    two_f_one_collapse_check,
)


def pochhammer(lam: float, n: int) -> float:
    """(lam)_n from the rising-factorial table pochhammer_ratio_check reads."""
    return float(rising_table(lam, n)[n])


class TestPochhammer:
    def test_base_cases(self):
        assert pochhammer(3.7, 0) == 1.0
        assert pochhammer(2.0, 3) == 24.0
        assert pochhammer(0.5, 2) == 0.75

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

    @pytest.mark.parametrize("lam", [0.05, 0.5, 0.6, 1.0, 2.5, 7.3, 40.0])
    def test_array_equals_scalar_calls(self, lam):
        ns = np.arange(21)
        residuals = pochhammer_ratio_check(lam, ns)
        assert residuals.shape == (21,)
        assert residuals.tolist() == [pochhammer_ratio_check(lam, int(n)) for n in ns]
        assert type(pochhammer_ratio_check(lam, 4)) is float

    def test_array_rejects_a_negative_n(self):
        with pytest.raises(ParameterError):
            pochhammer_ratio_check(1.0, np.array([3, -1]))


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
        with pytest.raises(DomainError):
            one_f_zero_reduction(1.0, [0.5, -1.0])

    @pytest.mark.parametrize("lam", [0.05, 0.6, 1.0, 2.5, 6.0])
    def test_array_matches_binomial(self, lam):
        # each element is its own series: the array gives the scalar calls
        ys = np.array([-0.5, -0.25, 0.0, 0.25, 0.5, 0.75])
        residuals = one_f_zero_reduction(lam, ys)
        assert residuals.tolist() == [one_f_zero_reduction(lam, float(y)) for y in ys]
        with mpmath.workdps(40):
            exact = [(1 - mpmath.mpf(float(y))) ** -mpmath.mpf(lam) for y in ys]
        assert np.all(residuals <= 1e-14 * np.abs(np.array(exact, dtype=float)))


class TestClassicalRecurrences:
    """Cross-validate the textbook coefficients against the Stieltjes
    procedure run on independently generated Gauss-Jacobi rules."""

    @pytest.mark.parametrize("lam", [0.6, 1.0, 1.8, 2.5])
    def test_gegenbauer_vs_stieltjes(self, lam):
        nodes, weights = scipy.special.roots_jacobi(25, lam - 0.5, lam - 0.5)
        weights = weights / weights.sum()
        rule = QuadratureRule(nodes=nodes, weights=weights)
        seq = stieltjes_from_quadrature(rule, 8)
        for n in range(1, 9):
            assert seq.omegas[n] == pytest.approx(gegenbauer_omega(n, lam), abs=1e-10)
            assert seq.alphas[n] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("ab", [(0.7, -0.3), (1.5, 0.5), (2.3, 1.1)])
    def test_jacobi_vs_stieltjes(self, ab):
        alf, bet = ab
        nodes, weights = scipy.special.roots_jacobi(25, alf, bet)
        weights = weights / weights.sum()
        rule = QuadratureRule(nodes=nodes, weights=weights)
        seq = stieltjes_from_quadrature(rule, 8)
        for n in range(9):
            assert seq.alphas[n] == pytest.approx(jacobi_alpha(n, alf, bet), abs=1e-10)
            if n >= 1:
                assert seq.omegas[n] == pytest.approx(jacobi_omega(n, alf, bet), abs=1e-10)

    @pytest.mark.parametrize("lam", np.linspace(0.05, 40.0, 80))
    def test_tables_match_per_index_formulas(self, lam):
        # the arange-built tables against the per-index oracles, bit for bit,
        # for the Gegenbauer parameter and both Jacobi parameter orders the
        # identities use
        lam = float(lam)
        size = 200
        geg = gegenbauer_sequence(lam, size)
        assert geg.alphas.tolist() == [0.0] * size
        assert geg.omegas.tolist() == [gegenbauer_omega(n, lam) for n in range(size)]
        for alf, bet in ((lam - 0.5, lam - 1.5), (lam - 1.5, lam - 0.5)):
            jac = jacobi_sequence(alf, bet, size)
            assert jac.alphas.tolist() == [jacobi_alpha(n, alf, bet) for n in range(size)]
            assert jac.omegas.tolist() == [jacobi_omega(n, alf, bet) for n in range(size)]

    def test_short_tables_keep_their_head(self):
        for size in (1, 2, 3):
            jac = jacobi_sequence(1.5, 0.5, size)
            assert jac.alphas.tolist() == [jacobi_alpha(n, 1.5, 0.5) for n in range(size)]
            assert jac.omegas.tolist() == [jacobi_omega(n, 1.5, 0.5) for n in range(size)]
            assert gegenbauer_sequence(0.7, size).omegas.tolist() == \
                [gegenbauer_omega(n, 0.7) for n in range(size)]

    def test_sequences_not_standardized(self):
        assert not standardized(gegenbauer_sequence(1.5, 10))
        assert not standardized(jacobi_sequence(0.5, -0.5, 10))

    @pytest.mark.parametrize("ab", [(1.5, -0.5), (0.5, 0.5), (2.0, 1.0)])
    def test_monic_to_classical_constant(self, ab):
        # classical P_n = (n + alf + bet + 1)_n / (2^n n!) * monic p_n, n <= 5
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
    (lambda lam, z, x: gegenbauer_gf_check(lam, z, x), 1.7,
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
        assert gegenbauer_gf_check(1.5, 0.0, 0.5) == 0.0

    def test_chebyshev_u_case(self):
        assert gegenbauer_gf_check(1.0, 0.2, 0.5) <= 1e-11

    def test_high_lambda(self):
        assert gegenbauer_gf_check(2.5, 0.1, -0.8) <= 1e-11

    def test_grid(self):
        for lam in (0.7, 1.0, 2.5):
            for z in (0.25, 0.1, 0.1j, complex(-0.1, 0.1)):
                for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
                    assert gegenbauer_gf_check(lam, z, x) <= 1e-10

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            gegenbauer_gf_check(1.0, 0.1, 1.5)
        with pytest.raises(DomainError):
            gegenbauer_gf_check(1.0, 0.5, 0.5)


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


NONSYM = {"plus": Family.NONSYM_PLUS, "minus": Family.NONSYM_MINUS}
BETA_FAMILIES = (Family.SYM1, Family.SYM2, Family.NONSYM_PLUS, Family.NONSYM_MINUS)


def table_check(family, lam):
    """beta_law_table_check on the closed form and table of a Beta law."""
    return beta_law_table_check(get_closed_form(family, lam, None, None),
                                get_sequence(family, lam, None, None))


def gf3(sign, lam, z, x):
    """|psi - display| / max(1, |psi|) at one point between psi_analytic's
    psi of a non-symmetric closed form and the rational-prefactor display."""
    psi = psi_analytic(get_closed_form(NONSYM[sign], lam, None, None), z, x)
    display = nonsym_prefactor_psi(1.0 if sign == "plus" else -1.0, lam, z, x)
    return abs(psi - display) / max(1.0, abs(psi))


class TestBetaLawTable:
    @pytest.mark.parametrize("lam", [0.51, 0.6, 2.0, 7.3, 40.0])
    @pytest.mark.parametrize("family", BETA_FAMILIES)
    def test_exponents_match_the_density_oracle(self, family, lam):
        # reference.beta_law keeps its own transcription of the exponents
        (e_lo, e_hi), _, _ = beta_law(family, lam)
        assert beta_exponents(family, lam) == (e_hi, e_lo)

    @pytest.mark.parametrize("lam", LAMBDA_SWEEP)
    @pytest.mark.parametrize("family", BETA_FAMILIES)
    def test_sweep(self, family, lam):
        residuals = table_check(family, lam)
        assert residuals.shape == (2 * SERIES_CAP - 1,)
        assert residuals.max() <= 1e-12

    @pytest.mark.parametrize("family, lam", [(Family.SYM1, 0.05)] + [
        (family, lam) for family in BETA_FAMILIES
        for lam in (0.51, 20.0, 1e4, 1e8, 1e12, 1e77, 1e100)])
    def test_edge_and_large_lambdas(self, family, lam):
        # the domain's edge draws and large lambda agree to a few ulps; at
        # lambda = 1e77 and 1e100 a product of four factors of size s = 2n +
        # alpha + beta would overflow (s^4 > 1e308)
        assert table_check(family, lam).max() <= 4e-15

    def test_refuses_free_meixner(self):
        config = (Family.FREE_MEIXNER, None, 0.5, 0.25)
        with pytest.raises(ParameterError, match="free-meixner is not a Beta law"):
            beta_law_table_check(get_closed_form(*config), get_sequence(*config))
        with pytest.raises(ParameterError):
            beta_exponents(Family.FREE_MEIXNER, 1.0)

    def test_other_law_fails(self):
        # sym2's table read against sym1's law, and nonsym-minus's against
        # nonsym-plus's, are far off
        sym2 = get_sequence(Family.SYM2, 2.0, None, None)
        assert beta_law_table_check(get_closed_form(Family.SYM1, 2.0, None, None),
                                    sym2).max() > 1e-2
        minus = get_sequence(Family.NONSYM_MINUS, 2.0, None, None)
        assert beta_law_table_check(get_closed_form(Family.NONSYM_PLUS, 2.0, None, None),
                                    minus).max() > 1e-2

    def test_short_table_is_the_prefix(self):
        # a table of 5 entries gives the residuals of the 200-entry table's
        # first 5 alphas and first 4 omegas past omega_0, bit for bit
        cf = get_closed_form(Family.NONSYM_PLUS, 2.0, None, None)
        short = beta_law_table_check(cf, family_sequence(Family.NONSYM_PLUS, 2.0, size=5))
        full = table_check(Family.NONSYM_PLUS, 2.0)
        assert short.shape == (9,)
        assert short.tolist() == full[:5].tolist() + full[SERIES_CAP:SERIES_CAP + 4].tolist()

    @pytest.mark.parametrize("lam", LAMBDA_SWEEP)
    @pytest.mark.parametrize("family", BETA_FAMILIES)
    def test_entries_equal_per_index_evaluation(self, family, lam):
        # every residual bit-equal to the per-index Jacobi formulas mapped
        # onto the support, with the exponents of the density oracle
        (bet, alf), _, _ = beta_law(family, lam)
        lo, hi = support_interval(family, lam)
        centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        seq = get_sequence(family, lam, None, None)
        alphas, omegas = seq.alphas.tolist(), seq.omegas.tolist()
        expected = [abs(a - (centre + half * jacobi_alpha(n, alf, bet))) / half
                    for n, a in enumerate(alphas)]
        expected += [abs(w - half * half * jacobi_omega(n, alf, bet)) / w
                     for n, w in enumerate(omegas) if n]
        assert table_check(family, lam).tolist() == expected


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
            gauss_2f1((1.0, 2.0), 1.5, 1.0)
        with pytest.raises(ParameterError):
            gauss_2f1((1.0, 2.0), -1.0, 0.3)
        with pytest.raises(ParameterError):
            gauss_2f1((1.0, 2.0), 0.0, 0.3)

    def test_series_against_scipy(self):
        for upper, lower, arg in (((0.5, 1.3), 2.1, 0.4), ((1.0, 1.0), 0.7, -0.6),
                                  ((2.5, 0.3), 1.9, 0.25)):
            expected = scipy.special.hyp2f1(upper[0], upper[1], lower, arg)
            assert gauss_2f1(upper, lower, arg) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("lam", LAMBDA_SWEEP)
    def test_array_matches_mpmath(self, lam):
        # the collapse's own 2F1 at the 16 points verify uses, one call
        alf, bet = lam - 0.5, lam - 1.5
        t = np.array([-0.15, -0.1, 0.1, 0.15])[:, None]
        w = (2.0 * (np.array([-0.4, 0.0, 0.4, 0.8]) + 1.0) * t / (1.0 + t) ** 2).ravel()
        upper, lower = (0.5 * (alf + bet + 1.0), 0.5 * (alf + bet + 2.0)), bet + 1.0
        values = gauss_2f1(upper, lower, w)
        with mpmath.workdps(40):
            exact = np.array([mpmath.hyp2f1(upper[0], upper[1], lower, float(arg))
                              for arg in w], dtype=float)
        assert np.all(np.abs(values - exact) <= 1e-14 * np.abs(exact))

    def test_scalar_argument_gives_a_float(self):
        assert type(gauss_2f1((0.5, 1.3), 2.1, 0.4)) is float
        with pytest.raises(DomainError):
            gauss_2f1((1.0, 2.0), 1.5, np.array([0.2, -1.0]))

    def test_collapse_grid_is_one_call(self):
        ts, ys = [-0.15, -0.1, 0.1, 0.15], [-0.4, 0.0, 0.4, 0.8]
        grid = two_f_one_collapse_check(1.6, ts, ys)
        assert grid.shape == (4, 4)
        for i, t in enumerate(ts):
            for j, y in enumerate(ys):
                assert grid[i, j] == two_f_one_collapse_check(1.6, t, y)

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
            assert gf3(sign, 2.0, 0.1, 0.0) <= 1e-13

    def test_small_z_tends_to_one(self):
        cf = closed_form(Family.NONSYM_PLUS, 2.0)
        assert abs(psi_analytic(cf, 1e-9, 0.7) - 1.0) <= 1e-8
        for sign in ("plus", "minus"):
            assert gf3(sign, 2.0, 1e-9, 0.7) <= 1e-13

    def test_negative_z(self):
        for sign in ("plus", "minus"):
            assert gf3(sign, 1.2, -0.05, 1.0) <= 1e-13

    def test_grid(self):
        for lam in (0.8, 1.2, 2.0):
            for sign in ("plus", "minus"):
                for z in (-0.05, 0.05, 0.1):
                    for x in (-0.5, 0.0, 0.5, 1.5):
                        assert gf3(sign, lam, z, x) <= 1e-12

    def test_own_support_edge_in_guard_band(self):
        # at lambda = 0.51 the plus support reaches x = 14.28, where the
        # minus display has crossed its branch cut; each sign is checked
        # only on its own family's support
        for sign, family in NONSYM.items():
            lo, hi = support_interval(family, 0.51)
            for x in (lo, hi):
                assert gf3(sign, 0.51, 0.05, x) <= 1e-12

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_grid_matches_points(self, sign):
        # one grid call gives, bit for bit, the scalar call at each point,
        # and each point agrees with the display
        cf = get_closed_form(NONSYM[sign], 1.2, None, None)
        zs, xs = [-0.05, 0.05, 0.1], [-0.5, 0.0, 0.5, 1.5]
        grid = psi_analytic(cf, zs, xs)
        assert grid.shape == (3, 4)
        for i, z in enumerate(zs):
            for j, x in enumerate(xs):
                assert grid[i, j] == psi_analytic(cf, z, x)
                assert gf3(sign, 1.2, z, x) <= 1e-12

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_coefficients_are_the_displays(self, sign):
        # c1 = sgn/r, c2 = lambda^2/r^2 and d1 = sgn lambda/r, r = sqrt(2 lambda - 1),
        # each coefficient on its own; the other sign's closed form is not
        # the display
        lam, sgn = 1.2, 1.0 if sign == "plus" else -1.0
        root = math.sqrt(2.0 * lam - 1.0)
        cf = get_closed_form(NONSYM[sign], lam, None, None)
        assert cf.zf_coeffs == pytest.approx((1.0, sgn / root, lam * lam / root ** 2),
                                             rel=1e-15)
        assert cf.numerator_coeffs == pytest.approx((1.0, sgn * lam / root, 0.0), rel=1e-15)
        other = get_closed_form(NONSYM["minus" if sign == "plus" else "plus"], lam, None, None)
        assert abs(psi_analytic(other, 0.1, 0.5)
                   - nonsym_prefactor_psi(sgn, lam, 0.1, 0.5)) > 1e-3


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


class TestTinyLambdaGegenbauer:
    @pytest.mark.parametrize("lam", [1e-300, 1e-20, 1e-9])
    def test_table_is_finite_without_warnings(self, lam):
        # the tail formula at n = 1 is 0/0 once lambda is below the rounding
        # of 1 + 2 lambda; omega_1 is written as 1 / (2 (1 + lambda))
        with np.errstate(all="raise"):
            seq = gegenbauer_sequence(lam, 200)
        assert np.all(np.isfinite(seq.omegas))
        assert seq.omegas[1] == 0.5 / (1.0 + lam)
        # omega_n -> 1/4 for the Chebyshev limit lambda -> 0
        assert seq.omegas[2:].tolist() == pytest.approx([0.25] * 198, abs=1e-8)

    @pytest.mark.parametrize("lam", [1e-300, 0.05])
    def test_identities_hold_at_tiny_lambda(self, lam):
        assert gegenbauer_gf_check(lam, [0.25, 0.1j], [-1.0, 0.0, 1.0]).max() <= 1e-10
        xs = np.linspace(-1.0, 1.0, 5) * math.sqrt(2.0 * (1.0 + lam))
        assert tilde_gegenbauer_identity(lam, [0.02, 0.02j], xs).max() <= 1e-10


def assert_rows_are_single_calls(stacked, singles):
    # bit for bit, shape included
    assert len(stacked) == len(singles)
    for row, single in zip(stacked, singles):
        assert np.asarray(row).tobytes() == np.asarray(single).tobytes()
        assert np.shape(row) == np.shape(single)


SYM1_STACK = [0.05, 1e-300, 0.6, 2.5, 0.75]
SYM2_STACK = [0.51, 0.6, 1.5, 2.0, 2.5]
NONSYM_STACK = [(Family.NONSYM_PLUS, 0.51), (Family.NONSYM_MINUS, 0.51),
                (Family.NONSYM_PLUS, 2.0), (Family.NONSYM_MINUS, 0.6),
                (Family.NONSYM_PLUS, 1.5)]
LAMBDA_STACK = [1e-300, 0.05, 0.5, 0.51, 1.0, 2.5, 7.3]


class TestStackedSequences:
    LAMS = np.array(LAMBDA_SWEEP + (0.51, 0.9411396126919265, 20.0, 1e6))

    def test_jacobi_stack_rows_are_the_tables_of_each_pair(self):
        for alf, bet in ((self.LAMS - 0.5, self.LAMS - 1.5), (self.LAMS - 1.5, self.LAMS - 0.5)):
            stack = jacobi_sequence(alf, bet, 200)
            assert stack.omegas.shape == (self.LAMS.size, 200)
            for c, pair in enumerate(zip(alf.tolist(), bet.tolist())):
                own = jacobi_sequence(*pair, 200)
                assert np.array_equal(stack.alphas[c], own.alphas)
                assert np.array_equal(stack.omegas[c], own.omegas)

    def test_jacobi_omega1_rounds_as_float_arithmetic(self):
        # nonsym-minus at this lambda: omega_1 of a table and of a stack of
        # one round as the scalar product of ratios
        lam = 0.9411396126919265
        alf, bet = lam - 1.5, lam - 0.5
        s = alf + bet
        expected = 4.0 * ((alf + 1.0) / (s + 2.0)) * ((bet + 1.0) / (s + 2.0)) / (s + 3.0)
        assert jacobi_sequence(alf, bet, 3).omegas[1] == expected
        assert jacobi_sequence(np.array([alf]), np.array([bet]), 3).omegas[0, 1] == expected


class TestIdentitiesOfLambdaAlone:
    """The bounds the identities of lambda alone keep at each lambda of a
    mixed set, tiny and non-integer lambdas among them."""

    ZS = [0.1, 0.05, 0.1j, complex(-0.05, 0.05)]

    @pytest.mark.parametrize("lam", SYM1_STACK)
    def test_gegenbauer_gfs(self, lam):
        assert gegenbauer_gf_check(lam, [0.25, 0.1, 0.1j, complex(-0.1, 0.1)],
                                   [-1.0, -0.5, 0.0, 0.5, 1.0]).max() <= 1e-10
        xs = np.linspace(*support_interval(Family.SYM1, lam), 5)
        assert tilde_gegenbauer_identity(lam, self.ZS, xs).max() <= 1e-10

    @pytest.mark.parametrize("lam", SYM2_STACK)
    def test_shifted_parameter_gf(self, lam):
        xs = np.linspace(*support_interval(Family.SYM2, lam), 5)
        assert family2_identity(lam, self.ZS, xs).max() <= 1e-10

    @pytest.mark.parametrize("lam", [lam for _, lam in NONSYM_STACK] + [0.75])
    def test_jacobi_2f1_and_its_collapse(self, lam):
        ts, ys = [-0.15, -0.1, 0.1, 0.15], [-0.4, 0.0, 0.4, 0.8]
        assert jacobi_2f1_gf_check(lam, ts, ys).max() <= 1e-10
        assert two_f_one_collapse_check(lam, ts, ys).max() <= 1e-10

    @pytest.mark.parametrize("lam", LAMBDA_STACK)
    def test_pochhammer_ratio_and_binomial(self, lam):
        assert pochhammer_ratio_check(lam, np.arange(21)).max() <= 1e-12
        assert one_f_zero_reduction(lam, [-0.5, -0.25, 0.0, 0.25, 0.5]).max() <= 1e-11


class TestStackedIdentities:
    """Every row of a mixed stack equals its own stack-of-one call."""

    def test_beta_law_table(self):
        configs = ([(Family.SYM1, lam, None, None) for lam in SYM1_STACK]
                   + [(Family.SYM2, lam, None, None) for lam in SYM2_STACK]
                   + [(family, lam, None, None) for family, lam in NONSYM_STACK])
        cfs = [get_closed_form(*config) for config in configs]
        seqs = [get_sequence(*config) for config in configs]
        stacked = beta_law_table_check(genfun.stack_closed_forms(cfs),
                                       JacobiSzegoSequence.stack(seqs))
        assert stacked.shape == (15, 2 * SERIES_CAP - 1)
        assert_rows_are_single_calls(
            stacked, [beta_law_table_check(cf, seq) for cf, seq in zip(cfs, seqs)])
        assert stacked.max() <= 1e-12

    def test_psi_prefactor_form(self):
        # psi_analytic over the non-symmetric stack, one x row per
        # configuration, against the rational-prefactor display
        configs = [(family, lam, None, None) for family, lam in NONSYM_STACK]
        cfs = [get_closed_form(*config) for config in configs]
        rows = [np.linspace(*support_interval(*config), 5) for config in configs]
        zs = [-0.05, 0.05, 0.1]
        stacked = psi_analytic(genfun.stack_closed_forms(cfs), zs, rows)
        assert stacked.shape == (5, 3, 5)
        assert_rows_are_single_calls(
            stacked, [psi_analytic(cf, zs, x) for cf, x in zip(cfs, rows)])
        for (family, lam), psi, xs in zip(NONSYM_STACK, stacked, rows):
            sgn = 1.0 if family is Family.NONSYM_PLUS else -1.0
            display = np.array([[nonsym_prefactor_psi(sgn, lam, z, x) for x in xs] for z in zs])
            assert np.max(np.abs(psi - display) / np.maximum(1.0, np.abs(psi))) <= 1e-12
