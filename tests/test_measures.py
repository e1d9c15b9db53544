"""Tests for the measure catalog: supports, coefficient tables, Gauss rules,
and the Beta density oracle of tests/reference.py with its normalization."""
import itertools
import math
import warnings
from functools import lru_cache

import mpmath
import numpy as np
import pytest
import scipy.linalg

from conftest import LAMBDA_SWEEP, SWEEP_CONFIGS, get_sequence
from opgf import (
    Family,
    JacobiSzegoSequence,
    NumericalBreakdownError,
    ParameterError,
    RedirectToFreeMeixner,
    closed_form,
    eval_monic,
    family_sequence,
    gauss_quadrature,
)
from opgf import measures
from opgf.families import support_interval
from opgf.measures import DENSE_EIGH_MAX_ORDER, NEWTON_RULE_MIN_ORDER
from reference import (
    adaptive_integral,
    beta_law,
    csv_rows,
    density,
    free_meixner_atoms,
    free_meixner_moments,
    gauss_rule,
    moment,
    newton_gauss_rule,
    norm_squared,
)


def beta_symmetric_mass(scale, expo):
    """Closed form of integral over [-scale, scale] of (1 - x^2/scale^2)^expo."""
    return scale * math.sqrt(math.pi) * math.exp(
        math.lgamma(expo + 1.0) - math.lgamma(expo + 1.5)
    )


def beta_jacobi_mass(lam):
    """Closed form of the unnormalized non-symmetric density's mass."""
    root = math.sqrt(2.0 * lam - 1.0)
    return (2.0 * lam / root) * 2.0 ** (2.0 * lam - 1.0) * math.exp(
        math.lgamma(lam + 0.5) + math.lgamma(lam - 0.5) - math.lgamma(2.0 * lam)
    )


def mpmath_edge_integral(p, q):
    """Integral over (-1, 1) of (1 - y)^p (1 + y)^q dy by tanh-sinh quadrature.

    Each half is mapped by 1 -+ y = u^(1/(e+1)), which absorbs the endpoint
    factor, so exponents near -1 leave a smooth integrand."""
    def half(e, other):
        return mpmath.quad(lambda u: (2 - u ** (1 / (e + 1))) ** other, [0, 1]) / (e + 1)
    return half(q, p) + half(p, q)


def mpmath_mass(family, lam):
    """Unnormalized mass of a density family at 40 digits, from the family
    definitions alone: (1 - x^2/s^2)^e on (-s, s) for the symmetric ones, the
    shifted Jacobi weight (1 - y)^(lam-1/2) (1 + y)^(lam-3/2) in
    y = (x sqrt(2 lam - 1) - 1) / (2 lam) for the non-symmetric ones."""
    with mpmath.workdps(40):
        lam = mpmath.mpf(lam)
        if family is Family.SYM1:
            mass = mpmath.sqrt(2 * (1 + lam)) * mpmath_edge_integral(lam - 0.5, lam - 0.5)
        elif family is Family.SYM2:
            mass = mpmath.sqrt(2 * lam) * mpmath_edge_integral(lam - 1.5, lam - 1.5)
        else:
            mass = 2 * lam / mpmath.sqrt(2 * lam - 1) * mpmath_edge_integral(
                lam - 0.5, lam - 1.5)
        return float(mass)


DENSITY_REFEREE_CASES = [
    (family, lam)
    for lam in (0.05, 0.5, 0.51, 2.5, 15.0, 20.0, 40.0)
    for family in (Family.SYM1, Family.SYM2, Family.NONSYM_PLUS, Family.NONSYM_MINUS)
    if family is Family.SYM1 or lam > 0.5
]


class TestBuildMeasure:
    def test_sym1_half_is_uniform(self):
        config = (Family.SYM1, 0.5, None, None)
        s = math.sqrt(3.0)
        assert support_interval(*config) == pytest.approx((-s, s))
        flat = 1.0 / (2.0 * s)
        for x in (-1.5, -0.2, 0.0, 1.0):
            assert density(config, x) == pytest.approx(flat, rel=1e-12)
        assert moment(config, 2, 16) == pytest.approx(1.0, abs=1e-12)

    def test_sym2_three_halves_is_uniform(self):
        config = (Family.SYM2, 1.5, None, None)
        s = math.sqrt(3.0)
        assert support_interval(*config) == pytest.approx((-s, s))
        for x in (-1.0, 0.3):
            assert density(config, x) == pytest.approx(1.0 / (2.0 * s), rel=1e-12)
        assert moment(config, 2, 16) == pytest.approx(1.0, abs=1e-10)

    def test_nonsym_plus_lambda2_support(self):
        # (1 - 2*lambda)/sqrt(2*lambda - 1) = -3/sqrt(3) at lambda = 2
        lo, hi = support_interval(Family.NONSYM_PLUS, 2.0)
        assert lo == pytest.approx(-3.0 / math.sqrt(3.0))
        assert hi == pytest.approx(5.0 / math.sqrt(3.0))

    @pytest.mark.parametrize("lam", LAMBDA_SWEEP)
    def test_supports_match_formulas(self, lam):
        assert support_interval(Family.SYM1, lam) == pytest.approx(
            (-math.sqrt(2.0 * (1.0 + lam)), math.sqrt(2.0 * (1.0 + lam)))
        )
        assert support_interval(Family.SYM2, lam) == pytest.approx(
            (-math.sqrt(2.0 * lam), math.sqrt(2.0 * lam)))
        root = math.sqrt(2.0 * lam - 1.0)
        lo, hi = support_interval(Family.NONSYM_PLUS, lam)
        assert (lo, hi) == pytest.approx(((1.0 - 2.0 * lam) / root, (1.0 + 2.0 * lam) / root))
        assert support_interval(Family.NONSYM_MINUS, lam) == pytest.approx((-hi, -lo))

    @pytest.mark.parametrize("lam", LAMBDA_SWEEP)
    def test_normalization_against_closed_form(self, lam):
        # Independent oracle: the Beta-function value of the unnormalized mass.
        def mass(family):
            return math.exp(beta_law(family, lam)[2])

        exact = beta_symmetric_mass(math.sqrt(2.0 * (1.0 + lam)), lam - 0.5)
        assert mass(Family.SYM1) == pytest.approx(exact, rel=1e-12)
        exact = beta_symmetric_mass(math.sqrt(2.0 * lam), lam - 1.5)
        assert mass(Family.SYM2) == pytest.approx(exact, rel=1e-12)
        for family in (Family.NONSYM_PLUS, Family.NONSYM_MINUS):
            assert mass(family) == pytest.approx(beta_jacobi_mass(lam), rel=1e-12)

    @pytest.mark.parametrize("family, lam", DENSITY_REFEREE_CASES)
    def test_normalization_against_mpmath(self, family, lam):
        mass = math.exp(beta_law(family, lam)[2])
        assert mass == pytest.approx(mpmath_mass(family, lam), rel=1e-12)

    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_unit_mass_mean_variance(self, config):
        if config[0] is not Family.FREE_MEIXNER:
            assert adaptive_integral(config, lambda x: 1.0) == pytest.approx(1.0, abs=1e-10)
        assert moment(config, 0, 16) == pytest.approx(1.0, abs=1e-13)
        assert moment(config, 1, 16) == pytest.approx(0.0, abs=1e-12)
        assert moment(config, 2, 16) == pytest.approx(1.0, abs=1e-10)

    def test_lambda_range_errors(self):
        with pytest.raises(ParameterError, match="lambda"):
            family_sequence(Family.SYM1, -1.0, size=24)
        with pytest.raises(ParameterError, match="1/2"):
            family_sequence(Family.SYM2, 0.4, size=24)
        with pytest.raises(ParameterError, match="1/2"):
            family_sequence(Family.NONSYM_PLUS, 0.3, size=24)
        with pytest.raises(ParameterError, match="b >= -1"):
            family_sequence(Family.FREE_MEIXNER, a=0.0, b=-1.5, size=24)

    @pytest.mark.parametrize("family", [Family.SYM1, Family.SYM2, Family.NONSYM_PLUS])
    def test_lambda_one_redirects(self, family):
        with pytest.raises(RedirectToFreeMeixner, match="free-meixner"):
            family_sequence(family, 1.0, size=24)

    def test_free_meixner_flags(self):
        # free Meixner has no density, and a Gauss node leaves the band only
        # at an atom, a real zero of 1 + a x + b x^2: of the sweep's pairs,
        # only (-1, -0.5) has such zeros, and its rule puts a node at one
        for a, b in ((0.0, 0.0), (0.5, 0.25), (-1.0, -0.5)):
            config = (Family.FREE_MEIXNER, None, a, b)
            lo, hi = support_interval(*config)
            nodes = gauss_rule(config, 24).nodes
            outside = nodes[(nodes < lo) | (nodes > hi)]
            real_zeros = a != 0.0 if b == 0.0 else a * a - 4.0 * b >= 0.0
            assert outside.size == (1 if real_zeros else 0)
            assert np.abs(b * outside**2 + a * outside + 1.0).max(initial=0.0) < 1e-10
        with pytest.raises(ParameterError):
            density((Family.FREE_MEIXNER, None, 0.0, 0.0), 0.0)


class TestRecurrenceOf:
    def test_sym1_lambda2_omega2(self):
        assert get_sequence(Family.SYM1, 2.0, None, None).omegas[2] == pytest.approx(1.25)

    def test_sym2_lambda2_omega2(self):
        assert get_sequence(Family.SYM2, 2.0, None, None).omegas[2] == pytest.approx(1.0)

    def test_free_meixner_tail(self):
        seq = get_sequence(Family.FREE_MEIXNER, None, 0.3, 0.2)
        assert seq.alphas[3] == pytest.approx(0.3)
        assert seq.omegas[3] == pytest.approx(1.2)

    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_standardized(self, config):
        seq = get_sequence(*config)
        assert seq.alphas[0] == 0.0
        assert seq.omegas[0] == 1.0
        assert seq.omegas[1] == 1.0

    def test_nonsym_alpha1_formula(self):
        seq = get_sequence(Family.NONSYM_PLUS, 2.0, None, None)
        assert seq.alphas[1] == pytest.approx(2.0 / math.sqrt(27.0), rel=1e-14)
        minus = get_sequence(Family.NONSYM_MINUS, 2.0, None, None)
        for n in range(8):
            assert minus.alphas[n] == pytest.approx(-seq.alphas[n], abs=0)
            assert minus.omegas[n] == seq.omegas[n]

    @pytest.mark.parametrize("family", [Family.NONSYM_PLUS, Family.NONSYM_MINUS])
    @pytest.mark.parametrize("lam", [1e4, 1e8, 1e12])
    def test_nonsym_alpha1_at_large_lambda_is_the_closed_forms(self, family, lam):
        # the bracket n (n + 2 lambda - 1) / ((n + lambda - 1)(n + lambda))
        # has no cancellation, where 1 - lambda (lambda - 1) / (...) had
        alpha1 = family_sequence(family, lam, size=3).alphas[1]
        expected = closed_form(family, lam).alpha1
        assert abs(alpha1 - expected) <= 2 * np.spacing(abs(expected))

    @staticmethod
    def assert_closed_form_reads_the_table(config):
        cf, seq = closed_form(*config), family_sequence(*config, size=3)
        assert (cf.alpha1, cf.omega2) == (seq.alphas[1], seq.omegas[2]), config
        assert type(cf.alpha1) is float and type(cf.omega2) is float
        assert math.isfinite(cf.alpha1) and math.isfinite(cf.omega2), config

    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_closed_form_reads_the_tables_alpha1_and_omega2(self, config):
        # one formula for both, so they agree bit for bit
        self.assert_closed_form_reads_the_table(config)

    @pytest.mark.parametrize("family", [Family.SYM1, Family.SYM2, Family.NONSYM_PLUS,
                                        Family.NONSYM_MINUS])
    def test_closed_form_reads_the_tables_entries_up_to_1e307(self, family):
        # lambda = 1e-300 (sym1) or 10 up to 1e307, where (1 + lambda) n (n +
        # 2 lambda - 1) and lambda^3 overflowed
        for k in range(-300 if family is Family.SYM1 else 1, 308):
            if k:
                self.assert_closed_form_reads_the_table((family, float(f"1e{k}"), None, None))


class TestGaussQuadrature:
    def test_order_one_single_node_at_mean(self):
        for config in SWEEP_CONFIGS[:6]:
            rule = gauss_rule(config, 1)
            assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
            assert rule.weights[0] == pytest.approx(1.0)

    def test_uniform_order_two(self):
        rule = gauss_rule((Family.SYM1, 0.5, None, None), 2)
        assert rule.nodes == pytest.approx([-1.0, 1.0])
        assert rule.weights == pytest.approx([0.5, 0.5])

    def test_nonsym_order12_unit_variance(self):
        rule = gauss_rule((Family.NONSYM_PLUS, 2.0, None, None), 12)
        assert float(rule.weights @ rule.nodes**2) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_weights_positive_sum_one(self, config):
        rule = gauss_rule(config, 24)
        assert np.all(rule.weights > 0.0)
        assert float(rule.weights.sum()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("config", SWEEP_CONFIGS[:10])
    def test_exactness_against_adaptive_integration(self, config):
        rule = gauss_rule(config, 8)
        for k in range(7):
            adaptive = adaptive_integral(config, lambda x: x**k)
            discrete = float(rule.weights @ rule.nodes**k)
            assert discrete == pytest.approx(adaptive, rel=1e-10, abs=1e-12)

    def test_nodes_inside_support(self):
        for config in SWEEP_CONFIGS:
            family, _, a, b = config
            rule = gauss_rule(config, 24)
            lo, hi = support_interval(*config)
            pad = 1e-9 * (hi - lo)
            outside = rule.nodes[(rule.nodes < lo - pad) | (rule.nodes > hi + pad)]
            if family is Family.FREE_MEIXNER and (
                    a != 0.0 if b == 0.0 else a * a - 4.0 * b >= 0.0):
                # Nodes may escape the a.c. band only at atoms, which sit at
                # the real zeros of b x^2 + a x + 1.
                for x in outside:
                    assert abs(b * x * x + a * x + 1.0) < 1e-10
            else:
                assert outside.size == 0

    def test_finite_support_breakdown(self):
        two_atoms = family_sequence(Family.FREE_MEIXNER, a=0.0, b=-1.0, size=3)
        assert gauss_quadrature(two_atoms, 2).nodes == pytest.approx([-1.0, 1.0])
        with pytest.raises(NumericalBreakdownError) as excinfo:
            gauss_quadrature(two_atoms, 3)
        assert excinfo.value.index == 2

    def test_order_validation(self):
        seq = family_sequence(Family.SYM1, 2.0, size=24)
        for order in (0, -3):
            with pytest.raises(ParameterError, match=f"^order must be >= 1, got {order}$"):
                gauss_quadrature(seq, order)
        # past the table on either solver: no numpy error, no short rule
        for order in (25, DENSE_EIGH_MAX_ORDER, DENSE_EIGH_MAX_ORDER + 10):
            with pytest.raises(ParameterError, match=f"^order {order} exceeds the 24 "
                               "coefficients of the table$"):
                gauss_quadrature(seq, order)

    @pytest.mark.parametrize("family, last", [
        (Family.SYM1, 307), (Family.SYM2, 307),
        (Family.NONSYM_PLUS, 307), (Family.NONSYM_MINUS, 307),
    ])
    def test_rule_at_huge_lambda_is_the_gauss_hermite_limit(self, family, last):
        # at lambda = 1e1 .. 1e308 the order-24 rule exists exactly while the
        # table is finite, up to 1e<last> (n + 2 lambda overflows at 1e308),
        # and from 1e18 on it is the lambda -> infinity limit, the standard
        # normal's Gauss-Hermite rule
        x, w = np.polynomial.hermite.hermgauss(24)
        nodes, weights = math.sqrt(2.0) * x, w / math.sqrt(math.pi)
        exported = []
        for k in range(1, 309):
            try:
                rule = gauss_quadrature(family_sequence(family, float(f"1e{k}"), size=24), 24)
            except NumericalBreakdownError:
                continue
            exported.append(k)
            if k >= 18:
                np.testing.assert_allclose(rule.nodes, nodes, rtol=0, atol=1e-13)
                np.testing.assert_allclose(rule.weights, weights, rtol=0, atol=1e-13)
        assert exported == list(range(1, last + 1))

    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_both_solvers_match_scipy_tridiagonal(self, config):
        # numpy's dense eigh below the constant, scipy's tridiagonal solver
        # above it and, for a symmetric table above it, the half-size matrix
        # give one rule; the tolerance, relative to the largest entry as well,
        # leaves room for another LAPACK build
        family, lam, a, b = config
        top = 2 * DENSE_EIGH_MAX_ORDER
        seq = family_sequence(family, lam, a, b, size=top)
        for order in range(1, top + 1):
            rule = gauss_quadrature(seq, order)
            nodes, vecs = scipy.linalg.eigh_tridiagonal(
                seq.alphas[:order], np.sqrt(seq.omegas[1:order]))
            np.testing.assert_allclose(rule.nodes, nodes, rtol=1e-13,
                                       atol=1e-13 * np.abs(nodes).max())
            np.testing.assert_allclose(rule.weights, vecs[0] ** 2, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("order", [DENSE_EIGH_MAX_ORDER, DENSE_EIGH_MAX_ORDER + 1])
    @pytest.mark.parametrize("alphas, omegas, name, index", [
        ([0.0, np.nan, 0.0], [1.0, 1.0, np.nan], "alpha_1 = nan", 1),
        ([0.0, 0.0, 0.0], [1.0, 1.0, np.inf], "omega_2 = inf", 2),
        ([0.0, -np.inf, 0.0], [1.0, np.nan, -1.0], "alpha_1 = -inf", 1),
    ])
    def test_non_finite_coefficient_is_named_by_both_solvers(self, order, alphas, omegas,
                                                             name, index):
        pad = order - len(alphas)
        seq = JacobiSzegoSequence(alphas + [0.0] * pad, omegas + [1.0] * pad)
        with pytest.raises(NumericalBreakdownError, match=f"^{name} is not finite: no "
                           f"Gauss rule of order {order}$") as excinfo:
            gauss_quadrature(seq, order)
        assert excinfo.value.index == index

    def test_non_finite_coefficient_past_the_order_is_not_read(self):
        seq = JacobiSzegoSequence([0.0, 0.0, np.nan], [1.0, 1.0, np.nan])
        assert gauss_quadrature(seq, 2).nodes == pytest.approx([-1.0, 1.0])


# sym1 beside a free Meixner row past the closed form's ratio guard, whose
# own rule is the Newton rule at every order
RATIO_GUARD_STACK = ((Family.SYM1, 2.0, None, None), (Family.FREE_MEIXNER, None, 0.5, 1e300))


class TestStackedRules:
    @pytest.mark.parametrize("configs, order", [
        pytest.param(SWEEP_CONFIGS, order, id=str(order))
        for order in list(range(1, DENSE_EIGH_MAX_ORDER + 1)) + [31, 40, 60, 61, 62]
    ] + [pytest.param(RATIO_GUARD_STACK, order, id=f"past-ratio-guard-{order}")
         for order in (3, 24, 30)])
    def test_stack_rows_are_their_own_rules(self, configs, order):
        # one batched dense eigh up to DENSE_EIGH_MAX_ORDER unless a row is
        # past the ratio guard, row by row otherwise: row c of the stack is
        # bit for bit table c's own rule; above it, a non-symmetric row is
        # scipy's tridiagonal rule, bit for bit, except free Meixner at
        # a != 0, whose closed form matches the long-double reference, and the
        # symmetric rows' half-size matrices change solver past 60
        seqs = [get_sequence(*config) for config in configs]
        rules = gauss_quadrature(JacobiSzegoSequence.stack(seqs), order)
        assert rules.nodes.shape == rules.weights.shape == (len(seqs), order)
        for (family, _, a, _), seq, nodes, weights in zip(configs, seqs, rules.nodes,
                                                          rules.weights):
            own = gauss_quadrature(seq, order)
            assert np.array_equal(nodes, own.nodes)
            assert np.array_equal(weights, own.weights)
            if order <= DENSE_EIGH_MAX_ORDER or not seq.alphas[:order].any():
                continue
            if family is Family.FREE_MEIXNER:
                ref_nodes, ref_weights = newton_gauss_rule(seq, order, own.nodes)
                scale = float(np.abs(ref_nodes).max())
                assert float(np.abs(own.nodes - ref_nodes).max()) <= 3e-15 * scale
                assert float(np.abs(own.weights / ref_weights - 1.0).max()) <= 1e-11
            else:
                ref_nodes, vecs = scipy.linalg.eigh_tridiagonal(
                    seq.alphas[:order], np.sqrt(seq.omegas[1:order]))
                assert np.array_equal(own.nodes, ref_nodes)
                assert np.array_equal(own.weights, vecs[0] ** 2)

    @staticmethod
    def with_entry(config, name, n, value):
        """The sweep table of config with entry n of alphas or omegas set."""
        seq = get_sequence(*config)
        tables = {"alphas": seq.alphas.copy(), "omegas": seq.omegas.copy()}
        tables[name][n] = value
        return JacobiSzegoSequence(tables["alphas"], tables["omegas"])

    @pytest.mark.parametrize("order", [24, 40])
    def test_stack_raises_the_first_bad_rows_error(self, order):
        # the third row's non-finite omega_7 is named as its own call names
        # it, though the fifth row has a worse entry; a bad row before it
        # raises its own error instead, whatever its kind
        configs = SWEEP_CONFIGS[:5]
        third = self.with_entry(configs[2], "omegas", 7, np.nan)
        fifth = self.with_entry(configs[4], "alphas", 1, np.inf)
        with pytest.raises(NumericalBreakdownError) as own:
            gauss_quadrature(third, order)
        assert str(own.value) == f"omega_7 = nan is not finite: no Gauss rule of order {order}"
        seqs = [get_sequence(*c) for c in configs]
        stack = JacobiSzegoSequence.stack(seqs[:2] + [third, seqs[3], fifth])
        with pytest.raises(NumericalBreakdownError) as stacked:
            gauss_quadrature(stack, order)
        assert str(stacked.value) == str(own.value) and stacked.value.index == 7
        second = self.with_entry(configs[1], "omegas", 9, -1.0)
        stack = JacobiSzegoSequence.stack([seqs[0], second, third, seqs[3], fifth])
        with pytest.raises(NumericalBreakdownError, match=f"^omega_9 <= 0: the measure has "
                           f"fewer than {order} support points$") as stacked:
            gauss_quadrature(stack, order)
        assert stacked.value.index == 9

    def test_support_points_of_a_stack_are_the_most_of_any_row(self):
        two_atoms = family_sequence(Family.FREE_MEIXNER, a=0.0, b=-1.0, size=30)
        full = family_sequence(Family.SYM1, 2.0, size=30)
        assert measures._support_points(two_atoms) == 2
        assert measures._support_points(JacobiSzegoSequence.stack([two_atoms] * 3)) == 2
        assert measures._support_points(JacobiSzegoSequence.stack([two_atoms, full])) == 30


SYMMETRIC_CONFIGS = (
    (Family.SYM1, 2.0, None, None),
    (Family.SYM2, 0.75, None, None),
    (Family.FREE_MEIXNER, None, 0.0, 0.5),
    (Family.FREE_MEIXNER, None, -0.0, 0.0),
)
SYMMETRIC_ORDERS = list(range(DENSE_EIGH_MAX_ORDER + 1, 65)) + [101, 999, 1000]
# the first order whose half-size matrix has NEWTON_RULE_MIN_ORDER rows
SYMMETRIC_NEWTON_MIN_ORDER = 2 * NEWTON_RULE_MIN_ORDER - 1
SYMMETRIC_NEWTON_ORDERS = [SYMMETRIC_NEWTON_MIN_ORDER, 698, 999, 1000]


@lru_cache(maxsize=None)
def symmetric_reference(config, order):
    """newton_gauss_rule from the nodes >= 0 of a symmetric table's rule: the
    rule is exactly antisymmetric, so this half is all of it."""
    seq = family_sequence(*config, size=order + 1)
    return newton_gauss_rule(seq, order, gauss_quadrature(seq, order).nodes[order // 2:])


def assert_no_worse(nodes, weights, rival_nodes, rival_weights, reference):
    """Nodes no worse than the rival's against the long-double reference, or
    within one ulp of max|x|; weights of at least 1e-7 no worse, or within
    1.5e-11 relative."""
    ref_nodes, ref_weights = reference
    scale = float(np.abs(ref_nodes).max())
    assert float(np.abs(nodes - ref_nodes).max()) <= max(
        float(np.abs(rival_nodes - ref_nodes).max()), float(np.spacing(scale)))
    big = ref_weights >= 1e-7

    def error(w):
        return float(np.abs(w[big] / ref_weights[big] - 1.0).max())

    assert error(weights) <= max(error(rival_weights), 1.5e-11)


class TestSymmetricRules:
    """Above DENSE_EIGH_MAX_ORDER a table with every alpha_n = 0 takes its
    rule from the half-size matrix B B^T: from its eigenvectors, and from its
    eigenvalues and the Newton rule once it has NEWTON_RULE_MIN_ORDER rows."""

    @pytest.mark.parametrize("order", SYMMETRIC_ORDERS)
    @pytest.mark.parametrize("config", SYMMETRIC_CONFIGS)
    def test_rule_is_antisymmetric_and_increasing(self, config, order):
        rule = gauss_quadrature(family_sequence(*config, size=order), order)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])
        assert (np.diff(rule.nodes) > 0.0).all()
        # an odd order has the node 0.0, never -0.0, and no CSV row reads -0
        assert np.signbit(rule.nodes).sum() == order // 2
        assert (rule.nodes == 0.0).sum() == order % 2
        rows = rule.csv_text("symmetric").splitlines()[2:]
        assert not [row for row in rows if row.startswith("-0,")]

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
                        reason="np.longdouble is a plain double here")
    @pytest.mark.parametrize("order", SYMMETRIC_ORDERS)
    @pytest.mark.parametrize("config", SYMMETRIC_CONFIGS)
    def test_rule_matches_extended_precision(self, config, order):
        # nodes taken as sqrt(theta), theta an eigenvalue of B B^T, err by up
        # to 2e-14 of max|x| at orders 999 and 1000 and fail the node bound:
        # the eigenvector route takes ||B^T u||, the Newton rule a Newton step
        rule = gauss_quadrature(family_sequence(*config, size=order), order)
        nodes, weights = symmetric_reference(config, order)
        half = slice(order // 2, None)
        scale = float(np.abs(nodes).max())
        assert float(np.abs(rule.nodes[half] - nodes).max()) <= 3e-15 * scale
        assert float(np.abs(rule.weights[half] / weights - 1.0).max()) <= 1e-10

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
                        reason="np.longdouble is a plain double here")
    @pytest.mark.parametrize("order", SYMMETRIC_NEWTON_ORDERS)
    @pytest.mark.parametrize("config", SYMMETRIC_CONFIGS + ((Family.SYM2, 0.51, None, None),
                                                            (Family.SYM1, 1e4, None, None)))
    def test_newton_rule_is_no_worse_than_the_half_size_route(self, config, order):
        # the Newton rule passes its moment check and meets the criterion of
        # TestNewtonRules against _half_size_rule, and it is the rule of every
        # table but free Meixner's, which has its rule in closed form
        # (TestConstantTailRules); sym2 at lambda = 0.51 reads 1.3e-11 for
        # the weights at order 999, against 7.3e-12 for the half-size route,
        # and 6.1e-12 at order 698, against 2.8e-11
        seq = family_sequence(*config, size=order)
        rule = gauss_quadrature(seq, order)
        newton = measures._newton_rule(seq.alphas, seq.omegas)
        assert newton is not None
        if not measures._closed_form_table(seq.alphas, seq.omegas):
            assert np.array_equal(rule.nodes, newton[0])
            assert np.array_equal(rule.weights, newton[1])
        nodes, weights = measures._half_size_rule(seq.omegas)
        half = slice(order // 2, None)
        assert_no_worse(newton[0][half], newton[1][half], nodes[half], weights[half],
                        symmetric_reference(config, order))

    def test_route_changes_at_the_threshold(self):
        # two orders below it (a half-size matrix of NEWTON_RULE_MIN_ORDER - 1
        # rows) the rule is _half_size_rule's bit for bit, and at it the
        # Newton rule's
        order = SYMMETRIC_NEWTON_MIN_ORDER
        seq = family_sequence(Family.SYM1, 2.0, size=order)
        for below_order in (order - 2, order - 1):
            below = gauss_quadrature(seq, below_order)
            nodes, weights = measures._half_size_rule(seq.omegas[:below_order])
            assert np.array_equal(below.nodes, nodes) and np.array_equal(below.weights, weights)
        at = gauss_quadrature(seq, order)
        nodes, weights = measures._newton_rule(seq.alphas, seq.omegas)
        assert np.array_equal(at.nodes, nodes) and np.array_equal(at.weights, weights)
        assert not np.array_equal(at.weights, measures._half_size_rule(seq.omegas)[1])

    def test_table_with_atoms_falls_back_to_the_half_size_route(self):
        # free Meixner's table at a = 0, b = -0.9, which has atoms at
        # +-1/sqrt(0.9) outside its band, with omega_2 = 0.2 for 0.1, so that
        # it has no closed form and keeps two nodes outside the band: the
        # Newton rule fails its moment check from a half-size matrix of
        # NEWTON_RULE_MIN_ORDER rows on, and the rule is _half_size_rule's,
        # bit for bit
        seq = family_sequence(Family.FREE_MEIXNER, a=0.0, b=-0.9, size=1000)
        omegas = seq.omegas.copy()
        omegas[2] = 0.2
        seq = JacobiSzegoSequence(seq.alphas, omegas)
        assert len(free_meixner_atoms(0.0, -0.9)) == 2
        for order in (SYMMETRIC_NEWTON_MIN_ORDER, 698, 1000):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert measures._newton_rule(seq.alphas[:order], seq.omegas[:order]) is None
                rule = gauss_quadrature(seq, order)
            nodes, weights = measures._half_size_rule(seq.omegas[:order])
            assert np.array_equal(rule.nodes, nodes) and np.array_equal(rule.weights, weights)
            assert -rule.nodes[0] == rule.nodes[-1] > 2.0 * math.sqrt(0.1)

    @pytest.mark.parametrize("order", [40, 101])
    @pytest.mark.parametrize("b", [8e307, 1.7e308])
    def test_huge_omegas_do_not_overflow(self, b, order):
        # B B^T has the square of the table's scale, past the largest double
        # here, so it is solved scaled by a power of 4
        seq = family_sequence(Family.FREE_MEIXNER, a=0.0, b=b, size=order)
        with np.errstate(over="raise", invalid="raise"):
            rule = gauss_quadrature(seq, order)
        nodes = scipy.linalg.eigh_tridiagonal(seq.alphas, np.sqrt(seq.omegas[1:]),
                                              eigvals_only=True)
        np.testing.assert_allclose(rule.nodes, nodes, rtol=0, atol=1e-14 * np.abs(nodes).max())
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)


def edge_threshold(b, side, order):
    """The a at which a free Meixner law's extreme Gauss node of the given
    order sits on the band edge a + side 2c: L(0) = (n-1)/n on the right,
    L(pi) = -(n-1)/n on the left, with L = c (x - alpha_0) / omega_1."""
    c = math.sqrt(1.0 + b)
    return side * ((order - 1) / (order * c) - 2.0 * c)


# free Meixner (a, b) with 0, 1 and 2 atoms, a band of width 6e-5 (b = -1 +
# 1e-9), a tail 1e6 times omega_1, |a| far beyond the band and a = 0 with 0
# and 2 atoms; and (b, side) of the edge thresholds, where a is solved from b
# and the order
CONSTANT_TAIL_LAWS = [(0.5, 0.25), (0.9, 0.1), (-0.7, 0.9), (0.3, -0.5), (0.9, -0.5),
                      (-0.95, -0.85), (0.5, -1.0 + 1e-9), (0.5, 1e6), (30.0, 0.5), (-1e3, -0.5),
                      (0.0, 0.5), (0.0, -0.9), (0.0, 3.0)]
CONSTANT_TAIL_THRESHOLDS = [(-0.5, 1), (0.25, -1), (3.0, 1)]
CONSTANT_TAIL_ORDERS = [31, 32, 64, 101, 999, 1000]


def constant_tail_cases():
    for order in CONSTANT_TAIL_ORDERS:
        for a, b in CONSTANT_TAIL_LAWS:
            yield pytest.param(a, b, order, 0, id=f"{a}_{b}_{order}")
        for b, side in CONSTANT_TAIL_THRESHOLDS:
            yield pytest.param(edge_threshold(b, side, order), b, order, side,
                               id=f"threshold{side:+d}_{b}_{order}")


class TestConstantTailRules:
    """Above DENSE_EIGH_MAX_ORDER a table constant from alpha_1 and omega_2 on
    takes its rule in closed form (free Meixner at b <= 1e8 - 1)."""

    @pytest.mark.parametrize("order", [101, 1000])
    @pytest.mark.parametrize("b", [0.5, -0.9, 3.0])
    def test_rule_at_a_zero_is_exactly_antisymmetric(self, b, order):
        # at a = 0 (alpha = alpha_0) the right half is mirrored, so an odd
        # order's middle node is 0.0 and no other node is 0
        rule = gauss_quadrature(family_sequence(Family.FREE_MEIXNER, a=0.0, b=b, size=order),
                                order)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])
        assert (rule.nodes == 0.0).sum() == order % 2
        assert np.signbit(rule.nodes).sum() == order // 2

    @pytest.mark.parametrize("a, b, order, edge", constant_tail_cases())
    def test_rule_matches_extended_precision(self, a, b, order, edge):
        seq = family_sequence(Family.FREE_MEIXNER, a=a, b=b, size=order + 1)
        assert measures._closed_form_table(seq.alphas[:order], seq.omegas[:order])
        rule = gauss_quadrature(seq, order)
        assert rule.nodes.shape == (order,) and (np.diff(rule.nodes) > 0.0).all()
        lo, hi = support_interval(Family.FREE_MEIXNER, None, a, b)
        if edge:
            # at the threshold the extreme node is the band edge itself
            extreme = rule.nodes[-1] if edge > 0 else rule.nodes[0]
            assert extreme == pytest.approx(hi if edge > 0 else lo, rel=1e-14, abs=1e-14)
        else:
            # a node leaves the band only at an atom
            outside = rule.nodes[(rule.nodes < lo) | (rule.nodes > hi)]
            assert outside.size == len(free_meixner_atoms(a, b))
        nodes, weights = newton_gauss_rule(seq, order, rule.nodes)
        scale = float(np.abs(nodes).max())
        assert float(np.abs(rule.nodes - nodes).max()) <= 3e-15 * scale
        # b = -1 + 1e-9: long double resolves the 6e-5 wide band's edge nodes
        # to about 1e-15 of their spacing, and their weights to about 1e-11
        tol = 1e-11 if max(abs(a), abs(b)) <= 1.0 and b > -0.99 else 1e-10
        assert float(np.abs(rule.weights / weights - 1.0).max()) <= tol

    @pytest.mark.parametrize("order", [31, 48, 64, 101, 400, 1000])
    @pytest.mark.parametrize("a, b", CONSTANT_TAIL_LAWS[:6])
    def test_moments_are_the_free_meixner_laws(self, a, b, order):
        # the first 48 moments against the law's density and atoms, to 1e-13
        # of the absolute moment (the odd ones may vanish)
        rule = gauss_quadrature(family_sequence(Family.FREE_MEIXNER, a=a, b=b, size=order),
                                order)
        raw, absolute = free_meixner_moments(a, b, 48)
        ours = (rule.nodes[None, :] ** np.arange(48)[:, None]) @ rule.weights
        assert (np.abs(ours - raw) <= 1e-13 * absolute).all()

    @pytest.mark.parametrize("b", [1e8 - 1.0, 1e300, 1.7e308])
    def test_tail_beyond_the_ratio_keeps_the_tridiagonal_solver(self, b):
        # omega_2 > CLOSED_FORM_MAX_OMEGA_RATIO omega_1 skips the closed form,
        # and 1e8 - 1 is the largest b below it.  Past it the Newton rule is
        # tried, and eigh_tridiagonal is kept, bit for bit, where that rule
        # fails its moment check: at b = 1.7e308, where x^2 overflows
        seq = family_sequence(Family.FREE_MEIXNER, a=0.5, b=b, size=64)
        rule = gauss_quadrature(seq, 64)
        assert measures._closed_form_table(seq.alphas, seq.omegas) is (b < 1e8)
        kept = b > 1e300
        assert (measures._newton_rule(seq.alphas, seq.omegas) is None) is kept
        nodes, vecs = scipy.linalg.eigh_tridiagonal(seq.alphas, np.sqrt(seq.omegas[1:]))
        assert np.array_equal(rule.nodes, nodes) is kept
        assert np.array_equal(rule.weights, vecs[0] ** 2) is kept

    @pytest.mark.parametrize("b", [0.0, 0.25, -0.5])
    @pytest.mark.parametrize("a", [1e4, 1e5, 1e8, 1e20, 1e100, 1e150])
    def test_far_atom_skips_the_closed_form(self, a, b):
        # |alpha_1 - alpha_0| / sqrt(omega_2) above CLOSED_FORM_MAX_SHIFT,
        # where the closed form's node of the atom near alpha_0 = 0 would
        # cancel: every rule has the law's mass, mean 0 and variance 1
        for sign, order in itertools.product((1.0, -1.0), (31, 40, 1000)):
            seq = family_sequence(Family.FREE_MEIXNER, a=sign * a, b=b, size=order)
            assert not measures._closed_form_table(seq.alphas, seq.omegas)
            rule = gauss_quadrature(seq, order)
            moments = np.vander(rule.nodes, 3, increasing=True).T @ rule.weights
            np.testing.assert_allclose(moments, [1.0, 0.0, 1.0], rtol=0, atol=1e-13)

    def test_farthest_atom_export_keeps_its_mean(self):
        # at a = 1e300 the band's nodes carry weights below the smallest
        # double, and the atom takes the whole mass at the mean 0
        seq = family_sequence(Family.FREE_MEIXNER, a=1e300, b=0.0, size=40)
        rule = gauss_quadrature(seq, 40)
        assert (rule.nodes[0], rule.weights[0]) == (0.0, 1.0)
        assert (rule.weights[1:] == 0.0).all()

    def test_csv_rows_match_the_per_row_format(self):
        # one % operation over the rows gives the per-row f-string's bytes on
        # the node 0.0, negative nodes and exponent-form values
        for config, order in [((Family.FREE_MEIXNER, None, 0.5, 1e300), 24),
                              ((Family.NONSYM_PLUS, 1e100, None, None), 24),
                              ((Family.SYM1, 2.0, None, None), 31),
                              ((Family.FREE_MEIXNER, None, 0.5, 0.25), 1000)]:
            rule = gauss_rule(config, order)
            header, columns, rows = rule.csv_text("h").split("\n", 2)
            assert (header, columns) == ("# h", "node,weight")
            assert rows == csv_rows(rule)


NEWTON_LAMBDAS = [0.51, 0.55, 0.75, 1.5, 3.0, 6.0, 20.0, 100.0, 1e4]
NEWTON_ORDERS = [NEWTON_RULE_MIN_ORDER, 401, 641, 999, 1000]


def tridiagonal_rule(seq, order):
    """eigh_tridiagonal's rule of the first `order` coefficients of seq."""
    nodes, vecs = scipy.linalg.eigh_tridiagonal(seq.alphas[:order],
                                                np.sqrt(seq.omegas[1:order]))
    return nodes, vecs[0] ** 2


class TestNewtonRules:
    """From NEWTON_RULE_MIN_ORDER on, a table with some alpha != 0 and no
    closed form takes its nodes from eigvalsh_tridiagonal and one Newton
    step, and its weights from corrected Christoffel sums, unless that rule
    fails its moment check; so does a table of its own past the closed
    form's ratio guard, at every order from 3."""

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
                        reason="np.longdouble is a plain double here")
    @pytest.mark.parametrize("order", NEWTON_ORDERS)
    @pytest.mark.parametrize("lam", NEWTON_LAMBDAS)
    def test_rule_matches_extended_precision_no_worse_than_lapack(self, lam, order):
        # nonsym-minus's table is nonsym-plus's with every alpha negated, so
        # one reference serves both, reflected.  Nodes are no worse than
        # eigh_tridiagonal's, or within one ulp of max|x|; weights of at least
        # 1e-7 no worse, or within 1.5e-11 relative: the forward recurrence's
        # rounding near the endpoint of exponent lambda - 3/2 bounds them at
        # 1.3e-11 at lambda = 0.51, order 999, where eigh_tridiagonal reads
        # 5.1e-12 on nonsym-minus and 1.7e-11 on nonsym-plus
        plus = family_sequence(Family.NONSYM_PLUS, lam, size=order + 1)
        ref_nodes, ref_weights = newton_gauss_rule(plus, order, gauss_quadrature(plus, order).nodes)
        for family, reference in [
                (Family.NONSYM_PLUS, (ref_nodes, ref_weights)),
                (Family.NONSYM_MINUS, (-ref_nodes[::-1], ref_weights[::-1]))]:
            seq = family_sequence(family, lam, size=order)
            rule = gauss_quadrature(seq, order)
            assert (np.diff(rule.nodes) > 0.0).all()
            assert_no_worse(rule.nodes, rule.weights, *tridiagonal_rule(seq, order), reference)

    @pytest.mark.parametrize("family", [Family.NONSYM_PLUS, Family.NONSYM_MINUS])
    def test_route_starts_at_the_threshold(self, family):
        # one order below it the rule is eigh_tridiagonal's bit for bit, and
        # at it the Newton rule's
        seq = family_sequence(family, 1.5, size=NEWTON_RULE_MIN_ORDER)
        below = gauss_quadrature(seq, NEWTON_RULE_MIN_ORDER - 1)
        nodes, weights = tridiagonal_rule(seq, NEWTON_RULE_MIN_ORDER - 1)
        assert np.array_equal(below.nodes, nodes) and np.array_equal(below.weights, weights)
        at = gauss_quadrature(seq, NEWTON_RULE_MIN_ORDER)
        nodes, weights = measures._newton_rule(seq.alphas, seq.omegas)
        assert np.array_equal(at.nodes, nodes) and np.array_equal(at.weights, weights)
        assert not np.array_equal(at.weights, tridiagonal_rule(seq, NEWTON_RULE_MIN_ORDER)[1])

    @pytest.mark.parametrize("a, b", [(0.9, -0.5), (1e5, 1e9), (30.0, 0.5)])
    def test_tables_with_atoms_fail_the_moment_check(self, a, b):
        # the forward recurrence cannot give an atom's weight; (1e5, 1e9) is
        # past the closed form's ratio guard, so its export falls back to
        # eigh_tridiagonal, bit for bit
        seq = family_sequence(Family.FREE_MEIXNER, a=a, b=b, size=400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert measures._newton_rule(seq.alphas, seq.omegas) is None
            rule = gauss_quadrature(seq, 400)
        if not measures._closed_form_table(seq.alphas, seq.omegas):
            nodes, weights = tridiagonal_rule(seq, 400)
            assert np.array_equal(rule.nodes, nodes) and np.array_equal(rule.weights, weights)

    @pytest.mark.parametrize("order", [NEWTON_RULE_MIN_ORDER, 349])
    def test_table_with_atoms_falls_back_to_the_tridiagonal_rule(self, order):
        # free Meixner's table at a = 0.9, b = -0.5, which has an atom left of
        # its band, with omega_2 = 0.6 for 0.5, so that it has no closed form
        # and keeps a node outside the band: from NEWTON_RULE_MIN_ORDER on the
        # Newton rule fails its moment check, and the rule is
        # eigh_tridiagonal's, bit for bit
        seq = family_sequence(Family.FREE_MEIXNER, a=0.9, b=-0.5, size=order)
        omegas = seq.omegas.copy()
        omegas[2] = 0.6
        seq = JacobiSzegoSequence(seq.alphas, omegas)
        assert len(free_meixner_atoms(0.9, -0.5)) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert measures._newton_rule(seq.alphas, seq.omegas) is None
            rule = gauss_quadrature(seq, order)
        nodes, weights = tridiagonal_rule(seq, order)
        assert np.array_equal(rule.nodes, nodes) and np.array_equal(rule.weights, weights)
        assert rule.nodes[0] < 0.9 - 2.0 * math.sqrt(0.5)

    def test_overflowing_extreme_weights_are_zero_without_a_warning(self):
        # at lambda = 1e4 the extreme weights are below 1e-500: the rescaled
        # recurrence underflows them to 0, as eigh_tridiagonal gives 0
        seq = family_sequence(Family.NONSYM_MINUS, 1e4, size=1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rule = gauss_quadrature(seq, 1000)
        nodes, weights = measures._newton_rule(seq.alphas, seq.omegas)
        assert np.array_equal(rule.nodes, nodes) and np.array_equal(rule.weights, weights)
        lapack_weights = tridiagonal_rule(seq, 1000)[1]
        assert rule.weights[0] == rule.weights[-1] == 0.0
        assert lapack_weights[0] == lapack_weights[-1] == 0.0
        assert (np.diff(rule.nodes) > 0.0).all() and rule.weights.min() == 0.0

    @pytest.mark.parametrize("a, order", [
        (a, order) for a in (0.0, 0.5) for order in
        (DENSE_EIGH_MAX_ORDER, DENSE_EIGH_MAX_ORDER + 1, 32, 100, NEWTON_RULE_MIN_ORDER - 1)
    ] + [(0.0, 400)])
    def test_huge_tail_takes_the_newton_rule_below_the_threshold(self, a, order):
        # past the closed form's ratio guard a table of its own tries the
        # Newton rule at every order, symmetric or not: at b = 1e300
        # eigh_tridiagonal's rule reads sum w x^2 = 3, and so did the routes
        # these tables took before, dense eigh at order 30 and, at a = 0, the
        # half-size route at 100 and 400 (2 at 199 and 349); the Newton rule
        # reads 1
        seq = family_sequence(Family.FREE_MEIXNER, a=a, b=1e300, size=order)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rule = gauss_quadrature(seq, order)
        nodes, weights = measures._newton_rule(seq.alphas, seq.omegas)
        assert np.array_equal(rule.nodes, nodes) and np.array_equal(rule.weights, weights)
        assert math.fsum(rule.weights * rule.nodes**2) == pytest.approx(1.0, abs=1e-13)
        nodes, weights = tridiagonal_rule(seq, order)
        assert math.fsum(weights * nodes**2) == pytest.approx(3.0, abs=1e-13)

    @pytest.mark.parametrize("b, newton", [(1e300, True), (1.7e308, False)])
    def test_huge_tail_past_the_ratio_guard(self, b, newton):
        # free Meixner at a = 0.5, b = 1e300 has nodes 1e-150 of the scale
        # apart: eigh_tridiagonal's rule reads sum w x^2 = 3 at order 400,
        # the Newton rule 1; at b = 1.7e308 x^2 overflows, the moment check
        # fails and eigh_tridiagonal's rule stays, bit for bit
        seq = family_sequence(Family.FREE_MEIXNER, a=0.5, b=b, size=400)
        rule = gauss_quadrature(seq, 400)
        nodes, weights = tridiagonal_rule(seq, 400)
        assert np.array_equal(rule.weights, weights) is not newton
        if newton:
            assert float(rule.weights @ rule.nodes**2) == pytest.approx(1.0, abs=1e-13)
            assert float(weights @ nodes**2) == pytest.approx(3.0, abs=1e-13)


class TestMeasureProperties:
    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_orthogonality(self, config):
        seq = get_sequence(*config)
        rule = gauss_rule(config, 24)
        tables = eval_monic(seq, 10, rule.nodes).T
        norms = [norm_squared(seq, n) for n in range(11)]
        for m in range(11):
            for n in range(m):
                inner = float(np.sum(rule.weights * tables[:, m] * tables[:, n]))
                assert abs(inner) <= 1e-9 * math.sqrt(norms[m] * norms[n])
            diag = float(np.sum(rule.weights * tables[:, m] ** 2))
            assert diag == pytest.approx(norms[m], rel=1e-8)

    @pytest.mark.parametrize("lam", LAMBDA_SWEEP)
    def test_reflection(self, lam):
        plus = (Family.NONSYM_PLUS, lam, None, None)
        minus = (Family.NONSYM_MINUS, lam, None, None)
        lo, hi = support_interval(*plus)
        for x in np.linspace(lo + 1e-3, hi - 1e-3, 9):
            assert density(minus, -x) == pytest.approx(density(plus, x), rel=1e-12)

    def test_endpoint_behavior(self):
        # positive exponent: density vanishes at the endpoint
        config = (Family.SYM1, 2.0, None, None)
        hi = support_interval(*config)[1]
        assert density(config, hi - 1e-8) < 1e-9
        # exponent in (-1, 0): integrable blow-up
        config = (Family.SYM2, 0.6, None, None)
        hi = support_interval(*config)[1]
        assert density(config, hi - 1e-8) > 1e3
        assert adaptive_integral(config, lambda x: 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_csv_export(self):
        rule = gauss_rule((Family.SYM1, 0.5, None, None), 2)
        lines = rule.csv_text("family=sym1 lambda=0.5 order=2").splitlines()
        assert lines[0] == "# family=sym1 lambda=0.5 order=2"
        assert lines[1] == "node,weight"
        node, weight = lines[2].split(",")
        assert float(node) == pytest.approx(-1.0)
        assert float(weight) == pytest.approx(0.5)
