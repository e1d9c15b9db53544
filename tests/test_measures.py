"""Tests for the measure catalog: densities, normalization, quadrature."""
import math

import numpy as np
import pytest

from conftest import LAMBDA_SWEEP, SWEEP_CONFIGS, get_measure, get_sequence
from opgf import (
    Family,
    NumericalBreakdownError,
    ParameterError,
    RedirectToFreeMeixner,
    build_measure,
    eval_monic,
    gauss_quadrature,
    moment,
    norm_squared,
)
from opgf.measures import adaptive_integral


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


class TestBuildMeasure:
    def test_sym1_half_is_uniform(self):
        m = get_measure(Family.SYM1, 0.5, None, None)
        s = math.sqrt(3.0)
        assert m.support == pytest.approx((-s, s))
        flat = 1.0 / (2.0 * s)
        for x in (-1.5, -0.2, 0.0, 1.0):
            assert m.density(x) == pytest.approx(flat, rel=1e-12)
        assert moment(m, 2, 16) == pytest.approx(1.0, abs=1e-12)

    def test_sym2_three_halves_is_uniform(self):
        m = get_measure(Family.SYM2, 1.5, None, None)
        s = math.sqrt(3.0)
        assert m.support == pytest.approx((-s, s))
        for x in (-1.0, 0.3):
            assert m.density(x) == pytest.approx(1.0 / (2.0 * s), rel=1e-12)
        assert moment(m, 2, 16) == pytest.approx(1.0, abs=1e-10)

    def test_nonsym_plus_lambda2_support(self):
        # (1 - 2*lambda)/sqrt(2*lambda - 1) = -3/sqrt(3) at lambda = 2
        m = get_measure(Family.NONSYM_PLUS, 2.0, None, None)
        assert m.support[0] == pytest.approx(-3.0 / math.sqrt(3.0))
        assert m.support[1] == pytest.approx(5.0 / math.sqrt(3.0))

    @pytest.mark.parametrize("lam", LAMBDA_SWEEP)
    def test_supports_match_formulas(self, lam):
        s1 = get_measure(Family.SYM1, lam, None, None)
        assert s1.support == pytest.approx(
            (-math.sqrt(2.0 * (1.0 + lam)), math.sqrt(2.0 * (1.0 + lam)))
        )
        s2 = get_measure(Family.SYM2, lam, None, None)
        assert s2.support == pytest.approx((-math.sqrt(2.0 * lam), math.sqrt(2.0 * lam)))
        root = math.sqrt(2.0 * lam - 1.0)
        plus = get_measure(Family.NONSYM_PLUS, lam, None, None)
        assert plus.support == pytest.approx(
            ((1.0 - 2.0 * lam) / root, (1.0 + 2.0 * lam) / root)
        )
        minus = get_measure(Family.NONSYM_MINUS, lam, None, None)
        assert minus.support == pytest.approx((-plus.support[1], -plus.support[0]))

    @pytest.mark.parametrize("lam", LAMBDA_SWEEP)
    def test_normalization_against_closed_form(self, lam):
        # Independent oracle: the Beta-function value of the unnormalized mass.
        m1 = get_measure(Family.SYM1, lam, None, None)
        exact = beta_symmetric_mass(math.sqrt(2.0 * (1.0 + lam)), lam - 0.5)
        assert 1.0 / m1.norm_const == pytest.approx(exact, rel=1e-12)
        m2 = get_measure(Family.SYM2, lam, None, None)
        exact = beta_symmetric_mass(math.sqrt(2.0 * lam), lam - 1.5)
        assert 1.0 / m2.norm_const == pytest.approx(exact, rel=1e-12)
        for family in (Family.NONSYM_PLUS, Family.NONSYM_MINUS):
            m = get_measure(family, lam, None, None)
            assert 1.0 / m.norm_const == pytest.approx(beta_jacobi_mass(lam), rel=1e-12)

    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_unit_mass_mean_variance(self, config):
        m = get_measure(*config)
        if m.log_density is not None:
            assert adaptive_integral(m, lambda x: 1.0) == pytest.approx(1.0, abs=1e-10)
        assert moment(m, 0, 16) == pytest.approx(1.0, abs=1e-13)
        assert moment(m, 1, 16) == pytest.approx(0.0, abs=1e-12)
        assert moment(m, 2, 16) == pytest.approx(1.0, abs=1e-10)

    def test_lambda_range_errors(self):
        with pytest.raises(ParameterError, match="lambda"):
            build_measure(Family.SYM1, -1.0)
        with pytest.raises(ParameterError, match="1/2"):
            build_measure(Family.SYM2, 0.4)
        with pytest.raises(ParameterError, match="1/2"):
            build_measure(Family.NONSYM_PLUS, 0.3)
        with pytest.raises(ParameterError, match="b >= -1"):
            build_measure(Family.FREE_MEIXNER, a=0.0, b=-1.5)

    @pytest.mark.parametrize("family", [Family.SYM1, Family.SYM2, Family.NONSYM_PLUS])
    def test_lambda_one_redirects(self, family):
        with pytest.raises(RedirectToFreeMeixner, match="free-meixner"):
            build_measure(family, 1.0)

    def test_free_meixner_flags(self):
        assert not get_measure(Family.FREE_MEIXNER, None, 0.0, 0.0).atoms_possible
        assert not get_measure(Family.FREE_MEIXNER, None, 0.5, 0.25).atoms_possible
        assert get_measure(Family.FREE_MEIXNER, None, -1.0, -0.5).atoms_possible
        with pytest.raises(ParameterError):
            get_measure(Family.FREE_MEIXNER, None, 0.0, 0.0).density(0.0)


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


class TestGaussQuadrature:
    def test_order_one_single_node_at_mean(self):
        for config in SWEEP_CONFIGS[:6]:
            rule = gauss_quadrature(get_measure(*config), 1)
            assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
            assert rule.weights[0] == pytest.approx(1.0)

    def test_uniform_order_two(self):
        rule = gauss_quadrature(get_measure(Family.SYM1, 0.5, None, None), 2)
        assert rule.nodes == pytest.approx([-1.0, 1.0])
        assert rule.weights == pytest.approx([0.5, 0.5])

    def test_nonsym_order12_unit_variance(self):
        rule = gauss_quadrature(get_measure(Family.NONSYM_PLUS, 2.0, None, None), 12)
        assert float(rule.weights @ rule.nodes**2) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_weights_positive_sum_one(self, config):
        rule = gauss_quadrature(get_measure(*config), 24)
        assert np.all(rule.weights > 0.0)
        assert float(rule.weights.sum()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("config", SWEEP_CONFIGS[:10])
    def test_exactness_against_adaptive_integration(self, config):
        measure = get_measure(*config)
        rule = gauss_quadrature(measure, 8)
        for k in range(7):
            adaptive = adaptive_integral(measure, lambda x: x**k)
            discrete = float(rule.weights @ rule.nodes**k)
            assert discrete == pytest.approx(adaptive, rel=1e-10, abs=1e-12)

    def test_nodes_inside_support(self):
        for config in SWEEP_CONFIGS:
            measure = get_measure(*config)
            rule = gauss_quadrature(measure, 24)
            lo, hi = measure.support
            pad = 1e-9 * (hi - lo)
            outside = rule.nodes[(rule.nodes < lo - pad) | (rule.nodes > hi + pad)]
            if measure.family is Family.FREE_MEIXNER and measure.atoms_possible:
                # Nodes may escape the a.c. band only at atoms, which sit at
                # the real zeros of b x^2 + a x + 1.
                a, b = measure.a, measure.b
                for x in outside:
                    assert abs(b * x * x + a * x + 1.0) < 1e-10
            else:
                assert outside.size == 0

    def test_finite_support_breakdown(self):
        two_atoms = build_measure(Family.FREE_MEIXNER, a=0.0, b=-1.0)
        assert gauss_quadrature(two_atoms, 2).nodes == pytest.approx([-1.0, 1.0])
        with pytest.raises(NumericalBreakdownError) as excinfo:
            gauss_quadrature(two_atoms, 3)
        assert excinfo.value.index == 2

    def test_order_validation(self):
        with pytest.raises(ParameterError):
            gauss_quadrature(get_measure(Family.SYM1, 2.0, None, None), 0)


class TestMoment:
    def test_degree_precondition(self):
        m = get_measure(Family.SYM1, 2.0, None, None)
        with pytest.raises(ParameterError):
            moment(m, 5, 2)
        with pytest.raises(ParameterError):
            moment(m, -1, 4)


class TestMeasureProperties:
    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_orthogonality(self, config):
        measure = get_measure(*config)
        seq = get_sequence(*config)
        rule = gauss_quadrature(measure, 24)
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
        plus = get_measure(Family.NONSYM_PLUS, lam, None, None)
        minus = get_measure(Family.NONSYM_MINUS, lam, None, None)
        lo, hi = plus.support
        for x in np.linspace(lo + 1e-3, hi - 1e-3, 9):
            assert minus.density(-x) == pytest.approx(plus.density(x), rel=1e-12)

    def test_endpoint_behavior(self):
        # positive exponent: density vanishes at the endpoint
        m = get_measure(Family.SYM1, 2.0, None, None)
        hi = m.support[1]
        assert m.density(hi - 1e-8) < 1e-9
        # exponent in (-1, 0): integrable blow-up
        m = get_measure(Family.SYM2, 0.6, None, None)
        hi = m.support[1]
        assert m.density(hi - 1e-8) > 1e3
        assert adaptive_integral(m, lambda x: 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_csv_export(self, tmp_path):
        rule = gauss_quadrature(get_measure(Family.SYM1, 0.5, None, None), 2)
        path = tmp_path / "rule.csv"
        rule.to_csv(path, header_comment="family=sym1 lambda=0.5 order=2")
        lines = path.read_text().splitlines()
        assert lines[0] == "# family=sym1 lambda=0.5 order=2"
        assert lines[1] == "node,weight"
        node, weight = lines[2].split(",")
        assert float(node) == pytest.approx(-1.0)
        assert float(weight) == pytest.approx(0.5)
