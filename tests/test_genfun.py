"""Tests for the closed-form and series generating functions and the moments."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SWEEP_CONFIGS, get_closed_form, get_measure, get_sequence
from opgf import (
    BranchCutError,
    DomainError,
    Family,
    ParameterError,
    closed_form,
    gauss_quadrature,
    psi_analytic,
    psi_closed,
    psi_family_moments,
    psi_series,
    stieltjes_from_quadrature,
)
from opgf import genfun
from opgf.recurrence import monic_values

# lambda = 1 rows of the identity sweep are carried by the free Meixner family
IDENTITY_SWEEP = SWEEP_CONFIGS + ((Family.FREE_MEIXNER, None, 0.0, 0.0),)


def circle_points(radius, count=16):
    return [radius * cmath.exp(1j * k * math.pi / count) for k in range(count)]


class TestClosedForm:
    def test_sym1_lambda2_values(self):
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        assert cf.f(0.1) == pytest.approx(10.15, rel=1e-15)
        assert cf.u(0.1) == pytest.approx(0.01, rel=1e-12)
        assert cf.alpha1 == 0.0
        assert cf.omega2 == pytest.approx(1.25)

    def test_free_meixner_trivial(self):
        cf = get_closed_form(Family.FREE_MEIXNER, None, 0.0, 0.0)
        assert cf.f(0.1) == pytest.approx(10.1)
        assert cf.u(0.1) == pytest.approx(0.1)
        for x in (-1.5, 0.0, 1.0):
            assert psi_closed(cf, 0.1, x) == pytest.approx(
                1.0 / (1.0 - 0.1 * x + 0.01), rel=1e-14
            )

    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_star_conditions(self, config):
        # z f(z) -> 1 and u(z)/z^lambda -> 1 as z -> 0+ (Richardson at
        # 1e-4, 1e-5, 1e-6; extrapolation tolerance 1e-6).
        cf = get_closed_form(*config)
        for fn in (lambda z: z * cf.f(z), lambda z: cf.u(z) / z**cf.lam):
            values = {z: complex(fn(z)) for z in (1e-4, 1e-5, 1e-6)}
            extrapolated = (1e-5 * values[1e-6] - 1e-6 * values[1e-5]) / (1e-5 - 1e-6)
            assert abs(extrapolated - 1.0) <= 1e-6
            assert abs(values[1e-4] - 1.0) <= 1e-2

    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_g_minus_pole_extends_continuously(self, config):
        cf = get_closed_form(*config)
        h5 = complex(cf.g(1e-5) - 1e5)
        h6 = complex(cf.g(1e-6) - 1e6)
        assert abs(h5 - h6) <= 1e-4 * (1.0 + abs(h6))

    def test_sym2_u_reduced_limit(self):
        cf = get_closed_form(Family.SYM2, 1.5, None, None)
        assert cf.u(1e-6) / (1e-6) ** 1.5 == pytest.approx(1.0, abs=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            closed_form(Family.SYM2, 0.3)
        with pytest.raises(ParameterError):
            closed_form(Family.SYM1, 2.0, a=0.1)
        with pytest.raises(ParameterError):
            closed_form(Family.FREE_MEIXNER, a=0.5)

    def test_domain_radius_positive_and_beyond_tests(self):
        for config in IDENTITY_SWEEP:
            cf = get_closed_form(*config)
            assert cf.domain_radius > 0.11  # every sweep uses |z| <= 0.1


class TestPsiClosed:
    def test_tends_to_one(self):
        for config in IDENTITY_SWEEP[:8]:
            cf = get_closed_form(*config)
            v5, v6 = psi_closed(cf, 1e-5, 0.3), psi_closed(cf, 1e-6, 0.3)
            extrapolated = (1e-5 * v6 - 1e-6 * v5) / (1e-5 - 1e-6)
            assert abs(extrapolated - 1.0) <= 1e-8

    def test_sym1_example(self):
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        assert psi_closed(cf, 0.1, 0.0) == pytest.approx(
            1.0 / 1.015**2, rel=1e-13
        )

    def test_free_meixner_example(self):
        cf = get_closed_form(Family.FREE_MEIXNER, None, 0.0, 0.0)
        assert psi_closed(cf, 0.1, 1.0) == pytest.approx(1.0 / 0.91, rel=1e-13)

    def test_outside_domain(self):
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        with pytest.raises(DomainError):
            psi_closed(cf, 0.9, 0.0)

    def test_negative_axis_excluded_for_power_families(self):
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        assert cf.excludes_negative_axis
        with pytest.raises(DomainError):
            psi_closed(cf, -0.05, 0.0)

    def test_branch_cut_reported_for_free_meixner(self):
        # u is rational here, so negative real z reaches the power's cut.
        cf = get_closed_form(Family.FREE_MEIXNER, None, 0.0, 0.0)
        assert not cf.excludes_negative_axis
        with pytest.raises(BranchCutError) as excinfo:
            psi_closed(cf, -0.1, 0.5)
        assert excinfo.value.z == pytest.approx(-0.1)
        assert excinfo.value.x == pytest.approx(0.5)

    @settings(max_examples=40, deadline=None)
    @given(
        angle=st.floats(0.05, 3.0),
        radius=st.floats(0.01, 0.1),
        xfrac=st.floats(0.05, 0.95),
        config=st.sampled_from(IDENTITY_SWEEP),
    )
    def test_conjugate_symmetry(self, angle, radius, xfrac, config):
        cf = get_closed_form(*config)
        lo, hi = get_measure(*config).support
        x = lo + xfrac * (hi - lo)
        z = radius * cmath.exp(1j * angle)
        for fn in (psi_closed, psi_analytic):
            left = fn(cf, z.conjugate(), x)
            right = fn(cf, z, x).conjugate()
            assert left == pytest.approx(right, rel=1e-14, abs=1e-15)


class TestPsiAnalytic:
    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_matches_psi_closed_off_axis(self, config):
        cf = get_closed_form(*config)
        lo, hi = get_measure(*config).support
        for z in circle_points(0.1, 8):
            for x in np.linspace(lo, hi, 5):
                a = psi_analytic(cf, z, float(x))
                c = psi_closed(cf, z, float(x))
                assert a == pytest.approx(c, rel=1e-13)

    def test_real_negative_z_is_real(self):
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        value = psi_analytic(cf, -0.1, 0.5)
        assert abs(value.imag) < 1e-15
        assert value.real > 0.0

    def test_zero_is_one(self):
        cf = get_closed_form(Family.SYM2, 1.5, None, None)
        assert psi_analytic(cf, 0.0, 1.0) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        re=st.floats(-0.09, 0.09),
        im=st.floats(-0.09, 0.09),
        xfrac=st.floats(0.0, 1.0),
        config=st.sampled_from(IDENTITY_SWEEP),
    )
    def test_series_agrees_at_random_interior_points(self, re, im, xfrac, config):
        # third route: the adaptive series against the analytic product form,
        # at arbitrary points of the disk |z| < 0.1 (cut included)
        z = complex(re, im)
        if abs(z) < 1e-3:
            z += 0.01
        cf = get_closed_form(*config)
        lo, hi = get_measure(*config).support
        x = lo + xfrac * (hi - lo)
        value = psi_analytic(cf, z, x)
        series = psi_series(get_sequence(*config), cf.lam, z, x)
        assert series.converged
        assert abs(series.value - value) <= 1e-9 * (1.0 + abs(value))


class TestPsiSeries:
    def test_single_term_is_one(self):
        seq = get_sequence(Family.SYM1, 2.0, None, None)
        assert psi_series(seq, 2.0, 0.3 + 0.1j, 1.7, 1).value == 1.0 + 0.0j

    def test_sym1_matches_closed(self):
        seq = get_sequence(Family.SYM1, 2.0, None, None)
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        result = psi_series(seq, 2.0, 0.1, 0.0, 40)
        assert result.converged
        assert abs(result.value - psi_closed(cf, 0.1, 0.0)) <= 1e-12

    def test_free_meixner_chebyshev_tail(self):
        seq = get_sequence(Family.FREE_MEIXNER, None, 0.0, 0.0)
        result = psi_series(seq, 1.0, 0.1, 1.0, 60)
        assert result.value.real == pytest.approx(1.0 / 0.91, abs=1e-9)

    def test_nonconvergence_flagged(self):
        seq = get_sequence(Family.FREE_MEIXNER, None, 0.0, 0.0)
        result = psi_series(seq, 1.0, 0.95, 1.9, 25)
        assert not result.converged

    def test_requires_positive_terms(self):
        seq = get_sequence(Family.SYM1, 2.0, None, None)
        with pytest.raises(ParameterError):
            psi_series(seq, 2.0, 0.1, 0.0, 0)

    @pytest.mark.parametrize("config", [
        (Family.SYM1, 2.0, None, None),
        (Family.SYM2, 2.0, None, None),
        (Family.NONSYM_PLUS, 2.0, None, None),
        (Family.FREE_MEIXNER, None, 0.5, 0.25),
    ])
    def test_reads_only_the_degrees_it_sums(self, config):
        # a 41-entry coefficient table raises past its end, so the series
        # must stop on its own well before degree 40 at |z| = 0.1
        measure = get_measure(*config)
        seq = stieltjes_from_quadrature(gauss_quadrature(measure, 100), 40)
        cf = get_closed_form(*config)
        lo, hi = measure.support
        for z in circle_points(0.1, 16):
            for x in np.linspace(lo, hi, 11):
                series = psi_series(seq, cf.lam, z, float(x))
                assert series.converged
                assert abs(series.value - psi_closed(cf, z, float(x))) <= 1e-9

    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_grid_matches_pointwise(self, config):
        # one grid call against one scalar call per (z, x) pair: every
        # element stops where its scalar call does.  The grid forms z^n with
        # numpy's array product and a scalar call with Python's complex
        # product, which may round differently by about an ulp per product;
        # the last term's z^n is up to ~30 products deep at |z| = 0.1.
        cf = get_closed_form(*config)
        seq = get_sequence(*config)
        lo, hi = get_measure(*config).support
        zs, xs = circle_points(0.1, 16), np.linspace(lo, hi, 11)
        grid = psi_series(seq, cf.lam, zs, xs)
        assert grid.value.shape == grid.tail.shape == grid.converged.shape == (16, 11)
        for i, z in enumerate(zs):
            for j, x in enumerate(xs):
                point = psi_series(seq, cf.lam, z, float(x))
                assert grid.converged[i, j] == point.converged
                value_ulp = np.spacing(abs(point.value))
                assert abs(grid.value[i, j] - point.value) <= 4 * value_ulp
                assert abs(grid.tail[i, j] - point.tail) <= 64 * np.spacing(point.tail)

    @pytest.mark.parametrize("config", [
        (Family.SYM1, 2.0, None, None),
        (Family.NONSYM_MINUS, 0.6, None, None),
        (Family.FREE_MEIXNER, None, 0.5, 0.25),
    ])
    def test_grid_reads_each_coefficient_once(self, config, monkeypatch):
        # one recurrence pass serves the whole 16 x 11 grid
        degrees = []

        def counting(seq, x):
            degrees.append(0)
            for p in monic_values(seq, x):
                degrees[-1] += 1
                yield p

        monkeypatch.setattr(genfun, "monic_values", counting)
        lo, hi = get_measure(*config).support
        series = psi_series(get_sequence(*config), get_closed_form(*config).lam,
                            circle_points(0.1, 16), np.linspace(lo, hi, 11))
        assert series.converged.all()
        assert len(degrees) == 1
        assert degrees[0] < 40

    def test_mixed_scalar_and_grid_axes(self):
        seq = get_sequence(Family.SYM2, 1.5, None, None)
        zs, xs = circle_points(0.1, 4), [-1.0, 0.5]
        grid = psi_series(seq, 1.5, zs, xs).value
        assert psi_series(seq, 1.5, zs[1], xs).value.tolist() == grid[1].tolist()
        assert psi_series(seq, 1.5, zs, xs[0]).value.tolist() == grid[:, 0].tolist()

    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_series_vs_closed_sweep(self, config):
        # max over 16 angles and an 11-point support grid of the identity gap
        cf = get_closed_form(*config)
        seq = get_sequence(*config)
        lo, hi = get_measure(*config).support
        worst = 0.0
        for z in circle_points(0.1, 16):
            for x in np.linspace(lo, hi, 11):
                closed = psi_closed(cf, z, float(x))
                series = psi_series(seq, cf.lam, z, float(x))
                gap = abs(series.value - closed) / (1.0 + abs(closed))
                worst = max(worst, gap)
        assert worst <= 1e-9


class TestPsiFamilyMoments:
    def test_m1_quarter_lambda(self):
        for family, lam in ((Family.SYM1, 1.5), (Family.SYM2, 1.5),
                            (Family.NONSYM_PLUS, 1.5)):
            measure = get_measure(family, lam, None, None)
            cf = get_closed_form(family, lam, None, None)
            _, m1, _ = psi_family_moments(measure, cf, 0.05, 24)
            assert m1 == pytest.approx(0.075, abs=1e-9)

    def test_sym1_lambda2_m2(self):
        measure = get_measure(Family.SYM1, 2.0, None, None)
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        _, _, m2 = psi_family_moments(measure, cf, 0.1, 24)
        assert m2 == pytest.approx(1.0375, abs=1e-9)

    def test_zero_gives_standardized_moments(self):
        measure = get_measure(Family.NONSYM_MINUS, 2.0, None, None)
        cf = get_closed_form(Family.NONSYM_MINUS, 2.0, None, None)
        m0, m1, m2 = psi_family_moments(measure, cf, 0.0, 24)
        assert m0 == pytest.approx(1.0, abs=1e-12)
        assert m1 == pytest.approx(0.0, abs=1e-12)
        assert m2 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_moment_claim_sweep(self, config):
        measure = get_measure(*config)
        cf = get_closed_form(*config)
        lam = cf.lam
        for z in (-0.1, -0.05, -0.02, 0.02, 0.05, 0.1):
            m0, m1, m2 = psi_family_moments(measure, cf, z, 24)
            assert abs(m0 - 1.0) <= 1e-10
            assert abs(m1 - lam * z) <= 1e-9
            expected = 0.5 * lam * (lam + 1.0) * cf.omega2 * z * z \
                + lam * cf.alpha1 * z + 1.0
            assert abs(m2 - expected) <= 1e-9

    @pytest.mark.parametrize("config", IDENTITY_SWEEP[::3])
    def test_array_z_matches_scalar_calls(self, config):
        # the grid form builds one Gauss rule for every z
        measure = get_measure(*config)
        cf = get_closed_form(*config)
        zs = [-0.1, -0.02, 0.05, 0.1]
        moments = psi_family_moments(measure, cf, np.array(zs), 24)
        for k, z in enumerate(zs):
            assert tuple(m[k] for m in moments) == psi_family_moments(measure, cf, z, 24)

    @pytest.mark.parametrize("a", [0.0, 0.7, -0.4])
    def test_two_point_free_meixner(self, a):
        # b = -1 leaves two support points: the rule shrinks to them and is
        # exact, where an order-24 rule does not exist
        measure = get_measure(Family.FREE_MEIXNER, None, a, -1.0)
        cf = get_closed_form(Family.FREE_MEIXNER, None, a, -1.0)
        zs = np.array([-0.1, -0.05, 0.05, 0.1])
        m0, m1, m2 = psi_family_moments(measure, cf, zs, 24)
        assert np.abs(m0 - 1.0).max() <= 1e-12
        assert np.abs(m1 - zs).max() <= 1e-12
        assert np.abs(m2 - (cf.omega2 * zs * zs + a * zs + 1.0)).max() <= 1e-12

    def test_order_precondition(self):
        measure = get_measure(Family.SYM1, 2.0, None, None)
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        with pytest.raises(ParameterError):
            psi_family_moments(measure, cf, 0.05, 8)

    def test_z_outside_domain(self):
        measure = get_measure(Family.SYM1, 2.0, None, None)
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        with pytest.raises(DomainError):
            psi_family_moments(measure, cf, 0.99, 24)
