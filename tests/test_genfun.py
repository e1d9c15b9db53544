"""Tests for the closed-form and series generating functions and the moments."""
import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SWEEP_CONFIGS, get_closed_form, get_measure, get_sequence
from opgf import (
    BranchCutError,
    DomainError,
    Family,
    OpgfError,
    ParameterError,
    closed_form,
    eval_monic,
    gauss_quadrature,
    psi_analytic,
    psi_closed,
    psi_family_moments,
    psi_series,
    stieltjes_from_quadrature,
)
from opgf import genfun, measures
from opgf.genfun import pochhammer_over_factorial
from opgf.recurrence import majorant_values, monic_values

# lambda = 1 rows of the identity sweep are carried by the free Meixner family
IDENTITY_SWEEP = SWEEP_CONFIGS + ((Family.FREE_MEIXNER, None, 0.0, 0.0),)


def circle_points(radius, count=16):
    return [radius * cmath.exp(1j * k * math.pi / count) for k in range(count)]


def first_scalar_error(fn, cf, zs, xs):
    """The error a per-point loop, z-major, meets first (None if none)."""
    for z in zs:
        for x in xs:
            try:
                fn(cf, z, x)
            except OpgfError as exc:
                return exc
    return None


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


# Documented edges of the parameter domain, beside the sweep.
EDGE_CONFIGS = (
    (Family.SYM1, 0.05, None, None), (Family.SYM1, 0.5, None, None),
    (Family.SYM1, 40.0, None, None), (Family.SYM2, 0.51, None, None),
    (Family.SYM2, 40.0, None, None), (Family.NONSYM_PLUS, 0.51, None, None),
    (Family.NONSYM_MINUS, 40.0, None, None), (Family.FREE_MEIXNER, None, 0.0, -1.0),
    (Family.FREE_MEIXNER, None, 0.7, -1.0), (Family.FREE_MEIXNER, None, -1.0, 1.0),
)


def three_candidate_fm_radius(a, b):
    """The free Meixner radius as three candidates: the smallest |root| of
    z f(z) and of z^lambda/u(z) by np.roots, and 1/sqrt(1 + b) for b > -1."""
    def nearest(coeffs_desc):
        coeffs = np.trim_zeros(np.array(coeffs_desc, dtype=float), "f")
        return float(np.abs(np.roots(coeffs)).min()) if coeffs.size > 1 else math.inf
    candidates = [nearest([1.0 + b, a, 1.0]), nearest([b, a, 1.0])]
    if b > -1.0:
        candidates.append(1.0 / math.sqrt(1.0 + b))
    return 0.9 * min(candidates)


def close_to(value, terms, rel=1e-14):
    """value == sum(terms) within rel times the larger of |value| and the
    sum of |terms|, the scale that rounding of the sum reaches."""
    scale = max(abs(value), sum(abs(t) for t in terms))
    return abs(value - sum(terms)) <= rel * scale


class TestClosedFormData:
    @pytest.mark.parametrize("config", SWEEP_CONFIGS + EDGE_CONFIGS)
    def test_quadratics_forced_by_the_recurrence(self, config):
        # c1, c2 from the z^-1 and z^0 coefficients of the Riccati equation;
        # d1, d2 from psi's z^1 and z^2 coefficients against P_1 = x and
        # P_2 = x^2 - alpha_1 x - 1
        cf = get_closed_form(*config)
        seq = measures.recurrence_of(get_measure(*config), 3)
        a1, w2, lam = float(seq.alphas[1]), float(seq.omegas[2]), cf.lam
        c0, c1, c2 = cf.zf_coeffs
        d0, d1, d2 = cf.numerator_coeffs
        assert (c0, d0) == (1.0, 1.0)
        assert close_to(c1, [0.5 * (lam + 1.0) * a1])
        assert close_to(c2, [(lam + 1.0) / 3.0 * (lam + 2.0) * w2 / 2.0,
                             -(lam + 1.0) / 3.0 * (lam - 1.0) * (1.0 + a1 * a1 / 4.0)])
        assert close_to(d1, [lam * c1])
        assert close_to(d2, [lam * c2, lam * (lam - 1.0) * c1 * c1 / 2.0,
                             -lam * (lam + 1.0) / 2.0])

    @pytest.mark.parametrize("family, lam_min, radius", [
        (Family.SYM1, 0.05, lambda lam: 0.9 * math.sqrt(2.0 / (1.0 + lam))),
        (Family.SYM2, 0.51, lambda lam: 0.9 * math.sqrt(2.0 / lam)),
        (Family.NONSYM_PLUS, 0.51, lambda lam: 0.9 * math.sqrt(2.0 * lam - 1.0) / lam),
        (Family.NONSYM_MINUS, 0.51, lambda lam: 0.9 * math.sqrt(2.0 * lam - 1.0) / lam),
    ])
    def test_radius_matches_the_family_formula(self, family, lam_min, radius):
        for lam in np.geomspace(lam_min, 40.0, 97).tolist():
            if lam == 1.0:
                continue
            expected = radius(lam)
            got = closed_form(family, lam).domain_radius
            assert abs(got - expected) <= 4 * np.spacing(expected), lam

    def test_radius_matches_three_candidates_for_free_meixner(self):
        grid = np.linspace(-1.0, 1.0, 21).tolist()
        for a, b in itertools.product(grid + [0.7, -0.35], grid):
            expected = three_candidate_fm_radius(a, b)
            got = closed_form(Family.FREE_MEIXNER, a=a, b=b).domain_radius
            assert abs(got - expected) <= 4 * np.spacing(expected), (a, b)

    def test_two_point_free_meixner_radius(self):
        assert closed_form(Family.FREE_MEIXNER, a=0.0, b=-1.0).domain_radius == 0.9
        radius = closed_form(Family.FREE_MEIXNER, a=0.7, b=-1.0).domain_radius
        assert radius == pytest.approx(0.9 * (math.sqrt(4.49) - 0.7) / 2.0, rel=1e-15)

    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_u_is_z_power_over_numerator(self, config):
        cf = get_closed_form(*config)
        zs = np.array([0.05, 0.03 + 0.04j, -0.02 + 0.07j])
        assert np.array_equal(cf.u(zs), np.power(zs, cf.lam) / cf.numerator(zs))
        step = 1e-6
        numeric = (np.log(cf.u(zs + step)) - np.log(cf.u(zs - step))) / (2 * step)
        assert np.abs(numeric - cf.u_log_deriv(zs)).max() <= 1e-6 * np.abs(numeric).max()


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


class TestGridClosedForms:
    @pytest.mark.parametrize("fn", [psi_closed, psi_analytic])
    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_grid_matches_pointwise(self, config, fn):
        # one grid call against one scalar call per (z, x) pair
        cf = get_closed_form(*config)
        lo, hi = get_measure(*config).support
        zs, xs = circle_points(0.1, 16), np.linspace(lo, hi, 11)
        grid = fn(cf, zs, xs)
        assert grid.shape == (16, 11)
        for i, z in enumerate(zs):
            for j, x in enumerate(xs):
                point = fn(cf, z, float(x))
                assert isinstance(point, complex)
                assert abs(grid[i, j] - point) <= 4 * np.spacing(abs(point))

    def test_mixed_scalar_and_grid_axes(self):
        cf = get_closed_form(Family.SYM2, 1.5, None, None)
        zs, xs = circle_points(0.1, 4), [-1.0, 0.5]
        for fn in (psi_closed, psi_analytic):
            grid = fn(cf, zs, xs)
            assert fn(cf, zs[1], xs).tolist() == grid[1].tolist()
            assert fn(cf, zs, xs[0]).tolist() == grid[:, 0].tolist()

    def test_analytic_is_one_at_zero_in_a_grid(self):
        cf = get_closed_form(Family.NONSYM_PLUS, 0.6, None, None)
        grid = psi_analytic(cf, [0.0, -0.05], [0.0, 1.0])
        assert grid[0].tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("fn, config, zs, xs", [
        # an excluded negative-axis point before an out-of-radius one
        (psi_closed, (Family.SYM1, 2.0, None, None), [0.05j, -0.05, 0.9], [0.0, 1.0]),
        # out of radius before the negative axis
        (psi_closed, (Family.SYM1, 2.0, None, None), [0.05, 0.9, -0.05], [0.0, 1.0]),
        # z = 0 is a pole of f where the negative axis is allowed
        (psi_closed, (Family.FREE_MEIXNER, None, 0.0, 0.0), [0.05, 0.0, 0.95], [0.0]),
        # branch cut at the second x of the second z, before a radius error
        (psi_closed, (Family.FREE_MEIXNER, None, 0.0, 0.0), [0.05, -0.1, 0.95],
         [0.5, 0.0]),
        # f(0.5) = 2.5 exactly
        (psi_closed, (Family.FREE_MEIXNER, None, 0.0, 0.0), [0.05, 0.5, -0.1],
         [0.0, 2.5]),
        # a (z, x) error at the last x of a z precedes the next z's radius error
        (psi_analytic, (Family.FREE_MEIXNER, None, 0.0, 0.0), [0.5, 0.95], [0.0, 3.0]),
        # 1 - 2.5 z + z^2 vanishes at z = 0.5
        (psi_analytic, (Family.FREE_MEIXNER, None, 0.0, 0.0), [0.1j, 0.5], [0.0, 2.5]),
        (psi_analytic, (Family.SYM2, 1.5, None, None), [0.05, -0.05, 1.1], [0.0]),
    ])
    def test_first_bad_point_raises_as_scalar(self, fn, config, zs, xs):
        cf = get_closed_form(*config)
        expected = first_scalar_error(fn, cf, zs, xs)
        assert expected is not None
        with pytest.raises(type(expected)) as excinfo:
            fn(cf, zs, xs)
        assert str(excinfo.value) == str(expected)
        if isinstance(expected, BranchCutError):
            assert (excinfo.value.z, excinfo.value.x) == (expected.z, expected.x)


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

    def test_names_a_nonfinite_scalar_x(self):
        seq = get_sequence(Family.SYM1, 2.0, None, None)
        with pytest.raises(ParameterError, match=r"got nan$"):
            psi_series(seq, 2.0, 0.1, math.nan)

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
        # one grid call against one scalar call per (z, x) pair.  A point
        # sees a narrower |z| and x range than the grid, so it picks its own
        # term count: the two sums agree within both tail bounds plus the
        # rounding of the sums (4 ulp).
        cf = get_closed_form(*config)
        seq = get_sequence(*config)
        lo, hi = get_measure(*config).support
        zs, xs = circle_points(0.1, 16), np.linspace(lo, hi, 11)
        grid = psi_series(seq, cf.lam, zs, xs)
        assert grid.value.shape == grid.converged.shape == (16, 11)
        assert grid.converged.all()
        for i, z in enumerate(zs):
            for j, x in enumerate(xs):
                point = psi_series(seq, cf.lam, z, float(x))
                assert point.converged
                value_ulp = np.spacing(abs(point.value))
                assert (abs(grid.value[i, j] - point.value)
                        <= grid.tail_bound + point.tail_bound + 4 * value_ulp)

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
        # a row or a column is a call of its own, with its own term count
        seq = get_sequence(Family.SYM2, 1.5, None, None)
        zs, xs = circle_points(0.1, 4), [-1.0, 0.5]
        grid = psi_series(seq, 1.5, zs, xs)
        for part, expected in ((psi_series(seq, 1.5, zs[1], xs), grid.value[1]),
                               (psi_series(seq, 1.5, zs, xs[0]), grid.value[:, 0])):
            assert part.value.shape == expected.shape
            ulp = np.spacing(np.abs(expected))
            assert np.all(np.abs(part.value - expected)
                          <= grid.tail_bound + part.tail_bound + 4 * ulp)

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


def mp_tail(seq, lam, r, x, start):
    """sum of |c_n P_n(x)| r^n over start <= n <= the table's last degree,
    with c_n = (lam)_n / n!, at 40 digits from the table's floats."""
    with mpmath.workdps(40):
        x, r, lam = mpmath.mpf(x), mpmath.mpf(r), mpmath.mpf(lam)
        total, c, rn = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(1)
        p_prev, p = mpmath.mpf(0), mpmath.mpf(1)
        coefficients = zip(seq.alphas.tolist(), seq.omegas.tolist())
        for n, (alpha, omega) in enumerate(coefficients):
            if n >= start:
                total += c * abs(p) * rn
            p_prev, p = p, (x - alpha) * p - omega * p_prev
            c, rn = c * (lam + n) / (n + 1), rn * r
        return total + c * abs(p) * rn


class TestCertifiedTruncation:
    @pytest.mark.parametrize("radius", [0.1, 0.3])
    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_tail_bound_covers_the_true_tail(self, config, radius):
        # every omitted term of the 200-entry table, at 40 digits, at the
        # largest |z| of the call (the tail grows with |z|)
        cf = get_closed_form(*config)
        seq = get_sequence(*config)
        lo, hi = get_measure(*config).support
        zs, xs = circle_points(radius, 16), np.linspace(lo, hi, 11)
        series = psi_series(seq, cf.lam, zs, xs)
        if radius == 0.1:
            assert series.converged.all()
        if math.isinf(series.tail_bound):
            assert series.n_terms == genfun.SERIES_CAP
            return
        r = max(abs(z) for z in zs)
        for x in xs:
            assert mp_tail(seq, cf.lam, r, float(x), series.n_terms) <= series.tail_bound

    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_majorant_bounds_the_polynomials(self, config):
        # M_n >= |P_n(x)| for n <= 200 on the support grid; the slack covers
        # the rounding of the two float recurrences
        seq = get_sequence(*config)
        xs = np.linspace(*get_measure(*config).support, 11)
        majorant = [m for m, _ in itertools.islice(majorant_values(seq, xs, 1.0), 201)]
        values = np.abs(eval_monic(seq, 200, xs)).max(axis=1)
        assert np.all(values <= np.array(majorant) * (1.0 + 1e-12))

    def test_majorant_scales_with_z(self):
        seq = get_sequence(Family.NONSYM_PLUS, 1.5, None, None)
        xs = np.linspace(*get_measure(Family.NONSYM_PLUS, 1.5, None, None).support, 11)
        plain = list(itertools.islice(majorant_values(seq, xs, 1.0), 30))
        scaled = list(itertools.islice(majorant_values(seq, xs, 0.25), 30))
        for n, ((m, rho), (m_s, rho_s)) in enumerate(zip(plain, scaled)):
            assert m_s == pytest.approx(m * 0.25**n, rel=1e-13, abs=0.0)
            assert rho_s == pytest.approx(0.25 * rho, rel=1e-15, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        re=st.floats(-0.2, 0.2),
        im=st.floats(-0.2, 0.2),
        xfrac=st.floats(0.0, 1.0),
        config=st.sampled_from(IDENTITY_SWEEP),
    )
    def test_error_within_tail_bound_and_rounding(self, re, im, xfrac, config):
        # |series - psi| <= tail_bound + 64 eps sum |t_n| over the summed terms
        z = complex(re, im)
        cf = get_closed_form(*config)
        if abs(z) >= 0.9 * cf.domain_radius:
            z *= 0.5 * cf.domain_radius / abs(z)
        seq = get_sequence(*config)
        lo, hi = get_measure(*config).support
        x = lo + xfrac * (hi - lo)
        series = psi_series(seq, cf.lam, z, x)
        count = series.n_terms
        coeffs = np.fromiter(itertools.islice(pochhammer_over_factorial(cf.lam), count),
                             float, count)
        powers = abs(z) ** np.arange(count)
        magnitudes = coeffs * np.abs(eval_monic(seq, count - 1, x)) * powers
        bound = series.tail_bound + 64 * np.finfo(float).eps * magnitudes.sum()
        assert abs(series.value - psi_analytic(cf, z, x)) <= bound

    def test_bound_is_tight_where_the_majorant_is_exact(self):
        # free Meixner at b = -1 has omega_n = 0 for n >= 2, and at x = 0.25,
        # between 0 and a = 0.5, every |P_n(x)| equals M_n: the tail past N
        # is the geometric series |P_N| r^N / (1 - r |x - a|), which the
        # bound must reproduce, and N is the first count that meets 2^-53
        seq = get_sequence(Family.FREE_MEIXNER, None, 0.5, -1.0)
        r, x = 0.3, 0.25
        series = psi_series(seq, 1.0, r, x)
        size = np.abs(eval_monic(seq, 60, x)) * r ** np.arange(61)
        majorant = [m for m, _ in itertools.islice(majorant_values(seq, x, r), 61)]
        assert size == pytest.approx(majorant, rel=1e-13, abs=0.0)
        count = series.n_terms
        tail = size[count] / (1.0 - r * 0.25)
        assert series.tail_bound == pytest.approx(tail, rel=1e-12, abs=0.0)
        assert series.tail_bound <= genfun.UNIT_ROUNDOFF * size[:count].sum()
        earlier = size[count - 1] / (1.0 - r * 0.25)
        assert earlier > genfun.UNIT_ROUNDOFF * size[:count - 1].sum()

    def test_sums_only_the_chosen_terms(self):
        seq = get_sequence(Family.SYM1, 2.0, None, None)
        assert psi_series(seq, 2.0, 0.0, 1.0) == (1.0 + 0.0j, 0.0, 1, True)
        capped = psi_series(seq, 2.0, 0.1, 1.0, 5)
        assert capped.n_terms == 5 and capped.tail_bound == math.inf
        assert not capped.converged


class TestPsiFamilyMoments:
    def test_m1_quarter_lambda(self):
        for family, lam in ((Family.SYM1, 1.5), (Family.SYM2, 1.5),
                            (Family.NONSYM_PLUS, 1.5)):
            measure = get_measure(family, lam, None, None)
            cf = get_closed_form(family, lam, None, None)
            _, m1, _ = psi_family_moments(measure, cf, 0.05)
            assert m1 == pytest.approx(0.075, abs=1e-9)

    def test_sym1_lambda2_m2(self):
        measure = get_measure(Family.SYM1, 2.0, None, None)
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        _, _, m2 = psi_family_moments(measure, cf, 0.1)
        assert m2 == pytest.approx(1.0375, abs=1e-9)

    def test_zero_gives_standardized_moments(self):
        measure = get_measure(Family.NONSYM_MINUS, 2.0, None, None)
        cf = get_closed_form(Family.NONSYM_MINUS, 2.0, None, None)
        m0, m1, m2 = psi_family_moments(measure, cf, 0.0)
        assert m0 == pytest.approx(1.0, abs=1e-12)
        assert m1 == pytest.approx(0.0, abs=1e-12)
        assert m2 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_moment_claim_sweep(self, config):
        measure = get_measure(*config)
        cf = get_closed_form(*config)
        lam = cf.lam
        for z in (-0.1, -0.05, -0.02, 0.02, 0.05, 0.1):
            m0, m1, m2 = psi_family_moments(measure, cf, z)
            assert abs(m0 - 1.0) <= 1e-10
            assert abs(m1 - lam * z) <= 1e-9
            expected = 0.5 * lam * (lam + 1.0) * cf.omega2 * z * z \
                + lam * cf.alpha1 * z + 1.0
            assert abs(m2 - expected) <= 1e-9

    def test_reads_one_coefficient_table(self, monkeypatch):
        # the support size and the Gauss rule come from the same table
        tables = []

        def counting(measure, size):
            tables.append(size)
            return measures.family_sequence(measure.family, measure.lam, size=size)

        monkeypatch.setattr(measures, "recurrence_of", counting)
        measure = get_measure(Family.SYM2, 1.5, None, None)
        psi_family_moments(measure, get_closed_form(Family.SYM2, 1.5, None, None), 0.05)
        assert tables == [24]

    @pytest.mark.parametrize("config", IDENTITY_SWEEP[::3])
    def test_array_z_matches_scalar_calls(self, config):
        # the grid form builds one Gauss rule for every z
        measure = get_measure(*config)
        cf = get_closed_form(*config)
        zs = [-0.1, -0.02, 0.05, 0.1]
        moments = psi_family_moments(measure, cf, np.array(zs))
        for k, z in enumerate(zs):
            assert tuple(m[k] for m in moments) == psi_family_moments(measure, cf, z)

    @pytest.mark.parametrize("a", [0.0, 0.7, -0.4])
    def test_two_point_free_meixner(self, a):
        # b = -1 leaves two support points: the rule shrinks to them and is
        # exact, where an order-24 rule does not exist
        measure = get_measure(Family.FREE_MEIXNER, None, a, -1.0)
        cf = get_closed_form(Family.FREE_MEIXNER, None, a, -1.0)
        zs = np.array([-0.1, -0.05, 0.05, 0.1])
        m0, m1, m2 = psi_family_moments(measure, cf, zs)
        assert np.abs(m0 - 1.0).max() <= 1e-12
        assert np.abs(m1 - zs).max() <= 1e-12
        assert np.abs(m2 - (cf.omega2 * zs * zs + a * zs + 1.0)).max() <= 1e-12

    def test_z_outside_domain(self):
        measure = get_measure(Family.SYM1, 2.0, None, None)
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        with pytest.raises(DomainError):
            psi_family_moments(measure, cf, 0.99)
