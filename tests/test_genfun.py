"""Tests for the closed-form and series generating functions and the moments."""
import cmath
import itertools
import math
import operator

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import SWEEP_CONFIGS, get_closed_form, get_sequence
from opgf import (
    BranchCutError,
    DomainError,
    Family,
    JacobiSzegoSequence,
    NumericalBreakdownError,
    OpgfError,
    ParameterError,
    closed_form,
    eval_monic,
    psi_analytic,
    psi_family_moments,
    psi_series_stack,
)
from opgf import cli, families, genfun, measures, riccati
from reference import (
    closed_f,
    closed_u,
    gauss_rule,
    growth_factors,
    pochhammer_over_factorial,
    psi_closed,
    recurrence_term_count,
    stieltjes_from_quadrature,
)

# lambda = 1 rows of the identity sweep are carried by the free Meixner family
IDENTITY_SWEEP = SWEEP_CONFIGS + ((Family.FREE_MEIXNER, None, 0.0, 0.0),)


def capped_sequence(config, terms):
    """The table of config with terms - 1 coefficients: the series sums at
    most min(SERIES_CAP, table length + 1) = terms terms."""
    return measures.family_sequence(*config, size=terms - 1)


def psi_series(seq, lam, z, x):
    """The series of one configuration: psi_series_stack's stack of one."""
    return psi_series_stack(seq, [lam], z, [x])[0]


def products(factors):
    """The running products 1, f_0, f_0 f_1, ... of factors."""
    return list(itertools.accumulate(factors, operator.mul, initial=1.0))


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
        assert closed_f(cf, 0.1) == pytest.approx(10.15, rel=1e-15)
        assert closed_u(cf, 0.1) == pytest.approx(0.01, rel=1e-12)
        assert cf.alpha1 == 0.0
        assert cf.omega2 == pytest.approx(1.25)

    def test_free_meixner_trivial(self):
        cf = get_closed_form(Family.FREE_MEIXNER, None, 0.0, 0.0)
        assert closed_f(cf, 0.1) == pytest.approx(10.1)
        assert closed_u(cf, 0.1) == pytest.approx(0.1)
        for x in (-1.5, 0.0, 1.0):
            assert psi_analytic(cf, 0.1, x) == pytest.approx(
                1.0 / (1.0 - 0.1 * x + 0.01), rel=1e-14
            )

    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_star_conditions(self, config):
        # z f(z) -> 1 and u(z)/z^lambda -> 1 as z -> 0+ (Richardson at
        # 1e-4, 1e-5, 1e-6; extrapolation tolerance 1e-6).
        cf = get_closed_form(*config)
        for fn in (lambda z: z * closed_f(cf, z), lambda z: closed_u(cf, z) / z**cf.lam):
            values = {z: complex(fn(z)) for z in (1e-4, 1e-5, 1e-6)}
            extrapolated = (1e-5 * values[1e-6] - 1e-6 * values[1e-5]) / (1e-5 - 1e-6)
            assert abs(extrapolated - 1.0) <= 1e-6
            assert abs(values[1e-4] - 1.0) <= 1e-2

    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_g_minus_pole_extends_continuously(self, config):
        cf = get_closed_form(*config)

        def g(z):  # f - Q_1/2, Q_1(z) = (lambda+1) omega_2 z + alpha_1
            return closed_f(cf, z) - 0.5 * (cf.lam + 1.0) * cf.omega2 * z - 0.5 * cf.alpha1

        h5 = complex(g(1e-5) - 1e5)
        h6 = complex(g(1e-6) - 1e6)
        assert abs(h5 - h6) <= 1e-4 * (1.0 + abs(h6))

    def test_sym2_u_reduced_limit(self):
        cf = get_closed_form(Family.SYM2, 1.5, None, None)
        assert closed_u(cf, 1e-6) / (1e-6) ** 1.5 == pytest.approx(1.0, abs=1e-6)

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
        seq = measures.family_sequence(*config, size=3)
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

    @pytest.mark.parametrize("a", [1e150, 1.4e154, 1e160])
    def test_huge_free_meixner_a_gives_a_finite_radius(self, a):
        # c1^2 - 4 c2 overflows past |c1| = 1.34e154 unless the coefficients
        # are scaled first; the nearest zero of 1 + a z + z^2 is -1/a to
        # within 1/a^3
        for sign in (1.0, -1.0):
            radius = closed_form(Family.FREE_MEIXNER, a=sign * a, b=0.0).domain_radius
            assert radius == pytest.approx(0.9 / a, rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(c1=st.floats(-1e150, 1e150), c2=st.floats(-1e150, 1e150))
    def test_nearest_zero_keeps_the_unscaled_bits(self, c1, c2):
        # where the unscaled discriminant stays finite and normal, scaling by
        # powers of two changes no bit
        disc = c1 * c1 - 4.0 * c2
        assume(disc == 0.0 or abs(disc) >= 2.0**-1000)
        assume(c1 == 0.0 or abs(c1) >= 2.0**-500)
        assume(c2 == 0.0 or abs(c2) >= 2.0**-1000)
        q = -0.5 * (c1 + math.copysign(1.0, c1) * cmath.sqrt(disc))
        unscaled = min(abs(q / c2) if c2 else math.inf, 1.0 / abs(q) if q else math.inf)
        assert genfun._nearest_zero(c1, c2) == unscaled


class TestGridClosedForms:
    @pytest.mark.parametrize("fn", [psi_analytic])
    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_grid_matches_pointwise(self, config, fn):
        # one grid call against one scalar call per (z, x) pair
        cf = get_closed_form(*config)
        lo, hi = families.support_interval(*config)
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
        grid = psi_analytic(cf, zs, xs)
        assert psi_analytic(cf, zs[1], xs).tolist() == grid[1].tolist()
        assert psi_analytic(cf, zs, xs[0]).tolist() == grid[:, 0].tolist()

    def test_analytic_is_one_at_zero_in_a_grid(self):
        cf = get_closed_form(Family.NONSYM_PLUS, 0.6, None, None)
        grid = psi_analytic(cf, [0.0, -0.05], [0.0, 1.0])
        assert grid[0].tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("fn", [psi_analytic])
    @pytest.mark.parametrize("zs, xs, named", [
        (0.1, math.nan, "nan"),
        (0.1, math.inf, "inf"),
        # tested before the radius guard at the same point
        (0.9, math.nan, "nan"),
        # the grid's first bad point, z-major, before a later z's radius error
        ([0.1, 0.9], [0.0, -math.inf, math.nan], "-inf"),
    ])
    def test_refuses_a_nonfinite_x_as_psi_series(self, fn, zs, xs, named):
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        with pytest.raises(ParameterError) as excinfo:
            fn(cf, zs, xs)
        assert str(excinfo.value) == f"x must be finite, got {named}"
        with pytest.raises(ParameterError) as series_error:
            psi_series(get_sequence(Family.SYM1, 2.0, None, None), 2.0, 0.1, float(named))
        assert str(series_error.value) == str(excinfo.value)

    @pytest.mark.parametrize("fn, config, zs, xs", [
        # at z = 0.5, 1 - 3z + 1.5 z^2 = -0.125 and 1 - 2.75 z + 1.5 z^2 = 0
        # exactly: the first bad x raises, whichever guard it meets
        (psi_analytic, (Family.SYM1, 2.0, None, None), [0.05, 0.5], [3.0, 2.75]),
        (psi_analytic, (Family.SYM1, 2.0, None, None), [0.05, 0.5], [2.75, 3.0]),
        # 1 + 3z + 1.5 z^2 = -0.125 at z = -0.5: a branch cut on the negative
        # axis, before a radius error
        (psi_analytic, (Family.SYM1, 2.0, None, None), [0.05, -0.5, 0.9], [0.0, -3.0]),
        # psi(0, x) = 1, and the radius error comes first
        (psi_analytic, (Family.FREE_MEIXNER, None, 0.0, 0.0), [0.05, 0.0, 0.95], [0.0]),
        # out of radius before a later z's branch cut
        (psi_analytic, (Family.FREE_MEIXNER, None, 0.0, 0.0), [0.05, 0.95, 0.5],
         [0.0, 3.0]),
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


def mp_psi(cf, z, x) -> complex:
    """N(z) / (1 + (c1 - x) z + c2 z^2)^lambda at 50 digits, on the closed
    form's own (rounded) coefficients and lambda."""
    with mpmath.workdps(50):
        c0, c1, c2, d0, d1, d2, lam, x = (mpmath.mpf(float(v)) for v in (
            *cf.zf_coeffs, *cf.numerator_coeffs, cf.lam, x))
        z = mpmath.mpc(complex(z))
        return complex((d0 + d1 * z + d2 * z * z) / (c0 + (c1 - x) * z + c2 * z * z) ** lam)


class TestPsiAnalytic:
    @pytest.mark.parametrize("lam, z", [(1e4, 1e-9), (1e6, 1e-12), (1e8, 1e-15), (1e14, 1e-24)])
    def test_large_lambda_near_zero_against_mpmath(self, lam, z):
        # log w is taken from d = w - 1, not from the rounded w = 1 + d,
        # whose rounding lambda would multiply: log(w) read 3.8e-10 relative
        # at lambda = 1e8 and 1.4e-3 at 1e14
        cf = closed_form(Family.SYM1, lam)
        hi = families.support_interval(Family.SYM1, lam, None, None)[1]
        exact = mp_psi(cf, z, hi)
        assert abs(psi_analytic(cf, z, hi) - exact) <= 4 * genfun.UNIT_ROUNDOFF * abs(exact)

    @pytest.mark.parametrize("lam, zmax", [(20.0, 0.27), (2.0, 0.73)])
    def test_near_the_domain_edge_no_worse_than_log_w(self, lam, zmax):
        # near the edge |w| is small and |d| >= 1/2, where log(w) is kept:
        # log1p of the same d there read 1.9e-12 relative at lambda = 20
        # (log(w): 1.1e-13) and 2.5e-13 at lambda = 2 (log(w): 2.2e-14)
        cf = closed_form(Family.SYM1, lam)
        zs = np.array([zmax * cmath.exp(1j * k * math.pi / 32) for k in range(32)])
        xs = np.linspace(*families.support_interval(Family.SYM1, lam, None, None), 41)
        exact = np.array([[mp_psi(cf, z, x) for x in xs] for z in zs])
        c0, c1, c2 = cf.zf_coeffs
        w = c0 + (c1 - xs) * zs[:, None] + c2 * zs[:, None] * zs[:, None]
        log_w = cf.numerator(zs)[:, None] / np.exp(lam * np.log(w))
        relative = np.abs(psi_analytic(cf, zs, xs) - exact) / np.abs(exact)
        assert relative.max() <= (np.abs(log_w - exact) / np.abs(exact)).max()

    def test_tends_to_one(self):
        for config in IDENTITY_SWEEP[:8]:
            cf = get_closed_form(*config)
            v5, v6 = psi_analytic(cf, 1e-5, 0.3), psi_analytic(cf, 1e-6, 0.3)
            extrapolated = (1e-5 * v6 - 1e-6 * v5) / (1e-5 - 1e-6)
            assert abs(extrapolated - 1.0) <= 1e-8

    def test_sym1_example(self):
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        assert psi_analytic(cf, 0.1, 0.0) == pytest.approx(
            1.0 / 1.015**2, rel=1e-13
        )

    def test_free_meixner_example(self):
        cf = get_closed_form(Family.FREE_MEIXNER, None, 0.0, 0.0)
        assert psi_analytic(cf, 0.1, 1.0) == pytest.approx(1.0 / 0.91, rel=1e-13)

    def test_outside_domain(self):
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        with pytest.raises(DomainError):
            psi_analytic(cf, 0.9, 0.0)

    def test_branch_cut_reported(self):
        # 1 - 3z + z^2 = -0.25 at z = 0.5: the power's cut, inside the radius
        cf = get_closed_form(Family.FREE_MEIXNER, None, 0.0, 0.0)
        with pytest.raises(BranchCutError) as excinfo:
            psi_analytic(cf, 0.5, 3.0)
        assert excinfo.value.z == pytest.approx(0.5)
        assert excinfo.value.x == pytest.approx(3.0)

    @settings(max_examples=40, deadline=None)
    @given(
        angle=st.floats(0.05, 3.0),
        radius=st.floats(0.01, 0.1),
        xfrac=st.floats(0.05, 0.95),
        config=st.sampled_from(IDENTITY_SWEEP),
    )
    def test_conjugate_symmetry(self, angle, radius, xfrac, config):
        cf = get_closed_form(*config)
        lo, hi = families.support_interval(*config)
        x = lo + xfrac * (hi - lo)
        z = radius * cmath.exp(1j * angle)
        left = psi_analytic(cf, z.conjugate(), x)
        right = psi_analytic(cf, z, x).conjugate()
        assert left == pytest.approx(right, rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_matches_psi_closed_off_axis(self, config):
        # the factorization against the literal product of the oracle
        cf = get_closed_form(*config)
        lo, hi = families.support_interval(*config)
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
        lo, hi = families.support_interval(*config)
        x = lo + xfrac * (hi - lo)
        value = psi_analytic(cf, z, x)
        series = psi_series(get_sequence(*config), cf.lam, z, x)
        assert series.converged
        assert abs(series.value - value) <= 1e-9 * (1.0 + abs(value))


class TestPsiSeries:
    def test_single_term_is_one(self):
        # at z = 0 the series stops after P_0 at every x of the grid
        seq = get_sequence(Family.SYM1, 2.0, None, None)
        series = psi_series(seq, 2.0, 0.0, np.linspace(-1.7, 1.7, 5))
        assert series.n_terms == 1 and np.all(series.value == 1.0 + 0.0j)

    def test_sym1_matches_closed(self):
        seq = capped_sequence((Family.SYM1, 2.0, None, None), 40)
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        result = psi_series(seq, 2.0, 0.1, 0.0)
        assert result.converged
        assert abs(result.value - psi_closed(cf, 0.1, 0.0)) <= 1e-12

    def test_free_meixner_chebyshev_tail(self):
        seq = capped_sequence((Family.FREE_MEIXNER, None, 0.0, 0.0), 60)
        result = psi_series(seq, 1.0, 0.1, 1.0)
        assert result.value.real == pytest.approx(1.0 / 0.91, abs=1e-9)

    def test_nonconvergence_flagged(self):
        seq = capped_sequence((Family.FREE_MEIXNER, None, 0.0, 0.0), 25)
        result = psi_series(seq, 1.0, 0.95, 1.9)
        assert not result.converged

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
        seq = stieltjes_from_quadrature(gauss_rule(config, 100), 40)
        cf = get_closed_form(*config)
        lo, hi = families.support_interval(*config)
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
        lo, hi = families.support_interval(*config)
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

        def counting(seq, n_max, x):
            degrees.append(n_max)
            return eval_monic(seq, n_max, x)

        monkeypatch.setattr(genfun, "eval_monic", counting)
        lo, hi = families.support_interval(*config)
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
        lo, hi = families.support_interval(*config)
        worst = 0.0
        for z in circle_points(0.1, 16):
            for x in np.linspace(lo, hi, 11):
                closed = psi_closed(cf, z, float(x))
                series = psi_series(seq, cf.lam, z, float(x))
                gap = abs(series.value - closed) / (1.0 + abs(closed))
                worst = max(worst, gap)
        assert worst <= 1e-9


def assert_same_series(stacked, single):
    # bit for bit: value, term count, tail bound and convergence flags
    assert np.asarray(stacked.value).tobytes() == np.asarray(single.value).tobytes()
    assert np.shape(stacked.value) == np.shape(single.value)
    assert stacked.n_terms == single.n_terms
    assert stacked.tail_bound == single.tail_bound
    assert np.array_equal(stacked.converged, single.converged)


@st.composite
def documented_configs(draw):
    """A configuration of the documented domain, lambda kept off the
    lambda = 1 redirect."""
    family = draw(st.sampled_from(list(Family)))
    if family is Family.FREE_MEIXNER:
        return family, None, draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    low = 0.05 if family is Family.SYM1 else 0.51
    lam = draw(st.floats(low, 0.95) | st.floats(1.05, 4.0))
    return family, lam, None, None


class TestPsiSeriesStack:
    def test_sweep_stack_matches_one_call_per_configuration(self):
        # the verify sweep's series pass: 23 configurations, 16 z, 11 x each
        zs = circle_points(0.1, 16)
        seqs, lams, rows = [], [], []
        for config in SWEEP_CONFIGS:
            cf = get_closed_form(*config)
            seqs.append(measures.family_sequence(*config, size=genfun.SERIES_CAP))
            lams.append(cf.lam)
            rows.append(np.linspace(*families.support_interval(*config), 11))
        stack = psi_series_stack(JacobiSzegoSequence.stack(seqs), lams, zs, rows)
        assert len(stack) == len(SWEEP_CONFIGS)
        for seq, lam, xs, stacked in zip(seqs, lams, rows, stack):
            assert stacked.converged.all()
            assert_same_series(stacked, psi_series(seq, lam, zs, xs))

    @settings(max_examples=40, deadline=None)
    @given(
        configs=st.lists(documented_configs(), min_size=1, max_size=5),
        radius=st.floats(0.01, 0.3),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        size=st.integers(1, 200),
    )
    def test_mixed_stack_matches_one_call_per_configuration(self, configs, radius,
                                                             fractions, size):
        # tables of size coefficients cap every row at min(200, size + 1) terms
        zs = circle_points(radius, 8)
        seqs = [measures.family_sequence(*c, size=size) for c in configs]
        lams = [get_closed_form(*c).lam for c in configs]
        rows = []
        for family, lam, a, b in configs:
            lo, hi = families.support_interval(family, lam, a, b)
            rows.append([lo + f * (hi - lo) for f in fractions])
        stack = psi_series_stack(JacobiSzegoSequence.stack(seqs), lams, zs, rows)
        for seq, lam, xs, stacked in zip(seqs, lams, rows, stack):
            assert_same_series(stacked, psi_series(seq, lam, zs, xs))

    def test_scalar_rows(self):
        seqs = [get_sequence(*c) for c in SWEEP_CONFIGS[:3]]
        stack = psi_series_stack(JacobiSzegoSequence.stack(seqs), [0.6, 0.75, 1.5], 0.05j,
                                 [0.1, -0.2, 0.3])
        for seq, lam, x, stacked in zip(seqs, [0.6, 0.75, 1.5], [0.1, -0.2, 0.3], stack):
            assert isinstance(stacked.value, complex)
            assert_same_series(stacked, psi_series(seq, lam, 0.05j, x))

    @pytest.mark.parametrize("x, size, message", [
        (math.nan, 200, "x must be finite, got nan"),
        (math.inf, 200, "x must be finite, got inf"),
        ([0.0, -math.inf], 200, "x must be finite, got -inf"),
    ])
    def test_stack_of_one_raises_as_psi_series(self, x, size, message):
        seq = measures.family_sequence(Family.SYM1, 2.0, size=size)
        with pytest.raises(ParameterError) as single:
            psi_series(seq, 2.0, 0.1, x)
        with pytest.raises(ParameterError) as stacked:
            psi_series_stack(seq, [2.0], 0.1, [x])
        assert str(single.value) == str(stacked.value) == message

    def test_tables_of_different_lengths_are_refused(self):
        seqs = [get_sequence(Family.SYM1, 2.0, None, None),
                measures.family_sequence(Family.SYM1, 2.0, size=50)]
        with pytest.raises(ValueError):
            JacobiSzegoSequence.stack(seqs)

    def test_rows_of_x_must_be_the_tables(self):
        seq = get_sequence(Family.SYM1, 2.0, None, None)
        with pytest.raises(ParameterError, match="a table of its own takes one row of x, got 2"):
            psi_series_stack(seq, [2.0, 2.0], 0.1, [[0.0], [0.5]])
        with pytest.raises(ParameterError, match="a stack of 2 tables needs x with one row"):
            psi_series_stack(JacobiSzegoSequence.stack([seq, seq]), [2.0], 0.1, [[0.0]])


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
        lo, hi = families.support_interval(*config)
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
        # prod_{k<n} rho_k >= |P_n(x)| for n <= 200 on the support grid; the
        # slack covers the rounding of the two float computations
        seq = get_sequence(*config)
        xs = np.linspace(*families.support_interval(*config), 11)
        majorant = products(growth_factors(seq, xs.tolist(), 200))
        values = np.abs(eval_monic(seq, 200, xs)).max(axis=1)
        assert np.all(values <= np.array(majorant) * (1.0 + 1e-12))

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
        lo, hi = families.support_interval(*config)
        x = lo + xfrac * (hi - lo)
        series = psi_series(seq, cf.lam, z, x)
        count = series.n_terms
        coeffs = np.fromiter(itertools.islice(pochhammer_over_factorial(cf.lam), count),
                             float, count)
        powers = abs(z) ** np.arange(count)
        magnitudes = coeffs * np.abs(eval_monic(seq, count - 1, x)) * powers
        bound = series.tail_bound + 64 * np.finfo(float).eps * magnitudes.sum()
        assert abs(series.value - psi_analytic(cf, z, x)) <= bound

    @pytest.mark.parametrize("config, xs, r", [
        ((Family.FREE_MEIXNER, None, 0.5, -1.0), [0.25], 0.3),
        # lambda < 1: q_N takes the max(1, ...) factor
        ((Family.SYM1, 0.6, None, None),
         np.linspace(*families.support_interval(Family.SYM1, 0.6, None, None), 11).tolist(), 0.1),
    ], ids=["free_meixner_b_minus_1", "sym1_lambda_0.6"])
    def test_bound_is_the_written_out_product(self, config, xs, r):
        # the terms' majorant b_n = prod_{k<n} ((lambda+k)/(k+1)) rho_k r,
        # its geometric tail b_N / (1 - q_N) and the first N that meets
        # 2^-53 of sum_{n<N} b_n, in Python floats, give the series' count
        # and bound; N - 1 fails the rule
        seq = get_sequence(*config)
        lam = get_closed_form(*config).lam
        series = psi_series(seq, lam, r, xs)
        rho = growth_factors(seq, xs, 201)
        b = products((lam + k) / (k + 1.0) * rho[k] * r for k in range(200))

        def tail(n):
            q = max(1.0, (lam + n) / (n + 1.0)) * rho[n] * r
            return b[n] / (1.0 - q) if q < 1.0 else math.inf

        count = series.n_terms
        assert count < genfun.SERIES_CAP
        assert series.tail_bound == pytest.approx(tail(count), rel=1e-12, abs=0.0)
        assert series.tail_bound <= genfun.UNIT_ROUNDOFF * sum(b[:count])
        assert tail(count - 1) > genfun.UNIT_ROUNDOFF * sum(b[:count - 1])

    def test_stacked_rows_truncate_as_their_own_stack(self):
        # n_terms, tail_bound and value of each row of the sweep stack equal
        # its stack of one
        seqs = [measures.family_sequence(*c, size=genfun.SERIES_CAP) for c in SWEEP_CONFIGS]
        lams = [get_closed_form(*c).lam for c in SWEEP_CONFIGS]
        rows = [np.linspace(*families.support_interval(*c), 11) for c in SWEEP_CONFIGS]
        zs = np.array(circle_points(0.1, 8))
        stack = psi_series_stack(JacobiSzegoSequence.stack(seqs), lams, zs, rows)
        for c, stacked in enumerate(stack):
            assert_same_series(stacked, psi_series(seqs[c], lams[c], zs, rows[c]))

    @pytest.mark.parametrize("lam", [1e-300, 0.6, 2.5, 40.0])
    def test_coefficients_are_the_ratio_recurrence(self, lam):
        # the summation coefficients c_0 .. c_200 of one cumprod equal the
        # products (lambda)_n / n! taken one ratio at a time, bit for bit
        seq = get_sequence(Family.SYM1, 2.0, None, None)
        _, _, coeffs = genfun._truncation(seq, [lam], np.zeros((1, 1)), 0.1)
        expected = list(itertools.islice(pochhammer_over_factorial(lam), 201))
        assert coeffs.shape == (1, 201)
        assert coeffs[0].tolist() == expected

    def test_counts_follow_the_recurrence_majorant(self, tmp_path, monkeypatch):
        # every series row of the sweep at |z| = 0.1 and 0.3 takes the count
        # of the recurrence majorant M_n or one more, and is capped exactly
        # when that rule caps it
        rows = []

        def recording(stack, lams, z, x_rows):
            results = psi_series_stack(stack, lams, z, x_rows)
            seqs = [JacobiSzegoSequence(a, w) for a, w in zip(stack.alphas, stack.omegas)]
            rows.extend(zip(seqs, lams, [float(np.abs(z).max())] * len(seqs),
                            np.reshape(x_rows, (len(seqs), -1)).tolist(), results))
            return results

        monkeypatch.setattr(genfun, "psi_series_stack", recording)
        for zmax in ("0.1", "0.3"):
            assert cli.main(["verify", "--zmax", zmax, "--out", str(tmp_path / "r.json")]) == 0
        assert len(rows) == 2 * 23
        for seq, lam, r, xs, series in rows:
            count, bound = recurrence_term_count(seq, lam, xs, r, genfun.SERIES_CAP)
            assert series.n_terms in (count, count + 1)
            assert math.isinf(series.tail_bound) == math.isinf(bound)

    def test_sums_only_the_chosen_terms(self):
        seq = get_sequence(Family.SYM1, 2.0, None, None)
        assert psi_series(seq, 2.0, 0.0, 1.0) == (1.0 + 0.0j, 0.0, 1, True)
        capped = psi_series(capped_sequence((Family.SYM1, 2.0, None, None), 5), 2.0, 0.1, 1.0)
        assert capped.n_terms == 5 and capped.tail_bound == math.inf
        assert not capped.converged


class TestPsiFamilyMoments:
    def test_m1_quarter_lambda(self):
        for family, lam in ((Family.SYM1, 1.5), (Family.SYM2, 1.5),
                            (Family.NONSYM_PLUS, 1.5)):
            seq = get_sequence(family, lam, None, None)
            cf = get_closed_form(family, lam, None, None)
            _, m1, _ = psi_family_moments(seq, cf, 0.05)
            assert m1 == pytest.approx(0.075, abs=1e-9)

    def test_sym1_lambda2_m2(self):
        seq = get_sequence(Family.SYM1, 2.0, None, None)
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        _, _, m2 = psi_family_moments(seq, cf, 0.1)
        assert m2 == pytest.approx(1.0375, abs=1e-9)

    def test_zero_gives_standardized_moments(self):
        seq = get_sequence(Family.NONSYM_MINUS, 2.0, None, None)
        cf = get_closed_form(Family.NONSYM_MINUS, 2.0, None, None)
        m0, m1, m2 = psi_family_moments(seq, cf, 0.0)
        assert m0 == pytest.approx(1.0, abs=1e-12)
        assert m1 == pytest.approx(0.0, abs=1e-12)
        assert m2 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("config", IDENTITY_SWEEP)
    def test_moment_claim_sweep(self, config):
        seq = get_sequence(*config)
        cf = get_closed_form(*config)
        lam = cf.lam
        for z in (-0.1, -0.05, -0.02, 0.02, 0.05, 0.1):
            m0, m1, m2 = psi_family_moments(seq, cf, z)
            assert abs(m0 - 1.0) <= 1e-10
            assert abs(m1 - lam * z) <= 1e-9
            expected = 0.5 * lam * (lam + 1.0) * cf.omega2 * z * z \
                + lam * cf.alpha1 * z + 1.0
            assert abs(m2 - expected) <= 1e-9

    def test_reads_one_coefficient_table(self, monkeypatch):
        # the support size and the Gauss rule come from the caller's table,
        # of which the rule reads the first MOMENT_ORDER entries
        cf = get_closed_form(Family.SYM2, 1.5, None, None)
        head = measures.family_sequence(Family.SYM2, 1.5, size=genfun.MOMENT_ORDER)
        zs = np.array([-0.05, 0.05])
        expected = psi_family_moments(head, cf, zs)

        def refuse(*args, **kwargs):
            raise AssertionError("psi_family_moments built a coefficient table")

        monkeypatch.setattr(measures, "family_sequence", refuse)
        moments = psi_family_moments(get_sequence(Family.SYM2, 1.5, None, None), cf, zs)
        for got, want in zip(moments, expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("config", IDENTITY_SWEEP[::3])
    def test_array_z_matches_scalar_calls(self, config):
        # the grid form builds one Gauss rule for every z
        seq = get_sequence(*config)
        cf = get_closed_form(*config)
        zs = [-0.1, -0.02, 0.05, 0.1]
        moments = psi_family_moments(seq, cf, np.array(zs))
        for k, z in enumerate(zs):
            assert tuple(m[k] for m in moments) == psi_family_moments(seq, cf, z)

    @pytest.mark.parametrize("a", [0.0, 0.7, -0.4])
    def test_two_point_free_meixner(self, a):
        # b = -1 leaves two support points: the rule shrinks to them and is
        # exact, where an order-24 rule does not exist
        seq = get_sequence(Family.FREE_MEIXNER, None, a, -1.0)
        cf = get_closed_form(Family.FREE_MEIXNER, None, a, -1.0)
        zs = np.array([-0.1, -0.05, 0.05, 0.1])
        m0, m1, m2 = psi_family_moments(seq, cf, zs)
        assert np.abs(m0 - 1.0).max() <= 1e-12
        assert np.abs(m1 - zs).max() <= 1e-12
        assert np.abs(m2 - (cf.omega2 * zs * zs + a * zs + 1.0)).max() <= 1e-12

    def test_z_outside_domain(self):
        seq = get_sequence(Family.SYM1, 2.0, None, None)
        cf = get_closed_form(Family.SYM1, 2.0, None, None)
        with pytest.raises(DomainError):
            psi_family_moments(seq, cf, 0.99)


def stacked_checks(cf, seqs, zmax, xs_rows):
    """The five closed-form checks of a verify campaign, each one call (at
    the campaign's points, where it has any): cf is one closed form with one
    table and one x row, or a stack with a list of each."""
    z_real = np.array([s * zmax for s in (-1.0, -0.5, -0.2, 0.2, 0.5, 1.0)])
    return {
        "psi_analytic": [psi_analytic(cf, circle_points(zmax, 8), xs_rows)],
        "psi_family_moments": list(psi_family_moments(seqs, cf, z_real)),
        "coefficient_residuals": list(riccati.coefficient_residuals(cf)),
    }


def assert_rows_are_own_calls(cfs, seqs, zmax, xs_rows):
    # row c of each stacked check is bit for bit the stack of one of
    # configuration c, and the call with its own closed form
    stacked = stacked_checks(genfun.stack_closed_forms(cfs), JacobiSzegoSequence.stack(seqs),
                             zmax, xs_rows)
    for c, (cf, seq, xs) in enumerate(zip(cfs, seqs, xs_rows)):
        one = stacked_checks(genfun.stack_closed_forms([cf]), JacobiSzegoSequence.stack([seq]),
                             zmax, [xs])
        own = stacked_checks(cf, seq, zmax, xs)
        for name, results in stacked.items():
            for result, of_one, of_own in zip(results, one[name], own[name]):
                assert result.shape[0] == len(cfs) and of_one.shape[0] == 1, name
                assert np.array_equal(result[c], of_one[0]), name
                assert np.array_equal(result[c], of_own), name


class TestStackedClosedForms:
    def test_sweep_rows_are_their_own_calls(self):
        cfs = [get_closed_form(*c) for c in SWEEP_CONFIGS]
        seqs = [measures.family_sequence(*c, size=genfun.SERIES_CAP) for c in SWEEP_CONFIGS]
        rows = [np.linspace(*families.support_interval(*c), 11) for c in SWEEP_CONFIGS]
        assert_rows_are_own_calls(cfs, seqs, 0.1, rows)

    @settings(max_examples=25, deadline=None)
    @given(
        configs=st.lists(documented_configs(), min_size=1, max_size=5),
        share=st.floats(0.02, 0.9),
    )
    def test_mixed_rows_are_their_own_calls(self, configs, share):
        # two-point free Meixner laws have rules of another order, so the
        # moments take configurations whose rules have one order
        cfs = [get_closed_form(*c) for c in configs]
        seqs = [measures.family_sequence(*c, size=genfun.SERIES_CAP) for c in configs]
        orders = {measures._support_points(seq) >= genfun.MOMENT_ORDER for seq in seqs}
        if orders != {True}:
            cfs, seqs, configs = cfs[:1], seqs[:1], configs[:1]
        rows = [np.linspace(*families.support_interval(*c), 5) for c in configs]
        zmax = share * min(cf.domain_radius for cf in cfs)
        assert_rows_are_own_calls(cfs, seqs, zmax, rows)

    def test_fields_are_columns(self):
        cfs = [get_closed_form(*c) for c in SWEEP_CONFIGS[:3]]
        stack = genfun.stack_closed_forms(cfs)
        assert stack.lam.shape == stack.domain_radius.shape == (3, 1)
        assert [c.shape for c in stack.zf_coeffs] == [(3, 1)] * 3
        assert stack.family[:, 0].tolist() == [cf.family for cf in cfs]
        assert stack.numerator(np.array([0.1, 0.05j])).shape == (3, 2)

    @pytest.mark.parametrize("fn", ["psi_analytic", "psi_family_moments"])
    def test_error_is_the_first_failing_configurations(self, fn):
        # z = 0.3 lies inside sym1's radius and outside free Meixner's at
        # a = 4, b = 0 (0.225): the stack raises free Meixner's own error,
        # naming its radius and family, though it is the second configuration
        configs = [(Family.SYM1, 0.6, None, None), (Family.FREE_MEIXNER, None, 4.0, 0.0),
                   (Family.SYM2, 2.5, None, None)]
        cfs = [get_closed_form(*c) for c in configs]
        seqs = [get_sequence(*c) for c in configs]
        z = [0.1, 0.3]
        calls = {
            "psi_analytic": lambda cf, tables, rows: psi_analytic(cf, z, rows),
            "psi_family_moments": lambda cf, tables, rows: psi_family_moments(
                tables, cf, [0.1, 0.3]),
        }
        call = calls[fn]
        assert cfs[0].domain_radius > 0.3 > cfs[1].domain_radius
        call(cfs[0], seqs[0], [0.0])
        with pytest.raises(DomainError) as own:
            call(cfs[1], seqs[1], [0.0])
        with pytest.raises(DomainError) as stacked:
            call(genfun.stack_closed_forms(cfs), JacobiSzegoSequence.stack(seqs), [[0.0]] * 3)
        assert str(stacked.value) == str(own.value)
        assert "free-meixner" in str(own.value)

    def test_refuses_mismatched_tables(self):
        configs = [(Family.SYM1, 2.0, None, None), (Family.FREE_MEIXNER, None, 0.0, -1.0)]
        stack = genfun.stack_closed_forms(get_closed_form(*c) for c in configs)
        seqs = [get_sequence(*c) for c in configs]
        # one Gauss rule order for the stack: the two-point law has no
        # order-24 rule, and the stack raises its error
        with pytest.raises(NumericalBreakdownError,
                           match=r"^omega_2 <= 0: the measure has fewer than 24 support points"):
            psi_family_moments(JacobiSzegoSequence.stack(seqs), stack, 0.05)
        with pytest.raises(ParameterError, match=r"leading shape \(1,\) for closed forms of "
                                                 r"leading shape \(2,\)"):
            psi_family_moments(JacobiSzegoSequence.stack(seqs[:1]), stack, 0.05)
        # a table of its own goes with a closed form of its own only
        with pytest.raises(ParameterError, match=r"leading shape \(\) for closed forms of "
                                                 r"leading shape \(1,\)"):
            psi_family_moments(seqs[0], genfun.stack_closed_forms(
                [get_closed_form(*configs[0])]), 0.05)

