"""Tests for monic polynomial evaluation, norms, and the Stieltjes procedure."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SWEEP_CONFIGS, get_sequence
from opgf import (
    Family,
    JacobiSzegoSequence,
    NumericalBreakdownError,
    ParameterError,
    QuadratureRule,
    eval_monic,
)
from opgf.families import support_interval
from opgf.identities import jacobi_sequence
from reference import (
    gauss_rule,
    gegenbauer_sequence,
    norm_squared,
    standardized,
    stieltjes_from_quadrature,
)


def free_meixner_seq(a, b):
    return get_sequence(Family.FREE_MEIXNER, None, a, b)


class TestEvalMonic:
    def test_semicircle_by_hand(self):
        # alpha = 0, omega_1 = 1: P1(0.5) = 0.5, P2(0.5) = 0.25 - 1
        table = eval_monic(free_meixner_seq(0.0, 0.0), 2, 0.5)
        assert table[1] == pytest.approx(0.5, abs=0)
        assert table[2] == pytest.approx(-0.75, abs=0)

    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_degree_zero_is_one(self, config):
        seq = get_sequence(*config)
        assert eval_monic(seq, 5, 0.37)[0] == 1.0

    def test_sym1_lambda2_p2_at_zero(self):
        # alpha = 0 so P2(0) = -omega_1 = -1
        seq = get_sequence(Family.SYM1, 2.0, None, None)
        assert eval_monic(seq, 2, 0.0)[2] == pytest.approx(-1.0, abs=1e-15)

    def test_rejects_nonfinite_x(self):
        seq = free_meixner_seq(0.0, 0.0)
        with pytest.raises(ParameterError):
            eval_monic(seq, 3, math.nan)
        with pytest.raises(ParameterError):
            eval_monic(seq, 3, math.inf)

    @pytest.mark.parametrize("config", SWEEP_CONFIGS[::4])
    def test_array_equals_stacked_scalar_tables(self, config):
        seq = get_sequence(*config)
        xs = np.linspace(-2.0, 2.0, 7)
        table = eval_monic(seq, 12, xs)
        assert table.shape == (13, 7)
        assert eval_monic(seq, 12, 0.3).shape == (13,)
        stacked = np.stack([eval_monic(seq, 12, float(x)) for x in xs], axis=1)
        assert np.array_equal(table, stacked)

    def test_rejects_negative_n_max(self):
        with pytest.raises(ParameterError):
            eval_monic(free_meixner_seq(0.0, 0.0), -1, 0.0)

    @pytest.mark.parametrize("config", SWEEP_CONFIGS[:8])
    def test_monic_leading_coefficient(self, config):
        # Fit the coefficients of P_n through n+1 samples: leading one is 1.
        seq = get_sequence(*config)
        for n in range(1, 5):
            xs = np.linspace(-1.0, 1.0, n + 1)
            ys = eval_monic(seq, n, xs)[n]
            coeffs = np.polyfit(xs, ys, n)
            assert coeffs[0] == pytest.approx(1.0, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.floats(-2.4, 2.4),
        lam=st.sampled_from([0.6, 1.5, 2.0, 2.5]),
        family=st.sampled_from([Family.SYM1, Family.SYM2, Family.NONSYM_PLUS]),
    )
    def test_matches_coefficient_construction(self, x, lam, family):
        # Independent oracle: build the monic coefficient arrays by the same
        # recurrence in coefficient space, then evaluate with polyval.
        seq = get_sequence(family, lam, None, None)
        n_max = 12
        table = eval_monic(seq, n_max, x)
        prev = np.zeros(1)
        cur = np.ones(1)
        for n in range(n_max):
            shifted = np.concatenate([cur, [0.0]])  # multiply by x
            nxt = shifted.copy()
            nxt[1:] -= seq.alphas[n] * cur
            nxt[2:] -= seq.omegas[n] * prev
            prev, cur = cur, nxt
            value = np.polyval(cur, x)
            # The oracle itself cancels catastrophically when the monomial
            # terms dwarf the value, so scale by its condition number.
            condition = float(np.polyval(np.abs(cur), abs(x)))
            assert abs(table[n + 1] - value) <= 1e-12 * max(1.0, condition)


class TestMonicValues:
    @pytest.mark.parametrize("config", SWEEP_CONFIGS[::4])
    def test_array_matches_scalar_runs(self, config):
        # one recurrence step per degree for all points, same arithmetic
        seq = get_sequence(*config)
        xs = np.linspace(-2.0, 2.0, 7)
        table = eval_monic(seq, 14, xs)
        for j, x in enumerate(xs):
            scalar = eval_monic(seq, 14, float(x))
            assert scalar.shape == (15,)
            assert table[:, j].tobytes() == scalar.tobytes()

    def test_rejects_any_nonfinite_point(self):
        seq = free_meixner_seq(0.0, 0.0)
        with pytest.raises(ParameterError, match=r"got nan$"):
            eval_monic(seq, 3, np.array([0.0, 1.0, math.nan]))
        with pytest.raises(ParameterError, match=r"got -inf$"):
            eval_monic(seq, 3, np.array([0.5, -math.inf, math.nan]))
        with pytest.raises(ParameterError, match=r"got inf$"):
            eval_monic(seq, 3, math.inf)

    def test_stack_rows_equal_their_own_tables(self):
        # the 23 sweep tables in one call: row c is table c's own call
        seqs = [get_sequence(*config) for config in SWEEP_CONFIGS]
        rows = np.array([np.linspace(*support_interval(*config), 11)
                         for config in SWEEP_CONFIGS])
        stacked = eval_monic(JacobiSzegoSequence.stack(seqs), 60, rows)
        assert stacked.shape == (61, len(seqs), 11)
        for c, (seq, xs) in enumerate(zip(seqs, rows)):
            assert np.array_equal(stacked[:, c], eval_monic(seq, 60, xs))

    def test_stack_needs_one_length_and_a_row_per_table(self):
        seqs = [get_sequence(Family.SYM1, 2.0, None, None),
                gegenbauer_sequence(1.5, 50)]
        with pytest.raises(ValueError):
            JacobiSzegoSequence.stack(seqs)
        with pytest.raises(ParameterError, match=r"of one shape \(N,\) or \(C, N\) with N >= 1"):
            JacobiSzegoSequence.stack([])
        with pytest.raises(ParameterError, match="one row per table"):
            eval_monic(JacobiSzegoSequence.stack(seqs[:1]), 3, np.zeros((2, 4)))
        with pytest.raises(ParameterError, match="one row per table"):
            eval_monic(JacobiSzegoSequence.stack(seqs[:1]), 3, np.zeros(4))


class TestNormSquared:
    def test_empty_product(self):
        assert norm_squared(free_meixner_seq(0.0, 0.0), 0) == 1.0

    def test_free_meixner_tail(self):
        # omega = (1, 1, 1.5, 1.5, ...) for b = 0.5: ||P_3||^2 = 1 * 1.5 * 1.5
        seq = free_meixner_seq(0.0, 0.5)
        assert norm_squared(seq, 3) == pytest.approx(2.25)
        # quadrature oracle for the same quantity
        rule = gauss_rule((Family.FREE_MEIXNER, None, 0.0, 0.5), 12)
        values = eval_monic(seq, 3, rule.nodes)[3]
        assert float(rule.weights @ values**2) == pytest.approx(2.25, rel=1e-12)

    def test_sym1_lambda2(self):
        # ||P_2||^2 = omega_1 omega_2 = 1.25; cross-checked by quadrature
        seq = get_sequence(Family.SYM1, 2.0, None, None)
        assert norm_squared(seq, 2) == pytest.approx(1.25)
        rule = gauss_rule((Family.SYM1, 2.0, None, None), 12)
        values = eval_monic(seq, 2, rule.nodes)[2]
        assert float(rule.weights @ values**2) == pytest.approx(1.25, rel=1e-12)


class TestSequenceInvariants:
    def test_omega0_convention_enforced(self):
        with pytest.raises(ParameterError):
            JacobiSzegoSequence([0.0, 0.0], [2.0, 1.0])

    @pytest.mark.parametrize("omega0", [math.nan, math.inf, -math.inf])
    def test_omega0_not_finite_refused(self, omega0):
        # omega_0 = NaN compares False against any tolerance; accepted, it
        # would make every P_n of degree >= 1 NaN
        with pytest.raises(ParameterError, match="omega_0 must be 1"):
            JacobiSzegoSequence([0.0, 0.0, 0.0], [omega0, 1.0, 0.5])
        with pytest.raises(ParameterError, match="omega_0 must be 1"):
            JacobiSzegoSequence([[0.0, 0.0]] * 2, [[1.0, 1.0], [omega0, 1.0]])

    def test_tables_of_one_length(self):
        with pytest.raises(ParameterError):
            JacobiSzegoSequence([0.0, 0.0], [1.0])
        with pytest.raises(ParameterError):
            JacobiSzegoSequence([[[0.0]]], [[[1.0]]])
        with pytest.raises(ParameterError):
            JacobiSzegoSequence([[0.0], [0.0]], [[1.0]])
        with pytest.raises(ParameterError):
            JacobiSzegoSequence(np.zeros((2, 0)), np.ones((2, 0)))
        # a (C, N) pair is a stack of C tables
        assert JacobiSzegoSequence([[0.0]], [[1.0]]).alphas.shape == (1, 1)
        with pytest.raises(ParameterError):
            JacobiSzegoSequence([], [])

    def test_tables_read_only(self):
        alphas = np.array([0.0, 0.5])
        seq = JacobiSzegoSequence(alphas, [1.0, 1.0])
        alphas[1] = 2.0  # the sequence holds its own copy
        assert seq.alphas[1] == 0.5
        with pytest.raises(ValueError):
            seq.omegas[1] = 2.0

    def test_standardized_derived_from_coefficients(self):
        # alpha_0 = 0 and omega_1 = 1 for every catalog sequence, the
        # documented parameter edges included; not for the classical systems
        edges = ((Family.SYM1, 0.5, None, None),
                 (Family.NONSYM_PLUS, 0.51, None, None),
                 (Family.NONSYM_MINUS, 0.51, None, None),
                 (Family.FREE_MEIXNER, None, 0.0, -1.0),
                 (Family.FREE_MEIXNER, None, 0.7, -1.0))
        for config in SWEEP_CONFIGS + edges:
            assert standardized(get_sequence(*config))
        assert not standardized(gegenbauer_sequence(1.5, 10))
        assert not standardized(jacobi_sequence(0.5, -0.5, 10))
        assert not standardized(JacobiSzegoSequence([0.1, 0.0], [1.0, 1.0]))
        assert not standardized(JacobiSzegoSequence([0.0, 0.0], [1.0, 1.1]))
        assert not standardized(JacobiSzegoSequence([0.0], [1.0]))

    def test_end_of_table_raises(self):
        # two coefficient pairs give P_0 .. P_2; a request past them raises
        # instead of returning a shorter result
        seq = JacobiSzegoSequence([0.0, 0.5], [1.0, 1.0])
        assert eval_monic(seq, 2, 0.3).tolist() == [1.0, 0.3, (0.3 - 0.5) * 0.3 - 1.0]
        assert eval_monic(seq, 2, [0.3, 1.0]).shape == (3, 2)
        for x in (0.3, [0.3, 1.0]):
            with pytest.raises(ParameterError, match=r"^2 coefficients give P_0 \.\. P_2 only"):
                eval_monic(seq, 3, x)
        with pytest.raises(ParameterError, match="give P_0 .. P_2 only"):
            eval_monic(JacobiSzegoSequence.stack([seq, seq]), 3, np.zeros((2, 1)))

    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_omega_positive(self, config):
        seq = get_sequence(*config)
        for n in range(1, 21):
            assert seq.omegas[n] > 0.0


class TestStieltjes:
    def test_uniform_alphas_vanish(self):
        # Uniform on [-sqrt(3), sqrt(3)] is sym1 at lambda = 1/2.
        rule = gauss_rule((Family.SYM1, 0.5, None, None), 20)
        seq = stieltjes_from_quadrature(rule, 6)
        for n in range(7):
            assert abs(seq.alphas[n]) <= 1e-10

    def test_sym1_lambda2_omega2(self):
        rule = gauss_rule((Family.SYM1, 2.0, None, None), 20)
        seq = stieltjes_from_quadrature(rule, 6)
        assert seq.omegas[2] == pytest.approx(1.25, abs=1e-10)

    def test_nonsym_plus_lambda2_alpha1(self):
        rule = gauss_rule((Family.NONSYM_PLUS, 2.0, None, None), 20)
        seq = stieltjes_from_quadrature(rule, 6)
        assert seq.alphas[1] == pytest.approx(2.0 / math.sqrt(27.0), abs=1e-10)

    def test_too_few_nodes(self):
        rule = gauss_rule((Family.SYM1, 2.0, None, None), 8)
        with pytest.raises(ParameterError):
            stieltjes_from_quadrature(rule, 4)

    def test_degree_cap(self):
        rule = gauss_rule((Family.SYM1, 2.0, None, None), 30)
        with pytest.raises(ParameterError):
            stieltjes_from_quadrature(rule, 41)

    def test_breakdown_reports_failing_index(self):
        # 11 nodes but only 5 distinct values: P_5 vanishes on every node.
        base = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        nodes = np.concatenate([base, base, base[:1]])
        weights = np.full(nodes.size, 1.0 / nodes.size)
        rule = QuadratureRule(nodes=nodes, weights=weights)
        with pytest.raises(NumericalBreakdownError) as excinfo:
            stieltjes_from_quadrature(rule, 5)
        assert excinfo.value.index == 5

    def test_orthogonality_of_recovered_sequence(self):
        # The recovered coefficients reproduce discretely orthogonal P_n.
        rule = gauss_rule((Family.NONSYM_MINUS, 1.5, None, None), 20)
        seq = stieltjes_from_quadrature(rule, 6)
        tables = eval_monic(seq, 6, rule.nodes).T
        for m in range(7):
            for n in range(m):
                inner = float(np.sum(rule.weights * tables[:, m] * tables[:, n]))
                bound = 1e-9 * math.sqrt(
                    norm_squared(seq, m) * norm_squared(seq, n)
                )
                assert abs(inner) <= bound

    @pytest.mark.parametrize("config", SWEEP_CONFIGS)
    def test_round_trip_matches_catalog(self, config):
        catalog = get_sequence(*config)
        recovered = stieltjes_from_quadrature(gauss_rule(config, 20), 8)
        for n in range(9):
            assert recovered.alphas[n] == pytest.approx(catalog.alphas[n], abs=1e-8)
            assert recovered.omegas[n] == pytest.approx(catalog.omegas[n], abs=1e-8)

    @pytest.mark.parametrize("config", SWEEP_CONFIGS[:10])
    def test_norm_identity_against_quadrature(self, config):
        seq = get_sequence(*config)
        rule = gauss_rule(config, 20)
        for n in range(9):
            values = eval_monic(seq, n, rule.nodes)[n]
            quad_norm = float(np.sum(rule.weights * values * values))
            assert quad_norm == pytest.approx(norm_squared(seq, n), rel=1e-8)
