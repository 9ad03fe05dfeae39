import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mczcut import zhcalc
from mczcut.zhcalc import (check_choi_block_expansion,
                           check_contraction_identities, check_diag_lemma,
                           check_fusion_rule, check_mcz_representation,
                           choi_block_matrix, diagonal_from_vector, hbox,
                           hbox_vector, minus_vector, phase_state, x_spider,
                           z_spider)

SQRT2 = math.sqrt(2)


class TestTensors:
    def test_hbox_two_legs(self):
        assert np.array_equal(hbox(2).reshape(-1),
                              np.array([1, 1, 1, -1], dtype=complex))

    def test_hbox_one_in_one_out_is_sqrt2_hadamard(self):
        t = hbox(2)
        hadamard = np.array([[1, 1], [1, -1]]) / SQRT2
        assert np.allclose(t, SQRT2 * hadamard)

    def test_zspider_identity(self):
        assert np.array_equal(z_spider(2), np.eye(2, dtype=complex))

    def test_zspider_phase(self):
        t = z_spider(1, 0.7)
        assert np.allclose(t, [1, np.exp(0.7j)])

    def test_xspider_pi_is_pauli_x(self):
        t = x_spider(2, math.pi)
        assert np.allclose(t, np.array([[0, 1], [1, 0]]), atol=1e-15)

    def test_phase_state_component_form(self):
        for theta in (0.0, 0.3, math.pi / 2, math.pi, -math.pi / 2):
            expected = SQRT2 * np.exp(1j * theta / 2) * np.array(
                [math.cos(theta / 2), -1j * math.sin(theta / 2)])
            assert np.allclose(phase_state(theta), expected, atol=1e-14)

    @given(st.sampled_from(["Z", "X", "H"]), st.integers(1, 5),
           st.floats(0, 2 * math.pi, allow_nan=False), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_leg_permutation_symmetry(self, kind, legs, phase, random):
        t = hbox(legs) if kind == "H" else {"Z": z_spider, "X": x_spider}[kind](legs, phase)
        perm = list(range(legs))
        random.shuffle(perm)
        assert np.allclose(t, np.transpose(t, perm))


class TestContract:
    """The copy-spider contraction that turns a vector into a diagonal."""

    def test_through_wire_is_identity(self):
        # one copy spider with the all-ones vector on its copy leg is a plain wire
        assert np.array_equal(diagonal_from_vector(np.ones(2)), np.eye(2, dtype=complex))

    def test_mcz_diagram(self):
        for n in (2, 3, 4):
            target = np.diag(np.concatenate([np.ones(2**n - 1), [-1.0]]))
            assert np.array_equal(diagonal_from_vector(hbox_vector(n)), target.astype(complex))

    def test_size_limit(self):
        with pytest.raises(ValueError, match="limited to 8 qubits"):
            diagonal_from_vector(np.ones(2**9))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_planned_path_matches_per_call_search(self, n, rng):
        # reference: the same copy-spider network, its path searched on every call
        spider = z_spider(3)
        for _ in range(3):
            v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            operands = []
            for q in range(n):
                operands += [spider, [q, n + q, 2 * n + q]]
            operands += [v.reshape((2,) * n), list(range(2 * n, 3 * n))]
            reference = np.einsum(*operands, list(range(n, 2 * n)) + list(range(n)), optimize=True)
            assert np.array_equal(diagonal_from_vector(v), reference.reshape(2**n, 2**n))


class TestFusionRule:
    @pytest.mark.parametrize("m,n", [(1, 1), (3, 2), (0, 1), (2, 0), (5, 5)])
    def test_specific_splits(self, m, n):
        assert check_fusion_rule(m, n) < 1e-12

    def test_all_splits_up_to_ten_legs(self):
        worst = max(check_fusion_rule(m, total - m)
                    for total in range(1, 11) for m in range(total + 1))
        assert worst < 1e-12

    def test_size_limit(self):
        with pytest.raises(ValueError, match="<= 10"):
            check_fusion_rule(6, 5)


class TestContractionIdentities:
    def test_theta_pi_gives_z(self):
        # sqrt(2) diag(1, -1) for a single qubit
        hb = hbox(2).reshape(2, 2)
        contracted = hb @ phase_state(math.pi)
        assert np.allclose(contracted, SQRT2 * np.array([1, -1]), atol=1e-14)
        assert check_contraction_identities(1, math.pi) < 1e-12

    def test_minus_vector_gives_projector(self):
        hb = hbox(3).reshape(4, 2)
        contracted = hb @ minus_vector()
        assert np.allclose(contracted, [0, 0, 0, 2])

    def test_theta_zero_gives_identity(self):
        hb = hbox(2).reshape(2, 2)
        assert np.allclose(hb @ phase_state(0.0), SQRT2 * np.array([1, 1]))

    def test_grid(self):
        for n in (1, 2, 3, 5):
            for j in range(8):
                assert check_contraction_identities(n, 2 * math.pi * j / 8) < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bits_equal_copy_spider_reading(self, n):
        # comparing vectors reads the same bits as comparing the diagonals the
        # copy spiders build from them: their off-diagonal entries are exact zeros
        hb = hbox(n + 1).reshape(2**n, 2)
        proj = np.zeros(2**n, dtype=complex)
        proj[-1] = 1.0
        for j in range(8):
            theta = 2 * math.pi * j / 8
            target = np.ones(2**n, dtype=complex)
            target[-1] = np.exp(1j * theta)
            readings = (zhcalc._max_error_from_diagonal(diagonal_from_vector(hb @ phase_state(theta)), SQRT2 * target),
                        zhcalc._max_error_from_diagonal(diagonal_from_vector(hb @ minus_vector()), 2.0 * proj))
            assert check_contraction_identities(n, theta) == max(readings)


class TestDiagLemma:
    def test_cz_diagonal(self):
        v = np.array([1, 1, 1, -1], dtype=complex)
        assert check_diag_lemma(v) < 1e-12

    def test_all_ones_is_identity(self):
        assert check_diag_lemma(np.ones(8)) < 1e-12

    def test_random_complex(self, rng):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert check_diag_lemma(v) < 1e-12

    def test_size_limit(self):
        with pytest.raises(ValueError, match="limited"):
            check_diag_lemma(np.ones(2**7))


class TestChoiBlock:
    def test_matrix_entries(self):
        q = choi_block_matrix()
        assert q[0, 3] == -1
        expected = np.array([[1, 1, 1, -1], [1, 1, 1, -1], [1, 1, 1, -1], [-1, -1, -1, 1]])
        assert np.array_equal(q, expected.astype(complex))

    def test_expansion_residual(self):
        assert check_choi_block_expansion() < 1e-14


class TestMczRepresentation:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_exact(self, n):
        assert check_mcz_representation(n) == 0.0
