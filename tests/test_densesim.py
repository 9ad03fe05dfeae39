import math

import numpy as np
import pytest

from mczcut import densesim
from mczcut.circuit import Circuit, Observable, cz, h, mcz, x
from mczcut.cutter import LocalOperation, decompose_mcz
from mczcut.densesim import (StateVector, expval, pair_superop, project, run,
                             superop_of_local_operation, superop_of_unitary)

INV_SQRT2 = 1 / math.sqrt(2)


def random_state(n: int, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(amps / np.linalg.norm(amps), n)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestRun:
    def test_hadamard(self):
        out = run(Circuit(1, (h(0),)))
        assert np.allclose(out.amplitudes, [INV_SQRT2, INV_SQRT2])

    def test_bell_prep(self):
        # frozen by hand multiplication of the four 4x4 gate matrices
        out = run(Circuit(2, (h(0), h(1), cz(0, 1), h(1))))
        assert np.allclose(out.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-12)

    def test_mcz_flips_all_ones_only(self):
        ones = StateVector(np.eye(32, dtype=complex)[31], 5)
        out = run(Circuit(5, (mcz(0, 1, 2, 3, 4),)), ones)
        expected = np.zeros(32)
        expected[31] = -1.0
        assert np.allclose(out.amplitudes, expected)
        # any other basis state is untouched
        e7 = StateVector(np.eye(32, dtype=complex)[7], 5)
        out = run(Circuit(5, (mcz(0, 1, 2, 3, 4),)), e7)
        assert np.allclose(out.amplitudes, np.eye(32)[7])

    def test_qubit0_is_most_significant(self):
        out = run(Circuit(2, (x(0),)))
        assert np.allclose(out.amplitudes, [0, 0, 1, 0])

    def test_output_normalized(self, rng):
        c = Circuit(3, (h(0), h(1), h(2), cz(0, 1), mcz(0, 1, 2)))
        assert abs(run(c).norm() - 1.0) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            run(Circuit(2, (h(0),)), StateVector.zero(3))


def tensordot_single(amps: np.ndarray, n: int, matrix: np.ndarray, q: int) -> np.ndarray:
    """Reference single-qubit kernel: contract the matrix with qubit q's axis."""
    out = np.tensordot(matrix, amps.reshape((2,) * n), axes=([1], [q]))
    return np.moveaxis(out, 0, q).reshape(-1)


class TestSingleQubitKernel:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bit_identical_to_tensordot(self, n):
        rng = np.random.default_rng(n)
        matrices = [densesim.rotation_matrix(kind, float(angle))
                    for kind in ("RX", "RY", "RZ") for angle in rng.uniform(0, 2 * math.pi, size=3)]
        matrices += list(densesim.GATE_MATRICES.values())
        for q in range(n):
            for matrix in matrices:
                amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
                out = densesim._apply_single(amps, n, matrix, q)
                assert np.array_equal(out, tensordot_single(amps, n, matrix, q))


class TestRotationMatrix:
    def test_rz_literal_matches_diagonal_form(self):
        for angle in np.random.default_rng(12).uniform(-4 * math.pi, 4 * math.pi, size=10_000):
            angle = float(angle)
            expected = np.diag([np.exp(-1j * angle / 2), np.exp(1j * angle / 2)])
            assert densesim.rotation_matrix("RZ", angle).tobytes() == expected.tobytes()


class TestExpval:
    def test_all_zeros(self):
        assert expval(StateVector.zero(3), Observable.z_string(3)) == 1.0

    def test_bell_even_parity(self):
        state = StateVector(np.array([INV_SQRT2, 0, 0, INV_SQRT2], dtype=complex), 2)
        assert expval(state, Observable.z_string(2)) == pytest.approx(1.0)

    def test_mixed_parity_cancels(self):
        # (|00> + |01>)/sqrt(2): parities +1 and -1 at weight 1/2 each
        state = StateVector(np.array([INV_SQRT2, INV_SQRT2, 0, 0], dtype=complex), 2)
        assert expval(state, Observable.z_string(2)) == pytest.approx(0.0)


class TestProject:
    def test_plus_onto_one(self):
        state = StateVector(np.array([INV_SQRT2, INV_SQRT2], dtype=complex), 1)
        post, p = project(state, [0], 1)
        assert p == pytest.approx(0.5)
        assert np.allclose(post.amplitudes, [0, 1])

    def test_bell_onto_zero(self):
        state = StateVector(np.array([INV_SQRT2, 0, 0, INV_SQRT2], dtype=complex), 2)
        post, p = project(state, [0], 0)
        assert p == pytest.approx(0.5)
        assert np.allclose(post.amplitudes, [1, 0, 0, 0])

    def test_zero_probability_errors(self):
        with pytest.raises(ValueError, match="zero-probability"):
            project(StateVector.zero(1), [0], 1)


class TestSuperoperators:
    def test_identity(self):
        s = superop_of_unitary(np.eye(2))
        assert np.array_equal(s.matrix, np.eye(4))

    def test_z_channel_diagonal(self):
        s = superop_of_unitary(np.diag([1, -1]).astype(complex))
        assert np.allclose(s.matrix, np.diag([1, -1, -1, 1]))

    def test_cz_channel_frozen(self):
        # conj(CZ) (x) CZ: diagonal signs cz(r)*cz(c), frozen by hand
        s = superop_of_unitary(densesim.mcz_unitary(2))
        expected = np.diag([1, 1, 1, -1, 1, 1, 1, -1, 1, 1, 1, -1, -1, -1, -1, 1])
        assert np.array_equal(s.matrix, expected.astype(complex))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            superop_of_unitary(np.array([[1, 0], [0, 2]], dtype=complex))

    def test_action_matches_conjugation(self, rng):
        for n in (1, 2, 3):
            for _ in range(34):
                u = random_unitary(n, rng)
                rho = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
                rho = rho @ rho.conj().T
                rho /= np.trace(rho)
                out = superop_of_unitary(u).apply_to_density(rho)
                assert np.max(np.abs(out - u @ rho @ u.conj().T)) < 1e-10

    def test_unitary_channel_preserves_trace(self, rng):
        u = random_unitary(2, rng)
        s = superop_of_unitary(u)
        assert s.is_trace_preserving()

    def test_size_limit(self):
        with pytest.raises(ValueError, match="limited"):
            superop_of_unitary(np.eye(2**7))


class TestZLayers:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_per_qubit_negation(self, n):
        # reference: negate the entries whose qubit-q bit is set, one qubit at a time
        idx = np.arange(2**n)
        rows = densesim.zlayer_diagonals(n, range(2**n))
        for mask in range(2**n):
            reference = np.ones(2**n, dtype=complex)
            for q in range(n):
                if (mask >> q) & 1:
                    reference = np.where(idx & (1 << (n - 1 - q)), -reference, reference)
            for d in (densesim.zlayer_diagonal(n, mask), rows[mask]):
                assert np.array_equal(d, reference)
                assert np.array_equal(np.signbit(d.imag), np.signbit(reference.imag))


class TestLocalOperationSuperops:
    def test_zmix_is_full_dephasing(self):
        s = superop_of_local_operation(LocalOperation.zmix(1))
        assert np.allclose(s.matrix, np.diag([1, 0, 0, 1]))

    def test_projector_rank_one(self):
        s = superop_of_local_operation(LocalOperation.projector(1))
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0
        assert np.allclose(s.matrix, expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_projector_rewrite_identity(self, n):
        proj = superop_of_local_operation(LocalOperation.projector(n)).matrix
        zm = superop_of_local_operation(LocalOperation.zmix(n)).matrix
        sp = superop_of_local_operation(LocalOperation.signed_projector(n)).matrix
        assert np.max(np.abs(2 * proj - (zm - sp))) < 1e-12

    def test_projector_completeness_trace_preserving(self):
        # sum_l P_l . P_l is the full dephasing channel, hence trace preserving
        n = 2
        terms = []
        for l in range(4):
            d = np.zeros(4, dtype=complex)
            d[l] = 1.0
            terms.append((1.0, d))
        s = densesim.superop_of_kraus_like(terms, n)
        assert s.is_trace_preserving()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kraus_like_matches_literal_sum(self, n, rng):
        # reference: sum_i w_i kron(conj(diag d_i), diag d_i), one dense term at a time
        def literal(terms):
            total = np.zeros((4**n, 4**n), dtype=complex)
            for weight, diag in terms:
                m = np.diag(diag)
                total += weight * np.kron(m.conj(), m)
            return total

        for count in (1, 3, 6):
            terms = [(float(rng.normal()), rng.normal(size=2**n) + 1j * rng.normal(size=2**n))
                     for _ in range(count)]
            assert np.array_equal(densesim.superop_of_kraus_like(terms, n).matrix, literal(terms))
        for op in (LocalOperation.zmix(n), LocalOperation.signed_projector(n), LocalOperation.mcp(n, math.pi / 2)):
            terms = op.signed_diagonal_terms()
            assert np.array_equal(superop_of_local_operation(op).matrix, literal(terms))


def product_superop(superop_a, superop_b) -> np.ndarray:
    """Reference for one product channel F_A (x) F_B: reshuffle the two matrices' indices."""
    da, db = superop_a.dim, superop_b.dim
    t = np.einsum("aceg,bdfh->abcdefgh", superop_a.matrix.reshape((da,) * 4),
                  superop_b.matrix.reshape((db,) * 4), optimize=True)
    return t.reshape((da * db) ** 2, (da * db) ** 2)


class TestPairSuperop:
    def test_matches_joint_unitary(self, rng):
        ua, ub = random_unitary(1, rng), random_unitary(2, rng)
        sp = pair_superop([(1.0, superop_of_unitary(ua), superop_of_unitary(ub))])
        direct = superop_of_unitary(np.kron(ua, ub))
        assert np.max(np.abs(sp.matrix - direct.matrix)) < 1e-12

    def test_acts_like_tensor_channel(self, rng):
        ua, ub = random_unitary(1, rng), random_unitary(1, rng)
        sp = pair_superop([(1.0, superop_of_unitary(ua), superop_of_unitary(ub))])
        rho_a = np.array([[0.75, 0.1j], [-0.1j, 0.25]])
        rho_b = np.array([[0.5, 0.2], [0.2, 0.5]])
        rho = np.kron(rho_a, rho_b)
        expected = np.kron(ua @ rho_a @ ua.conj().T, ub @ rho_b @ ub.conj().T)
        assert np.max(np.abs(sp.apply_to_density(rho) - expected)) < 1e-12

    @pytest.mark.parametrize("k,m", [(k, order - k) for order in (2, 3, 4) for k in range(1, order)])
    def test_weighted_sum_matches_per_term_loop(self, k, m):
        terms = [(t.coefficient, superop_of_local_operation(t.op_a), superop_of_local_operation(t.op_b))
                 for t in decompose_mcz(k, m).terms]
        reference = np.zeros((4**(k + m), 4**(k + m)), dtype=complex)
        for a, sa, sb in terms:
            reference += a * product_superop(sa, sb)
        assert np.array_equal(pair_superop(terms).matrix, reference)
