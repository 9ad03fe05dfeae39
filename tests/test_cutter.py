import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mczcut import cutter, densesim
from mczcut.circuit import (Circuit, Gate, Observable, cnot, cz, find_cut, h,
                            mcz, parse, serialize)
from mczcut.cutter import (CutSide, DecompositionTerm, EmbeddedTerm,
                           LocalOperation, branch_table_bytes,
                           channel_multiplier, decompose_ccz,
                           decompose_choi_block, decompose_mcz, embed,
                           exact_cut_expectation, final_state,
                           rewrite_projector, term_tables, verify)
from mczcut.zhcalc import choi_block_matrix
from conftest import LONG_TESTS, oversized_cut_circuit
from test_circuit import circuits


class TestLocalOperation:
    def test_mcp_zero_canonicalizes_to_identity(self):
        op = LocalOperation.mcp(3, 0.0)
        assert op.variant == "zlayer" and op.mask == 0

    def test_mcp_pi_on_one_qubit_is_z(self):
        op = LocalOperation.mcp(1, math.pi)
        assert op.variant == "zlayer" and op.mask == 1

    def test_mcp_pi_on_two_qubits_stays_mcp(self):
        assert LocalOperation.mcp(2, math.pi).variant == "mcp"

    def test_unitary_diagonals_unit_modulus(self):
        for op in (LocalOperation.mcp(2, math.pi / 2), LocalOperation.zlayer(3, 5)):
            [(weight, diagonal)] = op.signed_diagonal_terms()
            assert weight == 1.0 and np.allclose(np.abs(diagonal), 1.0)

    @pytest.mark.parametrize("mask", [7, -1])
    def test_mask_out_of_range_rejected(self, mask):
        with pytest.raises(ValueError, match="out of range"):
            LocalOperation("zlayer", 2, mask=mask)

    def test_zmix_expands_to_equal_weights(self):
        terms = LocalOperation.zmix(3).signed_diagonal_terms()
        assert len(terms) == 8
        assert all(w == pytest.approx(1 / 8) for w, _ in terms)

    def test_signed_projector_single_negative_at_all_ones(self):
        terms = LocalOperation.signed_projector(2).signed_diagonal_terms()
        signs = [w for w, _ in terms]
        assert signs == [1.0, 1.0, 1.0, -1.0]
        assert sum(abs(s) for s in signs) == len(signs)

    def test_xi_bookkeeping(self):
        # projective terms are the basis projectors in outcome order, weighted by xi
        for op, xi in ((LocalOperation.signed_projector(2), [1.0, 1.0, 1.0, -1.0]),
                       (LocalOperation.projector(2), [0.0, 0.0, 0.0, 1.0])):
            weights, diagonals = zip(*op.signed_diagonal_terms())
            assert list(weights) == xi
            assert np.array_equal(np.array(diagonals), np.eye(4))


class TestChoiBlockDecomposition:
    def test_term_count(self):
        assert len(decompose_choi_block().terms) == 8

    def test_exact_reconstruction(self):
        residual = np.abs(decompose_choi_block().reconstruct() - choi_block_matrix())
        assert np.max(residual) == 0.0  # integer arithmetic throughout

    def test_coefficient_norm(self):
        block = decompose_choi_block()
        assert sum(abs(c) for c, _, _ in block.terms) == 4.0
        # channel-level 1-norm before any merging: each phase-pair term scales
        # by 1/4*2*2 and each mixed term by 1/4*2*4, totalling kappa_raw = 6
        raw = sum(abs(0.25 * c * (2 if va.kind == "phase" else 4) * (2 if vb.kind == "phase" else 4))
                  for c, va, vb in block.terms)
        assert raw == 6.0


class TestDecomposeMcz:
    def test_cz_kappa_three(self):
        assert decompose_mcz(1, 1).kappa == 3.0

    def test_ccz_kappa(self):
        assert decompose_mcz(1, 2).kappa == 4.5
        assert decompose_mcz(2, 1).kappa == 4.5

    def test_one_qubit_removed_order_five(self):
        assert decompose_mcz(1, 4).kappa == 5.0

    def test_general_splits_below_six(self):
        for k, m in [(2, 2), (2, 3), (2, 4), (3, 3)]:
            val = decompose_mcz(k, m).kappa
            assert 3.0 <= val < 6.0

    def test_kappa_matches_exhaustive_accounting(self):
        d = decompose_mcz(2, 3)
        exhaustive = float(sum(Fraction(abs(t.coefficient)) for t in d.terms))
        assert d.kappa == exhaustive <= 6.0

    def test_cz_term_count_after_merging(self):
        assert len(decompose_mcz(1, 1).terms) == 6

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            decompose_mcz(0, 2)

    def test_per_order_maxima_approach_six(self):
        maxima = []
        for order in range(2, 7):
            maxima.append(max(decompose_mcz(k, order - k).kappa for k in range(1, order)))
        assert maxima == sorted(maxima)
        assert maxima[0] == 3.0 and maxima[-1] < 6.0 and maxima[-1] > 5.7

    def test_raw_structure_is_split_independent(self):
        # the unmerged twelve-term form has the same variant multiset for every split
        def signature(k, m):
            return sorted((t.op_a.variant, t.op_b.variant) for t in cutter._rewritten_terms(k, m))
        reference = signature(2, 2)
        for k, m in [(2, 3), (3, 3), (2, 4), (3, 2)]:
            assert signature(k, m) == reference
        assert len(reference) == 12

    def test_unitary_terms_are_diagonal_unit_modulus(self):
        # every non-projective operation is a probability mixture of phase diagonals
        for t in decompose_mcz(2, 3).terms:
            for op in (t.op_a, t.op_b):
                if op.variant not in cutter.PROJECTIVE_VARIANTS:
                    weights, diagonals = zip(*op.signed_diagonal_terms())
                    assert min(weights) > 0 and sum(weights) == pytest.approx(1.0)
                    assert np.allclose(np.abs(np.array(diagonals)), 1.0)

    @given(st.integers(1, 15), st.integers(1, 15))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_kappa(self, k, m):
        lo, hi = sorted((k, m))
        if lo == 1:
            expected = {1: 3.0, 2: 4.5}.get(hi, 5.0)
        elif lo == 2:
            expected = 5.5 if hi == 2 else 5.75
        else:
            expected = 6.0 - 2.0**-k - 2.0**-m
        assert decompose_mcz(k, m).kappa == expected

    def test_coefficients_are_exact_dyadics(self):
        for k, m in [(1, 1), (1, 2), (2, 3), (3, 3)]:
            for t in decompose_mcz(k, m).terms:
                frac = Fraction(t.coefficient).limit_denominator(64)
                assert float(frac) == t.coefficient


class TestCcz:
    def test_kappa(self):
        assert decompose_ccz().kappa == 4.5

    def test_oracle(self):
        report = verify(decompose_ccz())
        assert report.passed and report.residual < 1e-10

    def test_matches_generic_generator(self):
        a, b = decompose_ccz(), decompose_mcz(1, 2)
        assert a.terms == b.terms


class TestRewriteProjector:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matrix_identity(self, n):
        assert rewrite_projector(n) < 1e-12

    def test_on_plus_state(self):
        # 2 P rho P vs Zmix(rho) - SP(rho) on rho = |+++><+++|
        n = 3
        plus = np.full(2**n, 2.0**(-n / 2))
        rho = np.outer(plus, plus).astype(complex)
        proj = densesim.superop_of_local_operation(LocalOperation.projector(n))
        zm = densesim.superop_of_local_operation(LocalOperation.zmix(n))
        sp = densesim.superop_of_local_operation(LocalOperation.signed_projector(n))
        lhs = 2 * proj.apply_to_density(rho)
        rhs = zm.apply_to_density(rho) - sp.apply_to_density(rho)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_size_limit(self):
        with pytest.raises(ValueError, match="n <= 5"):
            rewrite_projector(6)


def flip_first_coefficient(d):
    t = d.terms[0]
    d.terms[0] = DecompositionTerm(-t.coefficient, t.op_a, t.op_b)
    return d


class TestChannelMultiplier:
    @pytest.mark.parametrize("op", [LocalOperation.mcp(2, math.pi / 2), LocalOperation.zlayer(3, 5),
                                    LocalOperation.zmix(2), LocalOperation.zmix_rest(3),
                                    LocalOperation.signed_projector(2), LocalOperation.projector(3)],
                             ids=lambda op: f"{op.variant}{op.num_qubits}")
    def test_schur_product_matches_dense_superoperator(self, op):
        rng = np.random.default_rng(op.num_qubits)
        d = 2**op.num_qubits
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        dense = densesim.superop_of_local_operation(op).apply_to_density(rho)
        assert np.max(np.abs(channel_multiplier(op) * rho - dense)) < 1e-14

    def test_zmix_is_identity_and_unitary_is_rank_one(self):
        assert np.max(np.abs(channel_multiplier(LocalOperation.zmix(4)) - np.eye(16))) < 1e-15
        diag = densesim.mcp_diagonal(3, math.pi / 2)
        expected = np.outer(diag, diag.conj())
        assert np.max(np.abs(channel_multiplier(LocalOperation.mcp(3, math.pi / 2)) - expected)) == 0.0


class TestVerify:
    @pytest.mark.parametrize("k,m", [(1, 1), (1, 2), (2, 2), (3, 2)])
    def test_oracle_passes(self, k, m):
        d = decompose_mcz(k, m)
        report = verify(d)
        assert report.passed
        assert report.residual < 1e-10
        assert report.hbox_form_residual < 1e-10
        assert d.verified

    def test_corrupted_coefficient_fails_loudly(self):
        d = decompose_mcz(1, 1)
        t = d.terms[0]
        d.terms[0] = DecompositionTerm(-t.coefficient, t.op_a, t.op_b)
        report = verify(d)
        assert not report.passed
        assert report.residual > 0.1

    def test_sum_is_trace_preserving(self):
        d = decompose_mcz(2, 1)
        total = densesim.pair_superop([(t.coefficient, densesim.superop_of_local_operation(t.op_a),
                                        densesim.superop_of_local_operation(t.op_b)) for t in d.terms])
        assert total.is_trace_preserving()

    def test_size_limit(self):
        with pytest.raises(ValueError, match="oracle limited"):
            verify(decompose_mcz(5, 6))

    @pytest.mark.parametrize("k,m", [(k, order - k) for order in range(2, 5) for k in range(1, order)])
    def test_diagonal_and_dense_residuals_agree(self, k, m):
        report = verify(decompose_mcz(k, m))
        assert report.passed and report.dense_residual is not None
        assert abs(report.residual - report.dense_residual) < 1e-12

    @pytest.mark.parametrize("k,m", [(1, 1), (2, 2), (1, 3)])
    def test_corrupted_coefficient_fails_both_paths(self, k, m):
        report = verify(flip_first_coefficient(decompose_mcz(k, m)))
        assert report.residual > 0.1 and report.dense_residual > 0.1
        assert abs(report.residual - report.dense_residual) < 1e-12
        assert not report.passed

    def test_dense_cross_check_only_at_small_orders(self):
        assert verify(decompose_mcz(2, 3)).dense_residual is None

    @pytest.mark.parametrize("k,m", [(1, 6), (3, 4), (1, 7), (4, 4), (1, 9), (5, 5)])
    def test_passes_beyond_dense_range(self, k, m):
        d = decompose_mcz(k, m)
        report = verify(d)
        assert report.passed and d.verified
        assert report.residual < 1e-10 and report.hbox_form_residual < 1e-10

    def test_corruption_detected_beyond_dense_range(self):
        report = verify(flip_first_coefficient(decompose_mcz(3, 4)))
        assert not report.passed and report.residual > 0.1

    def test_order_ten_holds_two_order_sized_arrays(self):
        # each 1024 x 1024 complex array takes 16.8 MB; a third, such as a
        # whole u u^H target, would pass 50 MB
        tracemalloc.start()
        try:
            assert verify(decompose_mcz(5, 5)).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


def every_operation(n: int) -> list[LocalOperation]:
    """Every variant on n qubits: mcp at three angles, each Z-layer, the
    mixtures and both projective maps."""
    ops = [LocalOperation("mcp", n, theta=theta) for theta in (math.pi / 3, -math.pi / 2, math.pi)]
    ops += [LocalOperation.zlayer(n, mask) for mask in range(2**n)]
    return ops + [LocalOperation.zmix(n), LocalOperation.zmix_rest(n),
                  LocalOperation.signed_projector(n), LocalOperation.projector(n)]


def operation_id(op: LocalOperation) -> str:
    detail = op.theta if op.theta is not None else op.mask
    return f"{op.variant}{op.num_qubits}" + ("" if detail is None else f"-{detail:.4g}")


class TestBranchesRealiseCertifiedChannel:
    @pytest.mark.parametrize("op", [op for n in (1, 2, 3) for op in every_operation(n)], ids=operation_id)
    def test_branch_sum_equals_channel(self, op, rng):
        # The operation acts on qubits 1..n of an (n+1)-qubit side; qubit 0 is
        # entangled with them but outside the operation, so Lambda (x) on the
        # whole side is kron(ones, Lambda) with qubit 0 as most significant bit.
        width = op.num_qubits + 1
        pre = [Gate("RY", (q,), float(rng.uniform(0, 2 * math.pi))) for q in range(width)]
        pre += [cnot(q, q + 1) for q in range(width - 1)]
        pre += [Gate("RX", (q,), float(rng.uniform(0, 2 * math.pi))) for q in range(width)]
        post = [Gate(("RX", "RY")[rng.integers(2)], (q,), float(rng.uniform(0, 2 * math.pi)))
                for q in range(width)]
        side = CutSide(width, tuple(pre), tuple(range(1, width)), tuple(post), tuple(range(width)))
        ones = np.ones(2**width)
        [(table, _)] = term_tables([EmbeddedTerm(1.0, op, op, side, side)], ones, ones)
        sampled = sum(p * sign * dist for p, sign, dist in zip(table.probs, table.signs, table.dists))

        psi = densesim.run(Circuit(width, tuple(pre))).amplitudes
        rho = np.outer(psi, psi.conj())
        multiplier = np.kron(np.ones((2, 2)), channel_multiplier(op))
        u = functools.reduce(np.kron, [densesim.rotation_matrix(g.kind, g.angle) for g in post])
        expected = np.real(np.diag(u @ (multiplier * rho) @ u.conj().T))
        assert np.max(np.abs(sampled - expected)) < 1e-12


def bell_prep() -> Circuit:
    return Circuit(2, (h(0), h(1), cz(0, 1), h(1)), ("A", "B"))


class TestEmbed:
    def test_bell_reconstruction(self):
        circuit = bell_prep()
        cut = find_cut(circuit)
        d = decompose_mcz(1, 1)
        terms = embed(d, cut)
        assert len(terms) == 6
        obs = Observable.z_string(2)
        va, vb = obs.factor((0,), (1,))
        assert exact_cut_expectation(terms, va.values, vb.values) == pytest.approx(1.0, abs=1e-12)

    def test_coefficient_norm_matches_kappa(self):
        d = decompose_mcz(1, 1)
        terms = embed(d, find_cut(bell_prep()))
        assert sum(abs(t.coefficient) for t in terms) == pytest.approx(d.kappa)

    def test_projective_terms_carry_directive(self):
        d = decompose_mcz(1, 1)
        terms = embed(d, find_cut(bell_prep()))
        sp_terms = [t for t in terms if t.op_a.variant == "signed_projector"]
        assert sp_terms
        assert all(t.side_a.op_qubits == (0,) for t in sp_terms)

    def test_mixture_not_expanded_into_circuits(self):
        # a (1,3) cut keeps the B-side mixture as one directive
        c = Circuit(4, (mcz(0, 1, 2, 3),), ("A", "B", "B", "B"))
        d = decompose_mcz(1, 3)
        terms = embed(d, find_cut(c))
        assert any(t.op_b.variant == "zmix" for t in terms)

    def test_mismatched_order_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            embed(decompose_mcz(1, 2), find_cut(bell_prep()))

    @pytest.mark.parametrize("labels", ["AAB", "BAB", "ABBA"])
    def test_plans_equal_per_term_side_plans(self, labels):
        n = len(labels)
        gates = [h(q) for q in range(n)] + [cnot(0, n - 1) if labels[0] == labels[-1] else h(0)]
        gates += [mcz(*range(n))] + [Gate("RX", (q,), 0.3 * (q + 1)) for q in range(n)]
        cut = find_cut(Circuit(n, tuple(gates), tuple(labels)))
        d = decompose_mcz(cut.k, cut.m)
        terms = embed(d, cut)
        fields = ("num_qubits", "pre_gates", "op_qubits", "post_gates", "source_qubits")
        for term, dt in zip(terms, d.terms):
            assert (term.coefficient, term.op_a, term.op_b) == (dt.coefficient, dt.op_a, dt.op_b)
            for name, label in (("side_a", "A"), ("side_b", "B")):
                side, own = getattr(term, name), cutter._cut_side(cut, label)
                assert [getattr(side, f) for f in fields] == [getattr(own, f) for f in fields]
                # the gates are remapped once per side: every term shares the side
                assert side is getattr(terms[0], name)

    def test_gates_split_around_cut(self):
        circuit = bell_prep()
        terms = embed(decompose_mcz(1, 1), find_cut(circuit))
        side_b = terms[0].side_b
        assert len(side_b.pre_gates) == 1 and side_b.pre_gates[0].kind == "H"
        assert len(side_b.post_gates) == 1 and side_b.post_gates[0].kind == "H"


class TestPrepare:
    def test_oversized_tables_refused_before_any_simulation_or_certificate(self, monkeypatch):
        cut = find_cut(oversized_cut_circuit())

        def refused(*args, **kwargs):
            raise AssertionError("simulated or certified before the table check")

        monkeypatch.setattr(cutter, "verify", refused)
        for name in ("run", "project", "apply_diagonal"):
            monkeypatch.setattr(densesim, name, refused)
        with pytest.raises(ValueError) as info:
            cutter.prepare(cut, decompose_mcz(cut.k, cut.m))
        assert str(info.value).splitlines() == [
            "the branch tables of the (9,1) cut would hold 4.0 GiB, above the 2 GiB limit"]

    def test_order_above_ceiling_refused_before_embedding(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("embedded above the certified order")

        monkeypatch.setattr(cutter, "embed", refused)
        cut = find_cut(interleaved_cut_circuit(5, 6, seed=1))
        with pytest.raises(ValueError, match="order 11 exceeds the certified order 10"):
            cutter.prepare(cut, decompose_mcz(5, 6))

    def test_failed_certificate_refused(self, corrupted_decompositions):
        cut = find_cut(interleaved_cut_circuit(1, 2, seed=2))
        with pytest.raises(ValueError, match=r"^decomposition \(1,2\) failed certification: residual "):
            cutter.prepare(cut, cutter.decompose_mcz(1, 2))

    def test_shared_decomposition_certified_once(self, prepare_calls):
        d = decompose_mcz(2, 3)
        for seed in (3, 4):
            cutter.prepare(find_cut(interleaved_cut_circuit(2, 3, seed)), d)
        assert d.verified and prepare_calls == {"prepare": 2, "verify": 1}

    @pytest.mark.parametrize("k,m", [(1, 1), (1, 2), (2, 3), (3, 2)])
    def test_tables_reconstruct_the_exact_value(self, k, m):
        # each side holds one qubit outside the MCZ: qubit 0 on A, the last on B
        n = k + m + 2
        gates = [Gate("RY", (q,), 0.4 + 0.2 * q) for q in range(n)] + [cnot(0, 1), cnot(n - 1, n - 2)]
        gates += [mcz(*range(1, n - 1))] + [Gate("RX", (q,), 0.3 + 0.1 * q) for q in range(n)]
        cut = find_cut(Circuit(n, tuple(gates), ("A",) * (k + 1) + ("B",) * (m + 1)))
        prepared = cutter.prepare(cut, decompose_mcz(k, m))
        assert [(t.coefficient, t.op_a, t.op_b) for t in prepared.terms] == [
            (t.coefficient, t.op_a, t.op_b) for t in decompose_mcz(k, m).terms]
        # each side's values are the Z-string parities of the whole side
        assert [len(prepared.values_a), len(prepared.values_b)] == [2 ** (k + 1), 2 ** (m + 1)]
        reconstructed = sum(t.coefficient * a.mean() * b.mean() for t, (a, b) in zip(prepared.terms, prepared.tables))
        exact = densesim.expval(final_state(cut), Observable.z_string(n))
        assert abs(reconstructed - exact) < 1e-12


class TestExportDocument:
    def test_fields(self):
        doc = decompose_mcz(1, 2).to_document()
        assert doc["order"] == 3 and doc["k"] == 1 and doc["m"] == 2
        assert doc["kappa"] == 4.5
        assert all({"coefficient", "opA", "opB"} <= set(t) for t in doc["terms"])

    def test_stable_across_runs(self):
        import json
        a = json.dumps(decompose_mcz(2, 3).to_document(), sort_keys=True)
        b = json.dumps(decompose_mcz(2, 3).to_document(), sort_keys=True)
        assert a == b


def interleaved_cut_circuit(k: int, m: int, seed: int) -> Circuit:
    """Rotations and side-local CNOT chains around one MCZ over all k + m
    qubits (a CZ at order 2), with the A and B qubits interleaved."""
    n = k + m
    rng = np.random.default_rng(seed)
    labels = ["A"] * k + ["B"] * m
    rng.shuffle(labels)
    sides = [[q for q in range(n) if labels[q] == label] for label in "AB"]

    def layer(kind):
        gates = [Gate(kind, (q,), float(rng.uniform(0.3, 2.8))) for q in range(n)]
        return gates + [cnot(side[i], side[i + 1]) for side in sides for i in range(len(side) - 1)]

    cut_gate = Gate("CZ" if n == 2 else "MCZ", tuple(range(n)))
    return Circuit(n, tuple(layer("RY") + [cut_gate] + layer("RX")), tuple(labels))


@st.composite
def cut_documents(draw):
    """A circuit document from ``circuits()`` cut by one MCZ or CZ: the gates
    that cross a drawn partition are dropped and the cut gate is inserted at a
    drawn position, on a drawn qubit set that touches both sides."""
    circuit = draw(circuits())
    n = circuit.num_qubits
    labels = draw(st.lists(st.sampled_from(["A", "B"]), min_size=n, max_size=n)
                  .filter(lambda ls: "A" in ls and "B" in ls))
    gates = [g for g in circuit.gates if len({labels[q] for q in g.qubits}) == 1]
    a = draw(st.sampled_from([q for q in range(n) if labels[q] == "A"]))
    b = draw(st.sampled_from([q for q in range(n) if labels[q] == "B"]))
    rest = [q for q in range(n) if q not in (a, b)]
    extra = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    qubits = draw(st.permutations([a, b] + extra))
    kind = "CZ" if len(qubits) == 2 and draw(st.booleans()) else "MCZ"
    gates.insert(draw(st.integers(0, len(gates))), Gate(kind, tuple(qubits)))
    return parse(serialize(Circuit(n, tuple(gates), tuple(labels))))


class TestFinalState:
    @pytest.mark.parametrize("k,m", [
        pytest.param(k, order - k, marks=[LONG_TESTS] if order > 10 else [])
        for order in range(2, 13) for k in range(1, order)])
    def test_cut_reconstruction_matches_rank_two_value(self, k, m):
        circuit = interleaved_cut_circuit(k, m, seed=16 * k + m)
        cut = find_cut(circuit)
        observable = Observable.z_string(k + m)
        values_a, values_b = observable.factor(circuit.qubits_in("A"), circuit.qubits_in("B"))
        reconstructed = exact_cut_expectation(embed(decompose_mcz(k, m), cut), values_a.values, values_b.values)
        assert abs(reconstructed - densesim.expval(final_state(cut), observable)) < 1e-12

    @given(cut_documents())
    @settings(max_examples=80, deadline=None)
    def test_amplitudes_match_full_register_run(self, circuit):
        cut = find_cut(circuit)
        expected = densesim.run(circuit).amplitudes
        assert np.max(np.abs(final_state(cut).amplitudes - expected)) < 1e-12

    # RY(2e-8) leaves qubit 0 in |1> with probability 1e-16, below the 1e-14
    # at which densesim.project refuses an outcome; RY(0) with probability 0.
    # A run that skipped that outcome would miss 1e-8 in amplitude.
    @staticmethod
    def negligible_all_ones_circuit(angle):
        assert math.sin(angle / 2) ** 2 < 1e-14
        gates = (Gate("RY", (0,), angle), h(1), h(2), Gate("MCZ", (0, 1, 2)), h(0), h(1), cnot(2, 1))
        return Circuit(3, gates, ("A", "B", "B"))

    @pytest.mark.parametrize("angle", [2e-8, 0.0])
    def test_side_with_negligible_all_ones_probability(self, angle):
        circuit = self.negligible_all_ones_circuit(angle)
        expected = densesim.run(circuit).amplitudes
        assert np.max(np.abs(final_state(find_cut(circuit)).amplitudes - expected)) < 1e-12

    @pytest.mark.parametrize("angle", [2e-8, 0.0])
    def test_skipped_projective_outcome(self, angle):
        # the A side's projective terms skip outcome 1: the reconstruction
        # stays exact, and the byte count still covers every held table
        circuit = self.negligible_all_ones_circuit(angle)
        terms = embed(decompose_mcz(1, 2), find_cut(circuit))
        observable = Observable.z_string(3)
        va, vb = observable.factor(circuit.qubits_in("A"), circuit.qubits_in("B"))
        reconstructed = exact_cut_expectation(terms, va.values, vb.values)
        assert abs(reconstructed - densesim.expval(densesim.run(circuit), observable)) < 1e-12
        tables = term_tables(terms, va.values, vb.values)
        held = {id(d): d.nbytes for pair in tables for table in pair for d in table.dists}
        assert branch_table_bytes(terms) > sum(held.values())
