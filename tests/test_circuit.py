import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mczcut.circuit import (Circuit, Gate, Observable, cnot, cz, find_cut, h,
                            mcp, mcz, parse, rx, serialize, z)


def bell_prep() -> Circuit:
    return Circuit(2, (h(0), h(1), cz(0, 1), h(1)), ("A", "B"))


class TestGate:
    def test_duplicate_qubit_rejected(self):
        with pytest.raises(ValueError, match="duplicate qubit"):
            cnot(0, 0)

    def test_single_qubit_arity(self):
        with pytest.raises(ValueError):
            Gate("H", (0, 1))

    def test_mcz_needs_two_qubits(self):
        with pytest.raises(ValueError):
            Gate("MCZ", (0,))

    def test_mcz_takes_no_angle(self):
        with pytest.raises(ValueError, match="no angle"):
            Gate("MCZ", (0, 1), 1.0)

    def test_mcp_requires_angle(self):
        with pytest.raises(ValueError, match="angle"):
            Gate("MCP", (0, 1))

    def test_mcp_angle_range(self):
        with pytest.raises(ValueError, match="angle"):
            mcp(4.0, 0, 1)
        assert mcp(math.pi, 0, 1).angle == math.pi

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate("XYZ", (0,))


    @pytest.mark.parametrize("qubit", [1.5, "1", True, -1], ids=["float", "string", "bool", "negative"])
    def test_qubit_type_rejected(self, qubit):
        with pytest.raises(ValueError, match="'qubits'"):
            Gate("H", (qubit,))

    @pytest.mark.parametrize("angle", ["1.5", True, math.nan, math.inf, -math.inf],
                             ids=["string", "bool", "nan", "inf", "-inf"])
    def test_angle_type_rejected(self, angle):
        with pytest.raises(ValueError, match="angle"):
            Gate("RX", (0,), angle)

    def test_numpy_scalars_stored_as_python_numbers(self):
        for angle in (np.float64(0.5), np.float32(0.5)):
            gate = Gate("MCP", (np.int64(0), np.int64(2)), angle)
            assert gate == Gate("MCP", (0, 2), 0.5)
            assert all(type(q) is int for q in gate.qubits) and type(gate.angle) is float


class TestValidate:
    def test_valid_partitioned_circuit(self):
        bell_prep()

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Circuit(2, (h(5),))

    def test_partition_not_covering(self):
        with pytest.raises(ValueError, match="not covering"):
            Circuit(2, (h(0),), ("A",))

    def test_partition_needs_both_labels(self):
        with pytest.raises(ValueError, match="each of A and B"):
            Circuit(2, (), ("A", "A"))

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown partition label"):
            Circuit(2, (), ("A", "C"))

    @pytest.mark.parametrize("num_qubits", [2.0, True, 0, "2"], ids=["float", "bool", "zero", "string"])
    def test_num_qubits_type_rejected(self, num_qubits):
        with pytest.raises(ValueError, match="'num_qubits'"):
            Circuit(num_qubits)

    def test_string_partition_rejected(self):
        with pytest.raises(ValueError, match="'partition'"):
            Circuit(2, (), "AB")


class TestFindCut:
    def test_five_qubit_split(self):
        c = Circuit(5, (mcz(0, 1, 2, 3, 4),), ("A", "A", "A", "B", "B"))
        cut = find_cut(c)
        assert (cut.k, cut.m) == (3, 2)
        assert cut.cut_gate_index == 0

    def test_cz_counts_as_order_two_mcz(self):
        cut = find_cut(Circuit(2, (cz(0, 1),), ("A", "B")))
        assert (cut.k, cut.m) == (1, 1)

    def test_two_crossing_gates_rejected(self):
        c = Circuit(2, (cz(0, 1), cz(0, 1)), ("A", "B"))
        with pytest.raises(ValueError, match="more than one"):
            find_cut(c)

    def test_no_crossing_gate(self):
        with pytest.raises(ValueError, match="no cross-partition"):
            find_cut(Circuit(2, (h(0), h(1)), ("A", "B")))

    def test_non_mcz_crossing_rejected(self):
        with pytest.raises(ValueError, match="not an MCZ"):
            find_cut(Circuit(2, (cnot(0, 1),), ("A", "B")))

    def test_requires_partition(self):
        with pytest.raises(ValueError, match="no partition"):
            find_cut(Circuit(2, (cz(0, 1),)))

    @given(st.permutations(list(range(5))))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_qubit_permutation(self, perm):
        c = Circuit(5, (Gate("MCZ", tuple(perm)),), ("A", "A", "B", "B", "B"))
        cut = find_cut(c)
        assert (cut.k, cut.m) == (2, 3)


# hypothesis strategy for valid circuits
@st.composite
def circuits(draw):
    n = draw(st.integers(2, 5))
    n_gates = draw(st.integers(0, 8))
    gates = []
    for _ in range(n_gates):
        kind = draw(st.sampled_from(["H", "X", "S", "SDG", "Z", "RX", "RY", "RZ", "CNOT", "CZ", "MCZ", "MCP"]))
        if kind in ("CNOT", "CZ"):
            qs = draw(st.permutations(list(range(n))).map(lambda p: tuple(p[:2])))
            gates.append(Gate(kind, qs))
        elif kind in ("MCZ", "MCP"):
            size = draw(st.integers(2, n))
            qs = draw(st.permutations(list(range(n))).map(lambda p: tuple(p[:size])))
            angle = draw(st.floats(-3.1, math.pi, allow_nan=False)) if kind == "MCP" else None
            gates.append(Gate(kind, qs, angle))
        elif kind in ("RX", "RY", "RZ"):
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),),
                              draw(st.floats(0, 2 * math.pi, allow_nan=False))))
        else:
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),)))
    if draw(st.booleans()):
        labels = draw(st.lists(st.sampled_from(["A", "B"]), min_size=n, max_size=n)
                      .filter(lambda ls: "A" in ls and "B" in ls))
        return Circuit(n, tuple(gates), tuple(labels))
    return Circuit(n, tuple(gates))


class TestSerialization:
    @given(circuits())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, circuit):
        assert parse(serialize(circuit)) == circuit

    def test_ccz_round_trip(self):
        c = Circuit(3, (h(0), rx(1, 0.25), mcz(0, 1, 2), z(2)), ("A", "B", "B"))
        assert parse(serialize(c)) == c

    def test_unknown_kind_rejected(self):
        text = '{"version": 1, "num_qubits": 1, "gates": [{"kind": "XYZ", "qubits": [0]}]}'
        with pytest.raises(ValueError, match="unknown gate kind"):
            parse(text)

    def test_mcp_without_angle_rejected(self):
        text = '{"version": 1, "num_qubits": 2, "gates": [{"kind": "MCP", "qubits": [0, 1]}]}'
        with pytest.raises(ValueError, match="angle"):
            parse(text)

    def test_version_mismatch(self):
        with pytest.raises(ValueError, match="version"):
            parse('{"version": 2, "num_qubits": 1, "gates": []}')

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            parse('{"version": 1, "num_qubits": 1, "gates": [], "extra": 1}')

    def test_malformed_document(self):
        with pytest.raises(ValueError, match="malformed"):
            parse("not json at all {")

    @pytest.mark.parametrize("fields,gate,message", [
        ({"version": True}, {}, "version"),
        ({"version": 1.0}, {}, "version"),
        ({"num_qubits": True}, {}, "num_qubits"),
        ({"num_qubits": 1.0}, {}, "num_qubits"),
        ({"gates": {}}, None, "gates"),
        ({"partition": "A"}, {}, "partition"),
        ({}, {"qubits": [0.0]}, "qubits"),
        ({}, {"qubits": [True]}, "qubits"),
        ({}, {"qubits": None}, "qubits"),
        ({}, {"kind": "RX", "angle": "0.5"}, "angle"),
        ({}, {"kind": "RX", "angle": True}, "angle"),
        ({}, {"kind": "RX", "angle": float("-inf")}, "angle"),
    ])
    def test_field_types_rejected(self, fields, gate, message):
        doc = {"version": 1, "num_qubits": 1, "gates": [], **fields}
        if gate is not None:
            doc["gates"] = [{"kind": "H", "qubits": [0], **gate}]
        with pytest.raises(ValueError, match=message):
            parse(json.dumps(doc))


class TestObservable:
    def test_z_string_parity(self):
        values = Observable.z_string(3).values
        assert values[0b000] == 1.0
        assert values[0b101] == 1.0
        assert values[0b100] == -1.0
        assert values[0b111] == -1.0

    def test_parity_fold_matches_per_bit_count(self):
        for n in range(21):
            index = np.arange(2**n, dtype=np.uint64)
            ones = np.zeros(2**n, dtype=np.int64)
            for b in range(n):
                ones += (index >> np.uint64(b)).astype(np.int64) & 1
            expected = np.where(ones % 2 == 0, 1.0, -1.0)
            assert Observable.z_string(n).values.tobytes() == expected.tobytes()

    def test_parity_factorizes(self):
        # interleaved partitions of n = 3 to 8 qubits
        for qubits_a in [(0, 2), (1,), (0, 3, 4), (1, 2, 5), (0, 2, 4, 6), (1, 4, 5, 6)]:
            n = max(qubits_a) + 2
            qubits_b = tuple(q for q in range(n) if q not in qubits_a)
            obs = Observable.z_string(n)
            fa, fb = obs.factor(qubits_a, qubits_b)
            for s in range(2**n):
                bits = format(s, f"0{n}b")
                sa = int("".join(bits[q] for q in qubits_a), 2)
                sb = int("".join(bits[q] for q in qubits_b), 2)
                assert obs.values[s] == fa.values[sa] * fb.values[sb]
