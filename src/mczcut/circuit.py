"""Circuit data model, the Z-string observable, partition bookkeeping, and serialization.

Conventions fixed here and enforced everywhere else in the package:

* Qubit 0 is the most significant bit of basis-state indices, so the basis
  state |q0 q1 ... q_{n-1}> has index  q0*2^(n-1) + ... + q_{n-1}.
* Angles are radians stored as double-precision reals and compared with
  absolute tolerance 1e-12.
* MCP(theta) is the diagonal gate diag(1, ..., 1, e^{i theta}) on its qubit
  set; MCZ is MCP(pi).  Both are symmetric under any permutation of their
  qubits, so the stored qubit order carries no meaning beyond identity.
* The one observable is the parity of the full Z-string, whose value on
  every bitstring is +1 or -1.

All types in this module are immutable values after construction and safe to
share between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

ANGLE_TOL = 1e-12

ROTATION_KINDS = ("RX", "RY", "RZ")
SINGLE_QUBIT_KINDS = ("RX", "RY", "RZ", "X", "H", "S", "SDG", "Z")
TWO_QUBIT_KINDS = ("CNOT", "CZ")
MULTI_QUBIT_KINDS = ("MCZ", "MCP")
GATE_KINDS = SINGLE_QUBIT_KINDS + TWO_QUBIT_KINDS + MULTI_QUBIT_KINDS

DOCUMENT_VERSION = 1


@dataclass(frozen=True)
class Gate:
    """One gate application: a kind, its qubit indices, and an optional angle."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        nq = len(self.qubits)
        if len(set(self.qubits)) != nq:
            raise ValueError(f"duplicate qubit in {self.kind} gate: {self.qubits}")
        if self.kind in SINGLE_QUBIT_KINDS and nq != 1:
            raise ValueError(f"{self.kind} takes exactly 1 qubit, got {nq}")
        if self.kind in TWO_QUBIT_KINDS and nq != 2:
            raise ValueError(f"{self.kind} takes exactly 2 qubits, got {nq}")
        if self.kind in MULTI_QUBIT_KINDS and nq < 2:
            raise ValueError(f"{self.kind} takes at least 2 qubits, got {nq}")
        if self.kind in ROTATION_KINDS or self.kind == "MCP":
            if self.angle is None:
                raise ValueError(f"{self.kind} requires an angle")
            angle = float(self.angle)
            if self.kind == "MCP" and not (-math.pi - ANGLE_TOL < angle <= math.pi + ANGLE_TOL):
                raise ValueError(f"MCP angle must lie in (-pi, pi], got {angle}")
            object.__setattr__(self, "angle", angle)
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")


# Convenience constructors; these are the expected way to build gates.
def rx(q: int, angle: float) -> Gate:
    return Gate("RX", (q,), angle)


def x(q: int) -> Gate:
    return Gate("X", (q,))


def h(q: int) -> Gate:
    return Gate("H", (q,))


def z(q: int) -> Gate:
    return Gate("Z", (q,))


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def cz(q0: int, q1: int) -> Gate:
    return Gate("CZ", (q0, q1))


def mcz(*qubits: int) -> Gate:
    return Gate("MCZ", tuple(qubits))


def mcp(angle: float, *qubits: int) -> Gate:
    return Gate("MCP", tuple(qubits), angle)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over ``num_qubits`` qubits with an optional A/B partition.

    The partition, when present, is a per-qubit label tuple of "A"/"B".  It is
    a property of the circuit, not of any gate, so the same circuit can be
    re-cut at different positions.
    """

    num_qubits: int
    gates: tuple[Gate, ...] = ()
    partition: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.partition is not None:
            object.__setattr__(self, "partition", tuple(self.partition))

    def qubits_in(self, label: str) -> tuple[int, ...]:
        """Sorted qubit indices carrying partition label "A" or "B"."""
        if self.partition is None:
            raise ValueError("circuit has no partition")
        return tuple(q for q, lab in enumerate(self.partition) if lab == label)


@dataclass(frozen=True)
class PartitionedCut:
    """A located cut: the unique cross-partition MCZ and its (k, m) split.

    ``k`` counts the A-side qubits touched by the gate, ``m`` the B-side ones.
    """

    circuit: Circuit
    cut_gate_index: int
    k: int
    m: int

    @property
    def gate(self) -> Gate:
        return self.circuit.gates[self.cut_gate_index]

    @property
    def order(self) -> int:
        return self.k + self.m


def validate(circuit: Circuit) -> None:
    """Check the circuit's invariants (each Gate checks its own when built);
    raise ValueError naming the first violation."""
    n = circuit.num_qubits
    if n < 1:
        raise ValueError("num_qubits must be positive")
    for i, gate in enumerate(circuit.gates):
        for q in gate.qubits:
            if not 0 <= q < n:
                raise ValueError(f"gate {i} ({gate.kind}): qubit index {q} out of range for {n} qubits")
    if circuit.partition is not None:
        part = circuit.partition
        if len(part) != n:
            raise ValueError(f"partition not covering: {len(part)} labels for {n} qubits")
        bad = sorted(set(part) - {"A", "B"})
        if bad:
            raise ValueError(f"unknown partition label {bad[0]!r}")
        if "A" not in part or "B" not in part:
            raise ValueError("partition must contain at least one qubit in each of A and B")


def find_cut(circuit: Circuit) -> PartitionedCut:
    """Locate the unique cross-partition MCZ and report its (k, m) split.

    CZ counts as an order-2 MCZ.  Raises if there is no cross-partition gate,
    more than one, or the crossing gate is not an MCZ/CZ.
    """
    validate(circuit)
    if circuit.partition is None:
        raise ValueError("circuit has no partition assignment")
    part = circuit.partition
    crossing = []
    for i, gate in enumerate(circuit.gates):
        labels = {part[q] for q in gate.qubits}
        if len(labels) > 1:
            crossing.append(i)
    if not crossing:
        raise ValueError("no cross-partition gate found")
    if len(crossing) > 1:
        raise ValueError(f"more than one cross-partition gate (at indices {crossing})")
    idx = crossing[0]
    gate = circuit.gates[idx]
    if gate.kind not in ("MCZ", "CZ"):
        raise ValueError(f"cross-partition gate at index {idx} is {gate.kind}, not an MCZ")
    k = sum(1 for q in gate.qubits if part[q] == "A")
    m = len(gate.qubits) - k
    return PartitionedCut(circuit, idx, k, m)


# ---------------------------------------------------------------------------
# Serialization: a versioned JSON document, rejecting unknown fields.
# ---------------------------------------------------------------------------

def serialize(circuit: Circuit) -> str:
    validate(circuit)
    doc: dict = {
        "version": DOCUMENT_VERSION,
        "num_qubits": circuit.num_qubits,
        "gates": [],
    }
    if circuit.partition is not None:
        doc["partition"] = list(circuit.partition)
    for gate in circuit.gates:
        entry: dict = {"kind": gate.kind, "qubits": list(gate.qubits)}
        if gate.angle is not None:
            entry["angle"] = gate.angle
        doc["gates"].append(entry)
    return json.dumps(doc, indent=2, sort_keys=True)


def parse(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed circuit document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("malformed circuit document: top level must be an object")
    allowed = {"version", "num_qubits", "partition", "gates"}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ValueError(f"unknown field {unknown[0]!r} in circuit document")
    if not _is_int(doc.get("version")) or doc["version"] != DOCUMENT_VERSION:
        raise ValueError(f"unsupported document version {doc.get('version')!r}")
    if "num_qubits" not in doc or "gates" not in doc:
        raise ValueError("circuit document requires 'num_qubits' and 'gates'")
    if not _is_int(doc["num_qubits"]):
        raise ValueError(f"'num_qubits' must be an integer, got {doc['num_qubits']!r}")
    if not isinstance(doc["gates"], list):
        raise ValueError("'gates' must be a list")
    gates = []
    for i, entry in enumerate(doc["gates"]):
        if not isinstance(entry, dict):
            raise ValueError(f"gate {i}: must be an object")
        extra = sorted(set(entry) - {"kind", "qubits", "angle"})
        if extra:
            raise ValueError(f"gate {i}: unknown field {extra[0]!r}")
        kind = entry.get("kind")
        if kind not in GATE_KINDS:
            raise ValueError(f"gate {i}: unknown gate kind {kind!r}")
        qubits = entry.get("qubits")
        if not isinstance(qubits, list) or not all(_is_int(q) for q in qubits):
            raise ValueError(f"gate {i}: 'qubits' must be a list of integers, got {qubits!r}")
        angle = entry.get("angle")
        if angle is not None and not _is_finite(angle):
            raise ValueError(f"gate {i}: angle must be a finite number, got {angle!r}")
        try:
            gates.append(Gate(kind, tuple(qubits), angle))
        except ValueError as exc:
            raise ValueError(f"gate {i}: {exc}") from exc
    partition = doc.get("partition")
    if partition is not None and not (isinstance(partition, list)
                                      and all(isinstance(label, str) for label in partition)):
        raise ValueError(f"'partition' must be a list of string labels, got {partition!r}")
    circuit = Circuit(doc["num_qubits"], tuple(gates),
                      tuple(partition) if partition is not None else None)
    validate(circuit)
    return circuit


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """An int or float, not a bool, that a float holds finitely (an integer beyond its range does not)."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


# ---------------------------------------------------------------------------
# Observables: the parity of the full Z-string.
# ---------------------------------------------------------------------------

def odd_parity(x: np.ndarray, n: int) -> np.ndarray:
    """Whether each entry of x, a non-negative integer array below 2^n, has an
    odd number of set bits.

    Folds the bits with shifts and exclusive ors (np.bitwise_count needs
    numpy 2): after the shifts 1, 2, 4, ... below n, bit 0 holds the parity.
    """
    shift = 1
    while shift < n:
        x = x ^ (x >> shift)
        shift *= 2
    return (x & 1).astype(bool)


def _parity_values(n: int) -> np.ndarray:
    return np.where(odd_parity(np.arange(2**n, dtype=np.int64), n), -1.0, 1.0)


@dataclass(frozen=True)
class Observable:
    """The parity of the full Z-string Z (x) ... (x) Z on ``num_qubits`` qubits.

    ``values[i]`` is +1 or -1, the parity of the bitstring with basis index i
    (qubit 0 as most significant bit).  Every value is +-1, so every score the
    samplers form from it is too.
    """

    num_qubits: int
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _parity_values(self.num_qubits))

    @staticmethod
    def z_string(n: int) -> "Observable":
        """Parity of the full Z-string Z (x) ... (x) Z."""
        return Observable(n)

    def factor(self, qubits_a: tuple[int, ...], qubits_b: tuple[int, ...]):
        """Split into per-partition observables with f(s) = f_A(s_A) * f_B(s_B):
        the parity of every qubit is the product of each side's parity."""
        return Observable(len(qubits_a)), Observable(len(qubits_b))
