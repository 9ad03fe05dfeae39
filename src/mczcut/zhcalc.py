"""Minimal ZH-calculus tensor engine.

Builds dense tensors for Z/X spiders and H-boxes, contracts small diagrams,
and numerically certifies the diagrammatic identities the gate-cutting
derivation rests on: the H-box fusion rule, the phase-vector and (1,-1)
contraction identities, the diagonal-from-vector construction, and the
rank-one structure of the 4x4 coupling block (the unnormalized Choi operator
of a Hadamard gate).

This module is an oracle, not a simplifier: there is no rewrite engine, only
dense contraction.  Wires carry qubit dimension 2.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_NODE_LEGS = 12
MAX_OPEN_WIRES = 12

_SQRT2 = math.sqrt(2.0)

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.diag([1, -1]).astype(complex)


@dataclass(frozen=True)
class Node:
    """A spider or H-box with ``m`` input and ``n`` output legs.

    Ports are numbered 0..m+n-1, inputs first.  H-boxes carry no phase.
    """

    kind: str  # "Z" | "X" | "H"
    m: int
    n: int
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("Z", "X", "H"):
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise ValueError("node needs at least one leg")
        if self.kind == "H" and self.phase != 0.0:
            raise ValueError("H-box carries no phase")

    @property
    def legs(self) -> int:
        return self.m + self.n


def tensor_of(node: Node) -> np.ndarray:
    """Dense tensor of a node, shape (2,)*legs, legs ordered inputs then outputs.

    Z-spider: |0..0><0..0| + e^{i a}|1..1><1..1|.  X-spider: the same in the
    +/- basis.  H-box: entries (-1)^(product of all indices).
    """
    legs = node.legs
    if legs > MAX_NODE_LEGS:
        raise ValueError(f"node with {legs} legs exceeds dense limit {MAX_NODE_LEGS}")
    if node.kind == "Z":
        t = np.zeros((2,) * legs, dtype=complex)
        t[(0,) * legs] = 1.0
        t[(1,) * legs] += np.exp(1j * node.phase)
        return t
    if node.kind == "X":
        # entry = 2^{-legs/2} * (1 + e^{i a} (-1)^{parity of indices})
        idx = np.indices((2,) * legs).sum(axis=0) % 2
        scale = 2.0 ** (-legs / 2.0)
        return scale * (1.0 + np.exp(1j * node.phase) * np.where(idx, -1.0, 1.0))
    # H-box: all ones except -1 at the all-ones entry
    t = np.ones((2,) * legs, dtype=complex)
    t[(1,) * legs] = -1.0
    return t


# ---------------------------------------------------------------------------
# Diagrams and contraction
# ---------------------------------------------------------------------------
# A wire endpoint is ("node", node_index, port) or ("in", k) / ("out", k) for
# the k-th boundary input/output.  Every node port and boundary slot must be
# hit by exactly one wire.

EndPoint = tuple


@dataclass
class Diagram:
    nodes: list[Node]
    wires: list[tuple[EndPoint, EndPoint]]
    n_in: int = 0
    n_out: int = 0

    def validate(self):
        seen: dict[EndPoint, int] = {}
        for a, b in self.wires:
            for end in (a, b):
                seen[end] = seen.get(end, 0) + 1
                if end[0] == "node":
                    _, i, port = end
                    if not 0 <= i < len(self.nodes):
                        raise ValueError(f"wire references missing node {i}")
                    if not 0 <= port < self.nodes[i].legs:
                        raise ValueError(f"dangling port {port} on node {i}")
                elif end[0] == "in":
                    if not 0 <= end[1] < self.n_in:
                        raise ValueError(f"boundary input {end[1]} out of range")
                elif end[0] == "out":
                    if not 0 <= end[1] < self.n_out:
                        raise ValueError(f"boundary output {end[1]} out of range")
                else:
                    raise ValueError(f"bad endpoint {end!r}")
        for i, node in enumerate(self.nodes):
            for port in range(node.legs):
                if seen.get(("node", i, port), 0) != 1:
                    raise ValueError(f"port {port} of node {i} must appear on exactly one wire")
        for k in range(self.n_in):
            if seen.get(("in", k), 0) != 1:
                raise ValueError(f"boundary input {k} must appear on exactly one wire")
        for k in range(self.n_out):
            if seen.get(("out", k), 0) != 1:
                raise ValueError(f"boundary output {k} must appear on exactly one wire")
        for end, count in seen.items():
            if count > 1:
                raise ValueError(f"endpoint {end!r} used by {count} wires")

    def mirrored(self) -> "Diagram":
        """Swap inputs and outputs and negate all phases (Hermitian conjugate)."""
        nodes = [Node(nd.kind, nd.n, nd.m, -nd.phase) if nd.kind != "H" else Node("H", nd.n, nd.m)
                 for nd in self.nodes]
        def flip(end):
            if end[0] == "in":
                return ("out", end[1])
            if end[0] == "out":
                return ("in", end[1])
            _, i, port = end
            old = self.nodes[i]
            # input port p becomes output port p (inputs and outputs trade places)
            if port < old.m:
                return ("node", i, nodes[i].m + port)
            return ("node", i, port - old.m)
        wires = [(flip(a), flip(b)) for a, b in self.wires]
        return Diagram(nodes, wires, n_in=self.n_out, n_out=self.n_in)


def _merge(t1: np.ndarray, ids1: list[int], t2: np.ndarray, ids2: list[int]):
    shared = [w for w in ids1 if w in ids2]
    ax1 = [ids1.index(w) for w in shared]
    ax2 = [ids2.index(w) for w in shared]
    out = np.tensordot(t1, t2, axes=(ax1, ax2))
    ids = [w for w in ids1 if w not in shared] + [w for w in ids2 if w not in shared]
    return out, ids


def _self_trace(t: np.ndarray, ids: list[int]):
    while True:
        dup = None
        for w in ids:
            if ids.count(w) > 1:
                dup = w
                break
        if dup is None:
            return t, ids
        a1 = ids.index(dup)
        a2 = ids.index(dup, a1 + 1)
        t = np.trace(t, axis1=a1, axis2=a2)
        ids = [w for i, w in enumerate(ids) if i not in (a1, a2)]


def contract(diagram: Diagram, node_order=None) -> np.ndarray:
    """Contract all node tensors over shared wires.

    Returns a tensor of shape (2,)*(n_out + n_in) with output legs first.  The
    contraction order may be supplied (a permutation of node indices); the
    result is order-independent up to floating-point noise.
    """
    diagram.validate()
    if diagram.n_in + diagram.n_out > MAX_OPEN_WIRES:
        raise ValueError(f"more than {MAX_OPEN_WIRES} open wires")
    wire_of: dict[EndPoint, int] = {}
    for wid, (a, b) in enumerate(diagram.wires):
        wire_of[a] = wid
        wire_of[b] = wid
    order = list(node_order) if node_order is not None else list(range(len(diagram.nodes)))
    if sorted(order) != list(range(len(diagram.nodes))):
        raise ValueError("node_order must be a permutation of node indices")

    blob = np.array(1.0, dtype=complex)
    ids: list[int] = []
    for i in order:
        node = diagram.nodes[i]
        t = tensor_of(node)
        t_ids = [wire_of[("node", i, p)] for p in range(node.legs)]
        t, t_ids = _self_trace(t, t_ids)
        blob, ids = _merge(blob, ids, t, t_ids)
        blob, ids = _self_trace(blob, ids)
    # direct boundary-to-boundary wires contribute identity tensors
    for wid, (a, b) in enumerate(diagram.wires):
        if {a[0], b[0]} <= {"in", "out"}:
            in_end = a if a[0] == "in" else b
            out_end = b if b[0] == "out" else a
            if in_end[0] != "in" or out_end[0] != "out":
                raise ValueError("boundary wire must join one input and one output")
            eye = np.eye(2, dtype=complex).reshape(2, 2)
            # give the two halves distinct pseudo-wire ids
            blob, ids = _merge(blob, ids, eye, [wid, -wid - 1])
            wire_of[out_end] = wid
            wire_of[in_end] = -wid - 1
    out_ids = [wire_of[("out", k)] for k in range(diagram.n_out)]
    in_ids = [wire_of[("in", k)] for k in range(diagram.n_in)]
    perm = [ids.index(w) for w in out_ids + in_ids]
    if len(perm) != len(ids):
        raise ValueError("diagram has internal open wires")
    return np.transpose(blob, perm) if perm else blob


def contract_matrix(diagram: Diagram, node_order=None) -> np.ndarray:
    t = contract(diagram, node_order)
    return t.reshape(2**diagram.n_out, 2**diagram.n_in)


# ---------------------------------------------------------------------------
# Standard constructions
# ---------------------------------------------------------------------------

def phase_state(theta: float) -> np.ndarray:
    """One-legged X-spider state: |+> + e^{i theta}|->, i.e. sqrt(2) e^{i theta/2} (cos t/2, -i sin t/2)."""
    return tensor_of(Node("X", 0, 1, theta))


def minus_vector() -> np.ndarray:
    """The (1, -1) vector (a phase-pi Z-spider state)."""
    return tensor_of(Node("Z", 0, 1, math.pi)).astype(complex)


def hbox_vector(n: int) -> np.ndarray:
    """H-box with n output legs, flattened: (1, ..., 1, -1)."""
    return tensor_of(Node("H", 0, n)).reshape(-1)


def diagonal_from_vector(v: np.ndarray) -> np.ndarray:
    """Contract copy spiders with a 2^n-entry vector, yielding diag(v).

    One Z-spider per qubit copies the wire index into the vector's leg, so the
    whole contraction realizes an arbitrary diagonal from its entry vector.
    """
    v = np.asarray(v, dtype=complex)
    n = int(round(math.log2(v.size)))
    if 2**n != v.size:
        raise ValueError("vector length must be a power of two")
    if n > 8:
        raise ValueError("diagonal construction limited to 8 qubits")
    spider = tensor_of(Node("Z", 1, 2))  # legs (in, out, copy)
    result = v.reshape((2,) * n)
    # contract the copy leg of qubit q with the q-th leg of v
    operands = []
    subscript_parts = []
    next_label = 0
    labels = {}
    def fresh():
        nonlocal next_label
        next_label += 1
        return next_label - 1
    in_labels = [fresh() for _ in range(n)]
    out_labels = [fresh() for _ in range(n)]
    copy_labels = [fresh() for _ in range(n)]
    for q in range(n):
        operands.append(spider)
        subscript_parts.append([in_labels[q], out_labels[q], copy_labels[q]])
    operands.append(result)
    subscript_parts.append(copy_labels)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    subs = ",".join("".join(letters[l] for l in part) for part in subscript_parts)
    out = "".join(letters[l] for l in out_labels + in_labels)
    tensor = np.einsum(f"{subs}->{out}", *operands, optimize=True)
    return tensor.reshape(2**n, 2**n)


def mcz_diagram(n: int) -> Diagram:
    """The multi-controlled-Z gate as one n-legged H-box fed by copy spiders."""
    nodes = [Node("Z", 1, 2) for _ in range(n)] + [Node("H", n, 0)]
    wires = []
    for q in range(n):
        wires.append((("in", q), ("node", q, 0)))
        wires.append((("node", q, 1), ("out", q)))
        wires.append((("node", q, 2), ("node", n, q)))
    return Diagram(nodes, wires, n_in=n, n_out=n)


def fusion_rhs_diagram(m: int, n: int) -> Diagram:
    """Two H-boxes of m+1 and n+1 legs joined through a two-legged H-box."""
    nodes = [Node("H", 0, m + 1), Node("H", 0, n + 1), Node("H", 2, 0)]
    wires = [(("node", 0, m), ("node", 2, 0)),
             (("node", 1, n), ("node", 2, 1))]
    for i in range(m):
        wires.append((("node", 0, i), ("out", i)))
    for j in range(n):
        wires.append((("node", 1, j), ("out", m + j)))
    return Diagram(nodes, wires, n_in=0, n_out=m + n)


# ---------------------------------------------------------------------------
# Identity checks (each returns its maximum absolute error)
# ---------------------------------------------------------------------------

def check_fusion_rule(m: int, n: int, node_order=None) -> float:
    """H-box fusion: the (m+n)-legged H-box equals half the joined contraction."""
    if m + n > 10:
        raise ValueError("fusion check limited to m + n <= 10")
    lhs = tensor_of(Node("H", 0, m + n))
    rhs = contract(fusion_rhs_diagram(m, n), node_order)
    return float(np.max(np.abs(lhs - 0.5 * rhs)))


def check_contraction_identities(n: int, theta: float) -> float:
    """Contracting an (n+1)-legged H-box with a phase vector or with (1,-1).

    The phase vector yields sqrt(2) diag(1,...,1,e^{i theta}); the (1,-1)
    vector yields twice the projector onto |1...1>.
    """
    if n > 8:
        raise ValueError("contraction identity check limited to n <= 8")
    hb = tensor_of(Node("H", 0, n + 1)).reshape(2**n, 2)
    contracted = (hb @ phase_state(theta)).reshape(-1)
    built = diagonal_from_vector(contracted) if n <= 6 else np.diag(contracted)
    target = np.ones(2**n, dtype=complex)
    target[-1] = np.exp(1j * theta)
    err_phase = float(np.max(np.abs(built - _SQRT2 * np.diag(target))))

    contracted_minus = (hb @ minus_vector()).reshape(-1)
    built_minus = diagonal_from_vector(contracted_minus) if n <= 6 else np.diag(contracted_minus)
    proj = np.zeros((2**n, 2**n), dtype=complex)
    proj[-1, -1] = 1.0
    err_minus = float(np.max(np.abs(built_minus - 2.0 * proj)))
    return max(err_phase, err_minus)


def check_diag_lemma(v: np.ndarray) -> float:
    """Copy-spider contraction of an arbitrary vector reproduces diag(v)."""
    v = np.asarray(v, dtype=complex)
    if v.size > 2**6:
        raise ValueError("diagonal lemma check limited to 6 qubits")
    return float(np.max(np.abs(diagonal_from_vector(v) - np.diag(v))))


def check_mcz_representation(n: int) -> float:
    """The H-box-with-copy-spiders network contracts to diag(1, ..., 1, -1).

    Uses the direct einsum contraction for n up to 8; for n up to 6 the
    generic diagram machinery is cross-checked as well.  The tensors are
    integer-valued, so the result must be exact.
    """
    if n > 8:
        raise ValueError("representation check limited to 8 qubits")
    target = np.diag(np.concatenate([np.ones(2**n - 1), [-1.0]])).astype(complex)
    err = float(np.max(np.abs(diagonal_from_vector(hbox_vector(n)) - target)))
    if n <= 6:
        err = max(err, float(np.max(np.abs(contract_matrix(mcz_diagram(n)) - target))))
    return err


def choi_block_matrix() -> np.ndarray:
    """The 4x4 coupling block left between the partitions after double fusion.

    Built from the two 2-legged H-boxes, grouping the pair of ket-side legs as
    the row index and the bra-side legs as the column index.  Equals the outer
    product of (1,1,1,-1) with itself: the unnormalized Choi operator of a
    Hadamard gate.
    """
    h2 = hbox_vector(2)
    return np.outer(h2, h2).astype(complex)


def check_choi_block_expansion() -> float:
    """Certify the coupling block's matrix form, Pauli expansion, and X substitution."""
    q = choi_block_matrix()
    expected = np.array([[1, 1, 1, -1],
                         [1, 1, 1, -1],
                         [1, 1, 1, -1],
                         [-1, -1, -1, 1]], dtype=complex)
    err = float(np.max(np.abs(q - expected)))

    pauli_sum = (np.kron(PAULI_I, PAULI_I) + np.kron(PAULI_Y, PAULI_Y)
                 + np.kron(PAULI_Z, PAULI_X) + np.kron(PAULI_X, PAULI_Z))
    err = max(err, float(np.max(np.abs(q - pauli_sum))))

    # X = 1/2 |p(pi/2)><p(pi/2)| + 1/2 |p(-pi/2)><p(-pi/2)| - (1,-1)(1,-1)^T
    def outer(vec):
        return np.outer(vec, vec.conj())
    x_sub = 0.5 * outer(phase_state(math.pi / 2)) + 0.5 * outer(phase_state(-math.pi / 2)) - outer(minus_vector())
    err = max(err, float(np.max(np.abs(x_sub - PAULI_X))))
    return err
