"""Minimal ZH-calculus tensor oracle.

Builds dense tensors for Z/X spiders and H-boxes and numerically certifies
the diagrammatic identities the gate-cutting derivation rests on: the H-box
fusion rule, the phase-vector and (1,-1) contraction identities, the
diagonal-from-vector construction, and the rank-one structure of the 4x4
coupling block (the unnormalized Choi operator of a Hadamard gate).

Each identity is one fixed contraction of a few small tensors, written out
as a matrix product or a single einsum; there is no wire-graph engine and no
rewrite engine.  The copy-spider einsum's operands and contraction path
depend only on the qubit count, so they are planned once per count.  Wires
carry qubit dimension 2.  All functions are pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

MAX_NODE_LEGS = 12

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
# Standard constructions
# ---------------------------------------------------------------------------

def phase_state(theta: float) -> np.ndarray:
    """One-legged X-spider state: |+> + e^{i theta}|->, i.e. sqrt(2) e^{i theta/2} (cos t/2, -i sin t/2)."""
    return tensor_of(Node("X", 0, 1, theta))


def minus_vector() -> np.ndarray:
    """The (1, -1) vector (a phase-pi Z-spider state)."""
    return tensor_of(Node("Z", 0, 1, math.pi)).astype(complex)


def _hbox(legs: int) -> np.ndarray:
    return tensor_of(Node("H", 0, legs))


def hbox_vector(n: int) -> np.ndarray:
    """H-box with n output legs, flattened: (1, ..., 1, -1)."""
    return _hbox(n).reshape(-1)


@functools.cache
def _copy_spider_plan(n: int) -> tuple[tuple, tuple, tuple, tuple]:
    """Copy-spider operands, vector legs, output legs and contraction path for n qubits.

    Qubit q's spider has legs (in q, out n+q, copy 2n+q); the vector carries
    the copy legs.  The path is the greedy one ``np.einsum(..., optimize=True)``
    would search for on every call.  Cached, and read-only since every caller
    shares it: n <= 8 bounds the cache at 8 entries.
    """
    spider = tensor_of(Node("Z", 1, 2))  # legs (in, out, copy)
    spider.flags.writeable = False
    spiders = ()
    for q in range(n):
        spiders += (spider, (q, n + q, 2 * n + q))
    vector_legs = tuple(range(2 * n, 3 * n))
    output = tuple(range(n, 2 * n)) + tuple(range(n))
    path, _ = np.einsum_path(*spiders, np.ones((2,) * n, dtype=complex), vector_legs, output,
                             optimize="greedy")
    return spiders, vector_legs, output, tuple(path)


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
    spiders, vector_legs, output, path = _copy_spider_plan(n)
    tensor = np.einsum(*spiders, v.reshape((2,) * n), vector_legs, output, optimize=path)
    return tensor.reshape(2**n, 2**n)


# ---------------------------------------------------------------------------
# Identity checks (each returns its maximum absolute error)
# ---------------------------------------------------------------------------

def check_fusion_rule(m: int, n: int) -> float:
    """H-box fusion: the (m+n)-legged H-box equals half the joined contraction.

    The (m+1)- and (n+1)-legged H-boxes meet through a two-legged H-box on
    their last legs, which is one matrix product with the m legs as rows and
    the n legs as columns.
    """
    if m + n > 10:
        raise ValueError("fusion check limited to m + n <= 10")
    lhs = _hbox(m + n).reshape(2**m, 2**n)
    rhs = _hbox(m + 1).reshape(2**m, 2) @ _hbox(2).reshape(2, 2) @ _hbox(n + 1).reshape(2**n, 2).T
    return float(np.max(np.abs(lhs - 0.5 * rhs)))


def check_contraction_identities(n: int, theta: float) -> float:
    """Contracting an (n+1)-legged H-box with a phase vector or with (1,-1).

    The phase vector yields sqrt(2) diag(1,...,1,e^{i theta}); the (1,-1)
    vector yields twice the projector onto |1...1>.
    """
    if n > 8:
        raise ValueError("contraction identity check limited to n <= 8")
    hb = _hbox(n + 1).reshape(2**n, 2)
    target = np.ones(2**n, dtype=complex)
    target[-1] = np.exp(1j * theta)
    err_phase = _diagonal_error((hb @ phase_state(theta)).reshape(-1), _SQRT2 * target)
    proj = np.zeros(2**n, dtype=complex)
    proj[-1] = 1.0
    err_minus = _diagonal_error((hb @ minus_vector()).reshape(-1), 2.0 * proj)
    return max(err_phase, err_minus)


def _max_error_from_diagonal(matrix: np.ndarray, target: np.ndarray) -> float:
    """Max |matrix - diag(target)|; the target is subtracted in place from matrix's diagonal."""
    idx = np.arange(matrix.shape[0])
    matrix[idx, idx] -= target
    return float(np.max(np.abs(matrix)))


def _diagonal_error(v: np.ndarray, target: np.ndarray) -> float:
    """Max |diag(v) - diag(target)|, with diag(v) built by copy spiders up to 6 qubits.

    Past 6 qubits both sides are plain diagonals, whose off-diagonal zeros
    agree exactly, so the entries are compared as vectors.
    """
    if v.size <= 2**6:
        return _max_error_from_diagonal(diagonal_from_vector(v), target)
    return float(np.max(np.abs(v - target)))


def check_diag_lemma(v: np.ndarray) -> float:
    """Copy-spider contraction of an arbitrary vector reproduces diag(v)."""
    v = np.asarray(v, dtype=complex)
    if v.size > 2**6:
        raise ValueError("diagonal lemma check limited to 6 qubits")
    return _max_error_from_diagonal(diagonal_from_vector(v), v)


def check_mcz_representation(n: int) -> float:
    """The H-box-with-copy-spiders network contracts to diag(1, ..., 1, -1).

    The tensors are integer-valued, so the result must be exact.
    """
    if n > 8:
        raise ValueError("representation check limited to 8 qubits")
    target = np.ones(2**n)
    target[-1] = -1.0
    return _max_error_from_diagonal(diagonal_from_vector(hbox_vector(n)), target)


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
