"""Dense statevector and superoperator simulator.

Serves as the execution backend for sampling.  Its dense superoperators are
the brute-force oracle that cross-checks decomposition certification at small
orders (cutter certifies with diagonal channel multipliers instead):

* a diagonal-Kraus map's superoperator is itself diagonal, so every term's
  Kronecker product of Kraus diagonals is formed at once, the terms are
  summed in order as 4^n vectors and the sum is placed on the diagonal once;
* a decomposition's weighted sum of product channels sum_j a_j F_A,j (x) F_B,j
  is one matrix product of the stacked, flattened side superoperators,
  followed by one transpose into the interleaved index order
  (``pair_superop``).

Both give the same bits as the literal per-term loops.

Full matrices are built only inside the superoperator routines; gates act on
the amplitude array viewed as an n-axis tensor of 2s:

* a single-qubit gate moves its qubit's axis to the front and makes one
  2 x 2^(n-1) ``np.dot`` (the BLAS product ``np.tensordot`` would make,
  without its per-call bookkeeping, so results are bit-identical to it);
* CNOT flips the target axis inside the control's 1-slice;
* CZ, MCZ and MCP scale the slice where all their qubits are 1.

Vectorization convention: column-major, vec(rho)[c*D + r] = rho[r, c], so a
unitary channel U has superoperator matrix conj(U) (x) U and the map
rho -> M rho N has matrix N^T (x) M.

Supported sizes: statevectors up to 20 qubits, superoperators up to 6 qubits
(4096-dimensional matrices).  Everything is double precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import odd_parity

MAX_STATE_QUBITS = 20
MAX_SUPEROP_QUBITS = 6
NORM_TOL = 1e-10

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

GATE_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2,
    "S": np.diag([1, 1j]).astype(complex),
    "SDG": np.diag([1, -1j]).astype(complex),
    "Z": np.diag([1, -1]).astype(complex),
}


def rotation_matrix(kind: str, angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.array([[np.exp(-1j * angle / 2), 0], [0, np.exp(1j * angle / 2)]], dtype=complex)
    raise ValueError(f"not a rotation kind: {kind}")


@dataclass
class StateVector:
    """Complex amplitudes over 2^n basis states; qubit 0 is the MSB."""

    amplitudes: np.ndarray
    num_qubits: int

    @staticmethod
    def zero(n: int) -> "StateVector":
        if n > MAX_STATE_QUBITS:
            raise ValueError(f"statevector limited to {MAX_STATE_QUBITS} qubits, got {n}")
        amps = np.zeros(2**n, dtype=complex)
        amps[0] = 1.0
        return StateVector(amps, n)

    def copy(self) -> "StateVector":
        return StateVector(self.amplitudes.copy(), self.num_qubits)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass
class Superoperator:
    """Dense matrix acting on column-major vectorized density matrices."""

    matrix: np.ndarray = field(repr=False)
    num_qubits: int

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    def apply_to_density(self, rho: np.ndarray) -> np.ndarray:
        vec = rho.reshape(-1, order="F")
        out = self.matrix @ vec
        return out.reshape(rho.shape, order="F")

    def is_trace_preserving(self) -> bool:
        # tr(S(rho)) = tr(rho) for all rho  <=>  vec(I)^dagger S = vec(I)^dagger
        d = self.dim
        vec_id = np.eye(d, dtype=complex).reshape(-1, order="F")
        return bool(np.max(np.abs(vec_id @ self.matrix - vec_id)) < NORM_TOL)


# ---------------------------------------------------------------------------
# Strided gate kernels
# ---------------------------------------------------------------------------

@functools.cache
def _single_axes(n: int, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis order bringing qubit q to the front of an n-qubit tensor, and its inverse.

    Cached: n <= MAX_STATE_QUBITS bounds the cache at 210 entries.
    """
    fwd = (q,) + tuple(a for a in range(n) if a != q)
    return fwd, tuple(int(a) for a in np.argsort(fwd))


def _apply_single(amps: np.ndarray, n: int, matrix: np.ndarray, q: int) -> np.ndarray:
    # The same BLAS product np.tensordot(matrix, psi, ([1], [q])) makes, without
    # its per-call bookkeeping.  One expression, so the transposed operand is
    # freed before the result is copied back into qubit order.
    fwd, inv = _single_axes(n, q)
    shape = (2,) * n
    return (np.dot(matrix, amps.reshape(shape).transpose(fwd).reshape(2, -1))
            .reshape(shape).transpose(inv).reshape(-1))


def _apply_cnot(amps: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    psi = amps.reshape((2,) * n).copy()
    sel = [slice(None)] * n
    sel[control] = 1
    block = psi[tuple(sel)]
    t_axis = target - (1 if target > control else 0)
    psi[tuple(sel)] = np.flip(block, axis=t_axis)
    return psi.reshape(-1)


def _apply_phase_on_ones(amps: np.ndarray, n: int, qubits, phase: complex) -> np.ndarray:
    psi = amps.reshape((2,) * n).copy()
    sel = [slice(None)] * n
    for q in qubits:
        sel[q] = 1
    psi[tuple(sel)] *= phase
    return psi.reshape(-1)


def apply_gate(state: StateVector, gate) -> StateVector:
    """Apply one circuit gate in place and return the state."""
    n = state.num_qubits
    for q in gate.qubits:
        if not 0 <= q < n:
            raise ValueError(f"gate qubit {q} out of range for {n}-qubit state")
    kind = gate.kind
    if kind in ("RX", "RY", "RZ"):
        state.amplitudes = _apply_single(state.amplitudes, n, rotation_matrix(kind, gate.angle), gate.qubits[0])
    elif kind in GATE_MATRICES:
        state.amplitudes = _apply_single(state.amplitudes, n, GATE_MATRICES[kind], gate.qubits[0])
    elif kind == "CNOT":
        state.amplitudes = _apply_cnot(state.amplitudes, n, gate.qubits[0], gate.qubits[1])
    elif kind in ("CZ", "MCZ"):
        state.amplitudes = _apply_phase_on_ones(state.amplitudes, n, gate.qubits, -1.0)
    elif kind == "MCP":
        state.amplitudes = _apply_phase_on_ones(state.amplitudes, n, gate.qubits, np.exp(1j * gate.angle))
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    return state


def run(circuit, initial: StateVector | None = None) -> StateVector:
    """Apply the circuit's gates in order to a copy of the initial state."""
    if initial is None:
        state = StateVector.zero(circuit.num_qubits)
    else:
        if 2**circuit.num_qubits != initial.amplitudes.size:
            raise ValueError("dimension mismatch between circuit and initial state")
        state = initial.copy()
    for gate in circuit.gates:
        apply_gate(state, gate)
    return check_norm(state)


def check_norm(state: StateVector) -> StateVector:
    """Return the state, or raise if its norm drifted from 1 by more than NORM_TOL."""
    if abs(state.norm() - 1.0) > NORM_TOL:
        raise RuntimeError(f"state norm drifted to {state.norm()}")
    return state


def apply_diagonal(state: StateVector, qubits, local_diag: np.ndarray) -> StateVector:
    """Apply a diagonal operator given over a qubit subset (subset-local indexing)."""
    n = state.num_qubits
    k = len(qubits)
    psi = state.amplitudes.reshape((2,) * n)
    psi = np.moveaxis(psi, qubits, range(k))
    psi = psi.reshape(2**k, -1) * local_diag[:, None]
    psi = np.moveaxis(psi.reshape((2,) * n), range(k), qubits)
    state.amplitudes = np.ascontiguousarray(psi).reshape(-1)
    return state


# ---------------------------------------------------------------------------
# Expectation values, projection
# ---------------------------------------------------------------------------

def expval(state: StateVector, obs) -> float:
    """Sum_s |<s|psi>|^2 f(s) for a diagonal observable."""
    if obs.values.size != state.amplitudes.size:
        raise ValueError("dimension mismatch between state and observable")
    return float(np.real(state.probabilities() @ obs.values))


def _subset_probabilities(state: StateVector, qubits) -> np.ndarray:
    """Marginal outcome probabilities over a qubit subset (subset-local indexing)."""
    n = state.num_qubits
    k = len(qubits)
    psi = state.amplitudes.reshape((2,) * n)
    psi = np.moveaxis(psi, qubits, range(k))
    return np.abs(psi.reshape(2**k, -1)) ** 2 @ np.ones(2**(n - k)) if n > k else np.abs(psi.reshape(-1)) ** 2


def project(state: StateVector, qubits, outcome: int) -> tuple[StateVector, float]:
    """Project onto a computational-basis outcome of the given qubits.

    ``outcome`` is the basis index over the qubit subset (its first qubit as
    most significant bit).  Returns the renormalized post-measurement state
    and the outcome probability.  Projecting onto a zero-probability outcome
    is an error.
    """
    qubits = list(qubits)
    k = len(qubits)
    probs = _subset_probabilities(state, qubits)
    p = float(probs[outcome])
    if p < 1e-14:
        raise ValueError(f"projection onto zero-probability outcome {outcome:0{k}b}")
    n = state.num_qubits
    psi = state.amplitudes.reshape((2,) * n).copy()
    psi = np.moveaxis(psi, qubits, range(k))
    flat = psi.reshape(2**k, -1)
    keep = flat[outcome].copy()
    flat[:] = 0.0
    flat[outcome] = keep / math.sqrt(p)
    psi = np.moveaxis(flat.reshape((2,) * n), range(k), qubits)
    return StateVector(np.ascontiguousarray(psi).reshape(-1), n), p


# ---------------------------------------------------------------------------
# Superoperators
# ---------------------------------------------------------------------------

def _check_superop_size(n: int):
    if n > MAX_SUPEROP_QUBITS:
        raise ValueError(f"superoperators limited to {MAX_SUPEROP_QUBITS} qubits, got {n}")


def superop_of_unitary(unitary: np.ndarray) -> Superoperator:
    """Matrix of rho -> U rho U^dagger under column-major vectorization.

    A matrix that is not unitary within NORM_TOL is rejected."""
    unitary = np.asarray(unitary, dtype=complex)
    d = unitary.shape[0]
    n = int(round(math.log2(d)))
    if unitary.shape != (d, d) or 2**n != d:
        raise ValueError("unitary must be square with power-of-two dimension")
    _check_superop_size(n)
    err = np.max(np.abs(unitary.conj().T @ unitary - np.eye(d)))
    if err > NORM_TOL:
        raise ValueError(f"matrix is not unitary (deviation {err:.2e})")
    return Superoperator(np.kron(unitary.conj(), unitary), n)


def superop_of_kraus_like(terms, n: int) -> Superoperator:
    """Superoperator of rho -> sum_i w_i M_i rho M_i^dagger for diagonal M_i.

    ``terms`` is an iterable of (weight, diagonal) pairs where each diagonal is
    a length-2^n complex vector.  Weights may be negative (signed maps).  The
    Kronecker product of two diagonal matrices is the diagonal of the
    Kronecker product of their vectors, so every weighted product is formed
    at once as a row of 4^n entries, the rows are summed in term order (the
    order of a literal loop, so the bits are the same) and the sum is placed
    on the diagonal once.
    """
    _check_superop_size(n)
    weights, diagonals = zip(*terms)
    d = np.array(diagonals, dtype=complex)
    products = d.conj()[:, :, None] * d[:, None, :]
    products *= np.array(weights)[:, None, None]
    return Superoperator(np.diag(np.add.reduce(products.reshape(len(d), -1), axis=0)), n)


def superop_of_local_operation(op) -> Superoperator:
    """Superoperator of a decomposition local operation.

    Built from the operation's signed-diagonal expansion, the one the
    multiplier certificate and the sampler read: a phase unitary gives
    conj(D) (x) D, a Z-mixture averages its Z-layer channels, and the
    projective variants sum xi_l P_l . P_l over the outcomes l.
    """
    return superop_of_kraus_like(op.signed_diagonal_terms(), op.num_qubits)


def pair_superop(terms) -> Superoperator:
    """Superoperator of the weighted sum of product channels sum_j a_j F_A,j (x) F_B,j.

    ``terms`` is a list of (a_j, F_A,j, F_B,j) triples whose A sides share one
    size and whose B sides share another; a single product channel is a
    one-term list.  Partition A holds the leading (most significant) qubits.
    Because vectorization interleaves row and column indices each product is
    a transposed reshuffle of the plain Kronecker product.  The whole sum is
    one matrix product of the weighted, flattened A sides with the flattened
    B sides, followed by one transpose into the interleaved index order.
    """
    coefficients, supers_a, supers_b = zip(*terms)
    da, db = supers_a[0].dim, supers_b[0].dim
    n = supers_a[0].num_qubits + supers_b[0].num_qubits
    _check_superop_size(n)
    weights = np.array(coefficients, dtype=complex)[:, None]
    # one expression, so each stacked side is freed as soon as it is used
    product = (_flattened(supers_a) * weights).T @ _flattened(supers_b)
    # (col, row, col', row') of A, then of B -> interleaved
    t = product.reshape((da,) * 4 + (db,) * 4).transpose(0, 4, 1, 5, 2, 6, 3, 7)
    d = da * db
    return Superoperator(t.reshape(d * d, d * d), n)


def _flattened(supers) -> np.ndarray:
    """The superoperator matrices stacked as rows, one per term."""
    return np.array([s.matrix for s in supers]).reshape(len(supers), -1)


def mcp_diagonal(n: int, theta: float) -> np.ndarray:
    d = np.ones(2**n, dtype=complex)
    d[-1] = np.exp(1j * theta)
    return d


def mcz_unitary(n: int) -> np.ndarray:
    d = np.ones(2**n)
    d[-1] = -1.0
    return np.diag(d).astype(complex)


def zlayer_diagonals(n: int, masks) -> np.ndarray:
    """Diagonals of the Z-layers picked by bitmasks over local qubits, one row per mask.

    Bit q of a mask selects Z on qubit q, which is bit n-1-q of a basis index,
    so entry s of a row is -1 where s has an odd number of selected bits
    (``circuit.odd_parity``).  Odd entries are -1 - 0j, the bits an odd
    number of negations of 1 + 0j gives.
    """
    selected = np.array([int(format(mask, f"0{n}b")[::-1], 2) for mask in masks], dtype=np.int64)
    odd = odd_parity(selected[:, None] & np.arange(2**n, dtype=np.int64), n)
    d = np.ones(odd.shape, dtype=complex)
    return np.negative(d, out=d, where=odd)


def zlayer_diagonal(n: int, mask: int) -> np.ndarray:
    """Diagonal of the Z-layer picked by a bitmask over local qubits (bit 0 = qubit 0 = MSB)."""
    return zlayer_diagonals(n, [mask])[0]
