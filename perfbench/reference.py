"""Reference computations kept apart from the program under test.

Nothing here imports ``mczcut``.  Every correctness check of the benchmark
compares the program's output against one of these, or against a property
the method must have:

* ``zstring_value`` -- a small numpy statevector simulator giving the exact
  Z-string expectation of a circuit document;
* ``reconstruction_residual`` -- rebuilds the channel of a decomposition
  document from diagonal algebra (every local map is an entrywise multiplier
  Lambda = sum_j w_j d_j d_j^H) and compares it with u u^H of the MCZ;
* ``closed_form_kappa`` -- the overhead constant of a (k, m) split.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# Statevector simulator (qubit 0 is the most significant bit)
# ---------------------------------------------------------------------------


def _rotation(kind: str, angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]])
    raise ValueError(f"reference simulator has no gate {kind!r}")


def statevector(doc: dict) -> np.ndarray:
    """Final amplitudes of a circuit document, shaped (2,) * num_qubits."""
    n = doc["num_qubits"]
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for gate in doc["gates"]:
        kind, qubits = gate["kind"], gate["qubits"]
        if kind in ("MCZ", "CZ"):
            index = [slice(None)] * n
            for q in qubits:
                index[q] = 1
            psi[tuple(index)] *= -1.0
        elif kind == "CNOT":
            control, target = qubits
            index = [slice(None)] * n
            index[control] = 1
            block = psi[tuple(index)]
            axis = target - (target > control)
            psi[tuple(index)] = block[tuple(slice(None, None, -1) if a == axis else slice(None)
                                            for a in range(n - 1))]
        else:
            (q,) = qubits
            psi = np.moveaxis(np.tensordot(_rotation(kind, gate["angle"]), psi, axes=([1], [q])), 0, q)
    return psi


def parity_signs(n: int) -> np.ndarray:
    """(-1)^popcount(s) for every basis index s of n qubits."""
    signs = np.ones(1)
    for _ in range(n):
        signs = np.concatenate([signs, -signs])
    return signs


def zstring_value(doc: dict) -> float:
    """Exact <Z x ... x Z> of the circuit document's output state."""
    probs = np.abs(statevector(doc).reshape(-1)) ** 2
    return float(probs @ parity_signs(doc["num_qubits"]))


# ---------------------------------------------------------------------------
# Diagonal-channel reconstruction of a decomposition document
# ---------------------------------------------------------------------------


def _local_diagonals(op: dict) -> list[tuple[float, np.ndarray]]:
    """The (weight, diagonal) Kraus-like expansion of one local operation."""
    n = op["num_qubits"]
    dim = 2**n
    index = np.arange(dim)

    def zlayer(mask: int) -> np.ndarray:
        # mask bit q selects qubit q, which is bit n-1-q of the basis index
        flips = sum(((index >> (n - 1 - q)) & 1) for q in range(n) if (mask >> q) & 1)
        return (-1.0) ** np.asarray(flips, dtype=float) * np.ones(dim)

    def basis(j: int) -> np.ndarray:
        e = np.zeros(dim)
        e[j] = 1.0
        return e

    variant = op["variant"]
    if variant == "mcp":
        d = np.ones(dim, dtype=complex)
        d[-1] = np.exp(1j * op["theta"])
        return [(1.0, d)]
    if variant == "zlayer":
        return [(1.0, zlayer(op["mask"]))]
    if variant == "zmix":
        return [(1.0 / dim, zlayer(mask)) for mask in range(dim)]
    if variant == "zmix_rest":
        return [(1.0 / (dim - 1), zlayer(mask)) for mask in range(1, dim)]
    if variant == "signed_projector":
        return [(-1.0 if j == dim - 1 else 1.0, basis(j)) for j in range(dim)]
    if variant == "projector":
        return [(1.0, basis(dim - 1))]
    raise ValueError(f"unknown local operation variant {variant!r}")


def local_multiplier(op: dict) -> np.ndarray:
    """Lambda with rho -> Lambda o rho (entrywise) for one local operation."""
    return sum(w * np.outer(d, d.conj()) for w, d in _local_diagonals(op))


def reconstruction_residual(doc: dict) -> float:
    """Frobenius distance between the document's channel and the MCZ channel.

    A holds the leading qubits, so the product channel's multiplier is
    kron(Lambda_A, Lambda_B); the MCZ channel's multiplier is u u^H with u the
    diagonal of the gate.
    """
    order = doc["k"] + doc["m"]
    total = np.zeros((2**order, 2**order), dtype=complex)
    for term in doc["terms"]:
        total += term["coefficient"] * np.kron(local_multiplier(term["opA"]),
                                               local_multiplier(term["opB"]))
    u = np.ones(2**order)
    u[-1] = -1.0
    return float(np.linalg.norm(total - np.outer(u, u)))


# ---------------------------------------------------------------------------
# Closed-form overhead constant
# ---------------------------------------------------------------------------


def closed_form_kappa(k: int, m: int) -> float:
    """kappa of the (k, m) split; symmetric in k and m."""
    k, m = sorted((k, m))
    if k == 1:
        return {1: 3.0, 2: 4.5}.get(m, 5.0)
    if k == 2:
        return 5.5 if m == 2 else 5.75
    return 6.0 - 2.0**-k - 2.0**-m


def hoeffding_shots(epsilon: float, delta: float, kappa: float) -> int:
    """Smallest N with N >= 2 kappa^2 / eps^2 * ln(2 / delta)."""
    return math.ceil(2.0 * kappa**2 / epsilon**2 * math.log(2.0 / delta))
