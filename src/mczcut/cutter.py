"""Quasiprobability decomposition of a multi-controlled-Z channel across a cut.

The generator derives the term list programmatically instead of transcribing
a fixed table: the 4x4 coupling block between the partitions is expanded into
eight rank-one products of phase states and the (1,-1) vector; each vector
contracts with its partition's H-box into either a multi-controlled phase
gate or a projector onto |1...1>; each projector channel is then rewritten as
half the difference of the uniform Z-layer mixture and a signed projector
map, and terms with identical local operations are merged.

Merging granularity: a Z-mixture over at most two qubits is expanded into its
elementary Z-layer unitaries (all directly runnable circuit layers), which
realizes every exact cancellation against the identity and local-MCZ terms.
For larger sides the mixture is kept as a single sampled operation, except
that when neither side is expandable the identity component of each mixture
is split off so it can merge with the global identity term.  This reproduces
the known overhead values kappa = 3 (CZ), 4.5 (CCZ), 5 (one qubit removed,
order 5) and keeps every generated kappa strictly below 6.

Every local operation is a diagonal-Kraus map rho -> sum_i w_i D_i rho D_i^dagger,
i.e. the entrywise product Lambda o rho with Lambda = sum_i w_i d_i d_i^H, so a
decomposition is certified by comparing sum_j a_j Lambda_A,j (x) Lambda_B,j with
u u^H of the MCZ diagonal u, up to order 10.  At orders up to 4 the dense
superoperator oracle in densesim cross-checks every certificate independently.
Certification and sampling read the same expansion (w_i, d_i) of
``LocalOperation.signed_diagonal_terms``: ``term_tables`` runs each of its
terms as one execution branch, so the sampled maps are the certified ones.

``embed`` builds one ``CutSide`` per partition, its gates remapped once, and
every term shares the two sides.  ``term_tables`` builds the sampler's branch
tables from them in one pass: it runs each side's pre-MCZ gates once and
simulates and normalises each distinct branch of a side once, a branch being
a diagonal (keyed by its bytes) or a projective outcome.  So a projector and
a signed projector share their outcome simulations, and a Z-layer shares its
simulation with the same layer inside a Z-mixture.  ``branch_table_bytes``
counts those distinct branches from the sides and operations alone, and
``exact_cut_expectation`` sums the tables' exact means.

``prepare`` is the one path from a cut to what the samplers read, for the
``sample`` and ``experiment`` commands alike, so the order ceiling, the
table bound and the certificate are checked in one place.

``final_state`` gives the cut circuit's exact final state without the
decomposition, from the MCZ's rank-two form I - 2 P_A (x) P_B and side-sized
runs only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import densesim, zhcalc
from .circuit import ANGLE_TOL, Circuit, Gate, Observable, PartitionedCut

THETA_SET = (-math.pi / 2, 0.0, math.pi / 2, math.pi)
COEFF_TOL = 1e-14

# LocalOperation variants.  "mcp" and "zlayer" are diagonal-phase unitaries;
# "zmix" is the uniform mixture of all 2^n Z-layers, "zmix_rest" the uniform
# mixture of the 2^n - 1 non-identity ones; the projective variants sum signed
# computational-basis projections.
PROJECTIVE_VARIANTS = ("signed_projector", "projector")
VARIANTS = ("mcp", "zlayer", "zmix", "zmix_rest") + PROJECTIVE_VARIANTS


@dataclass(frozen=True)
class LocalOperation:
    """One local map of a decomposition term on a single partition.

    ``mcp`` applies diag(1,...,1,e^{i theta}) over all ``num_qubits`` qubits,
    ``zlayer`` applies Z on the qubits selected by ``mask`` (mask 0 is the
    identity).  The mixture variants average Z-layer channels;
    ``signed_projector`` is sum_l xi_l P_l . P_l with xi = -1 only at the
    all-ones outcome, and ``projector`` the same sum with xi = 1 at the
    all-ones outcome and 0 elsewhere.

    ``signed_diagonal_terms`` is the only definition of what an operation
    does: certification builds its channel multiplier from that expansion,
    and sampling runs each of its terms as one branch.
    """

    variant: str
    num_qubits: int
    theta: float | None = None
    mask: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown local operation variant {self.variant!r}")
        if self.variant == "mcp" and self.theta is None:
            raise ValueError("mcp operation requires theta")
        if self.variant == "zlayer" and self.mask is None:
            raise ValueError("zlayer operation requires a mask")
        if self.num_qubits < 1:
            raise ValueError("local operation needs at least one qubit")
        if self.mask is not None and not 0 <= self.mask < 2**self.num_qubits:
            raise ValueError(f"mask {self.mask} out of range for {self.num_qubits} qubits")

    # -- constructors with canonicalization ---------------------------------
    @staticmethod
    def mcp(n: int, theta: float) -> "LocalOperation":
        if abs(theta) < ANGLE_TOL:
            return LocalOperation("zlayer", n, mask=0)
        if n == 1 and abs(theta - math.pi) < ANGLE_TOL:
            return LocalOperation("zlayer", 1, mask=1)
        return LocalOperation("mcp", n, theta=float(theta))

    @staticmethod
    def zlayer(n: int, mask: int) -> "LocalOperation":
        return LocalOperation("zlayer", n, mask=int(mask))

    @staticmethod
    def identity(n: int) -> "LocalOperation":
        return LocalOperation("zlayer", n, mask=0)

    @staticmethod
    def zmix(n: int) -> "LocalOperation":
        return LocalOperation("zmix", n)

    @staticmethod
    def zmix_rest(n: int) -> "LocalOperation":
        return LocalOperation("zmix_rest", n)

    @staticmethod
    def signed_projector(n: int) -> "LocalOperation":
        return LocalOperation("signed_projector", n)

    @staticmethod
    def projector(n: int) -> "LocalOperation":
        return LocalOperation("projector", n)

    # -- semantics -----------------------------------------------------------
    def signed_diagonal_terms(self) -> list[tuple[float, np.ndarray]]:
        """Expand into weighted conjugation terms (weight w, diagonal d of M).

        For ``mcp``, ``zlayer`` and the Z-mixtures each d is a unit-modulus
        phase diagonal and w its probability.  For the projective variants
        term l is the basis projector onto outcome l, in index order, and w
        is that outcome's sign xi_l.
        """
        n = self.num_qubits
        if self.variant == "mcp":
            return [(1.0, densesim.mcp_diagonal(n, self.theta))]
        if self.variant == "zlayer":
            return [(1.0, densesim.zlayer_diagonal(n, self.mask))]
        if self.variant == "zmix":
            return [(1.0 / 2**n, d) for d in densesim.zlayer_diagonals(n, range(2**n))]
        if self.variant == "zmix_rest":
            w = 1.0 / (2**n - 1)
            return [(w, d) for d in densesim.zlayer_diagonals(n, range(1, 2**n))]
        if self.variant == "signed_projector":
            xi = [1.0] * (2**n - 1) + [-1.0]
        else:
            xi = [0.0] * (2**n - 1) + [1.0]
        return list(zip(xi, np.eye(2**n, dtype=complex)))

    def sort_key(self):
        return (VARIANTS.index(self.variant), self.num_qubits,
                self.theta if self.theta is not None else 0.0,
                self.mask if self.mask is not None else -1)

    def to_document(self) -> dict:
        doc = {"variant": self.variant, "num_qubits": self.num_qubits}
        if self.theta is not None:
            doc["theta"] = self.theta
        if self.mask is not None:
            doc["mask"] = self.mask
        return doc


@dataclass(frozen=True)
class DecompositionTerm:
    coefficient: float
    op_a: LocalOperation
    op_b: LocalOperation


@dataclass
class Decomposition:
    """A term list whose weighted local channels reproduce the MCZ channel."""

    terms: list[DecompositionTerm]
    k: int
    m: int
    verified: bool = False

    @property
    def order(self) -> int:
        return self.k + self.m

    @property
    def kappa(self) -> float:
        """1-norm of the coefficients; mixture terms count once at |a| since their
        internal weights are convex and measurement signs satisfy |xi| <= 1."""
        return float(sum(abs(t.coefficient) for t in self.terms))

    def to_document(self) -> dict:
        return {
            "order": self.order,
            "k": self.k,
            "m": self.m,
            "kappa": self.kappa,
            "terms": [
                {"coefficient": t.coefficient,
                 "opA": t.op_a.to_document(),
                 "opB": t.op_b.to_document()}
                for t in self.terms
            ],
        }


# ---------------------------------------------------------------------------
# Rank-one decomposition of the coupling block
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockVector:
    """A side vector of the coupling-block decomposition.

    Either a phase state |+> + e^{i theta}|-> (which covers the computational
    basis states at theta = 0, pi and the Y eigenstates at theta = -+ pi/2) or
    the (1, -1) vector.
    """

    kind: str  # "phase" | "minus"
    theta: float = 0.0

    def outer(self) -> np.ndarray:
        """Exact rank-one outer product |v><v|, with integer entries: a phase
        state's theta is one of THETA_SET, the only angles
        ``decompose_choi_block`` builds."""
        if self.kind == "minus":
            return np.array([[1, -1], [-1, 1]], dtype=complex)
        c, s = {0.0: (1, 0), math.pi / 2: (0, 1), -math.pi / 2: (0, -1), math.pi: (-1, 0)}[self.theta]
        return np.array([[1 + c, 1j * s], [-1j * s, 1 - c]], dtype=complex)


@dataclass
class ChoiBlockDecomposition:
    """Rank-one product decomposition of the 4x4 coupling block (eight terms)."""

    terms: list[tuple[float, BlockVector, BlockVector]]

    def reconstruct(self) -> np.ndarray:
        total = np.zeros((4, 4), dtype=complex)
        for c, va, vb in self.terms:
            total += c * np.kron(va.outer(), vb.outer())
        return total


def decompose_choi_block() -> ChoiBlockDecomposition:
    """The eight-term rank-one decomposition of the coupling block.

    Four matched phase-state terms over {-pi/2, 0, pi/2, pi}, the pi term with
    a negative sign, minus four mixed terms pairing theta in {0, pi} with the
    (1,-1) vector.
    """
    terms: list[tuple[float, BlockVector, BlockVector]] = []
    for theta in THETA_SET:
        alpha = -1.0 if abs(theta - math.pi) < ANGLE_TOL else 1.0
        v = BlockVector("phase", theta)
        terms.append((0.5 * alpha, v, v))
    minus = BlockVector("minus")
    for theta in (0.0, math.pi):
        alpha = -1.0 if abs(theta - math.pi) < ANGLE_TOL else 1.0
        v = BlockVector("phase", theta)
        terms.append((-0.5 * alpha, v, minus))
        terms.append((-0.5 * alpha, minus, v))
    return ChoiBlockDecomposition(terms)


# ---------------------------------------------------------------------------
# MCZ decomposition generator
# ---------------------------------------------------------------------------

def _side_operation(vec: BlockVector, n: int) -> tuple[LocalOperation, float]:
    """Contract a block vector with the partition's H-box.

    A phase state yields sqrt(2) MCP(theta), so the channel picks up a factor
    2; the (1,-1) vector yields twice the all-ones projector, factor 4.
    """
    if vec.kind == "phase":
        return LocalOperation.mcp(n, vec.theta), 2.0
    return LocalOperation.projector(n), 4.0


def _rewrite_projector_op(op: LocalOperation) -> list[tuple[float, LocalOperation]]:
    """Projector channel -> (Z-mixture - signed projector) / 2."""
    if op.variant != "projector":
        return [(1.0, op)]
    n = op.num_qubits
    return [(0.5, LocalOperation.zmix(n)), (-0.5, LocalOperation.signed_projector(n))]


def _expand_zmix(op: LocalOperation, expand: bool, extract_identity: bool):
    if op.variant != "zmix":
        return [(1.0, op)]
    n = op.num_qubits
    if expand:
        return [(1.0 / 2**n, LocalOperation.zlayer(n, mask)) for mask in range(2**n)]
    if extract_identity:
        return [(1.0 / 2**n, LocalOperation.identity(n)),
                (1.0 - 1.0 / 2**n, LocalOperation.zmix_rest(n))]
    return [(1.0, op)]


def _merge_terms(terms: list[DecompositionTerm]) -> list[DecompositionTerm]:
    merged: dict[tuple, float] = {}
    for t in terms:
        key = (t.op_a, t.op_b)
        merged[key] = merged.get(key, 0.0) + t.coefficient
    out = [DecompositionTerm(a, *key) for key, a in merged.items() if abs(a) > COEFF_TOL]
    out.sort(key=lambda t: (-abs(t.coefficient), t.op_a.sort_key(), t.op_b.sort_key()))
    return out


def _rewritten_terms(k: int, m: int) -> list[DecompositionTerm]:
    """The raw twelve-term list: every block term contracted with the H-boxes
    and its projectors rewritten, mixtures unexpanded and nothing merged.
    Its structure is identical for every cut position and order."""
    rewritten: list[DecompositionTerm] = []
    for c, va, vb in decompose_choi_block().terms:
        op_a, scale_a = _side_operation(va, k)
        op_b, scale_b = _side_operation(vb, m)
        coefficient = 0.25 * c * scale_a * scale_b
        for fa, oa in _rewrite_projector_op(op_a):
            for fb, ob in _rewrite_projector_op(op_b):
                rewritten.append(DecompositionTerm(coefficient * fa * fb, oa, ob))
    return rewritten


def decompose_mcz(k: int, m: int) -> Decomposition:
    """Decompose the order-(k+m) MCZ channel across a cut with k A-side qubits."""
    if k < 1 or m < 1:
        raise ValueError("both sides of the cut need at least one qubit")
    extract = min(k, m) >= 3
    expanded: list[DecompositionTerm] = []
    for t in _rewritten_terms(k, m):
        for fa, oa in _expand_zmix(t.op_a, k <= 2, extract):
            for fb, ob in _expand_zmix(t.op_b, m <= 2, extract):
                expanded.append(DecompositionTerm(t.coefficient * fa * fb, oa, ob))
    return Decomposition(_merge_terms(expanded), k, m)


def decompose_ccz() -> Decomposition:
    """The CCZ special case: a (1, 2) cut with kappa = 4.5."""
    return decompose_mcz(1, 2)


# ---------------------------------------------------------------------------
# Oracle verification
# ---------------------------------------------------------------------------

# Highest gate order the diagonal-multiplier oracle certifies; its d x d
# multipliers take 16 MB per complex array at order 10.
MAX_CERTIFIED_ORDER = 10
# Orders up to which the brute-force dense superoperator oracle cross-checks
# every certificate, so that the multiplier path never certifies itself alone.
DENSE_CHECK_MAX_ORDER = 4
# Frobenius-residual tolerance of every decomposition certificate.
ORACLE_TOL = 1e-10
# Rows of u u^H formed at a time when a residual subtracts it, so no
# order-sized target is built; orders up to 7 take one block.
TARGET_BLOCK_ROWS = 128


@dataclass(frozen=True)
class VerificationReport:
    residual: float
    hbox_form_residual: float
    dense_residual: float | None = None

    @property
    def passed(self) -> bool:
        residuals = [self.residual, self.hbox_form_residual]
        if self.dense_residual is not None:
            residuals.append(self.dense_residual)
        return all(r < ORACLE_TOL for r in residuals)


def channel_multiplier(op: LocalOperation) -> np.ndarray:
    """Entrywise multiplier of a local operation's channel.

    The map rho -> sum_i w_i D_i rho D_i^dagger with diagonal D_i equals
    Lambda o rho with Lambda = sum_i w_i d_i d_i^H, built here from the
    operation's signed-diagonal expansion as one matrix product.
    """
    weights, diagonals = zip(*op.signed_diagonal_terms())
    d = np.array(diagonals)
    return (d * np.array(weights)[:, None]).T @ d.conj()


def _mcz_channel_from_hbox_form(k: int, m: int) -> np.ndarray:
    """The MCZ channel's multiplier assembled from the double-fusion form.

    One quarter of the coupling block contracted against the four local
    MCZ-power operators: the H-box with a basis vector on its free leg gives
    the identity (index 0) or the local MCZ (index 1) on each of the four
    doubled legs.  Row a * 2 + b of ``legs`` is the joint diagonal for
    indices (a, b); since (L rho R)[r, c] = L[r] rho[r, c] R[c] for diagonal
    L and R, the multiplier is legs^T q legs.
    """
    q = zhcalc.choi_block_matrix()
    mcz_a = [np.ones(2**k, dtype=complex), densesim.mcp_diagonal(k, math.pi)]
    mcz_b = [np.ones(2**m, dtype=complex), densesim.mcp_diagonal(m, math.pi)]
    legs = np.array([np.kron(mcz_a[a], mcz_b[b]) for a in (0, 1) for b in (0, 1)])
    return 0.25 * legs.T @ q @ legs


def _dense_oracle_residual(decomposition: Decomposition) -> float:
    """Frobenius residual of the term sum against the MCZ channel, computed
    with dense superoperator matrices (independent of the multiplier path)."""
    superops = {op: densesim.superop_of_local_operation(op)
                for t in decomposition.terms for op in (t.op_a, t.op_b)}
    total = densesim.pair_superop([(t.coefficient, superops[t.op_a], superops[t.op_b])
                                   for t in decomposition.terms]).matrix
    total -= densesim.superop_of_unitary(densesim.mcz_unitary(decomposition.order)).matrix
    return float(np.linalg.norm(total))


def _residual_against_mcz(channel: np.ndarray, u: np.ndarray) -> float:
    """Frobenius norm of channel - u u^H, subtracted in place by row blocks."""
    u_conj = u.conj()
    for start in range(0, len(u), TARGET_BLOCK_ROWS):
        rows = slice(start, start + TARGET_BLOCK_ROWS)
        channel[rows] -= np.outer(u[rows], u_conj)
    return float(np.linalg.norm(channel))


def verify(decomposition: Decomposition) -> VerificationReport:
    """Certify that the weighted local channels sum to the MCZ channel.

    Compares sum_j a_j kron(Lambda_A,j, Lambda_B,j) with u u^H (partition A
    on the leading qubits); the dense superoperator of such a map is
    diag(vec Lambda), so the Frobenius residual equals the dense oracle's.
    Also certifies the intermediate double-fusion form of the channel, and
    up to DENSE_CHECK_MAX_ORDER runs the dense oracle as well.  Passing marks
    the decomposition as verified.
    """
    k, m = decomposition.k, decomposition.m
    if k + m > MAX_CERTIFIED_ORDER:
        raise ValueError(f"oracle limited to order {MAX_CERTIFIED_ORDER}")
    u = densesim.mcp_diagonal(k + m, math.pi)
    multipliers = {op: channel_multiplier(op)
                   for t in decomposition.terms for op in (t.op_a, t.op_b)}
    total = np.zeros((len(u), len(u)), dtype=u.dtype)
    # total[(r_a, r_b), (c_a, c_b)] as a 4-axis view, so each Kronecker
    # product is one broadcast multiplication, the one np.kron makes
    total_view = total.reshape(2**k, 2**m, 2**k, 2**m)
    for t in decomposition.terms:
        total_view += t.coefficient * (multipliers[t.op_a][:, None, :, None]
                                       * multipliers[t.op_b][None, :, None, :])
    residual = _residual_against_mcz(total, u)
    del total, total_view  # so the double-fusion form does not sit beside it
    hbox_residual = _residual_against_mcz(_mcz_channel_from_hbox_form(k, m), u)
    dense_residual = _dense_oracle_residual(decomposition) if k + m <= DENSE_CHECK_MAX_ORDER else None
    report = VerificationReport(residual, hbox_residual, dense_residual)
    decomposition.verified = report.passed
    return report


def rewrite_projector(n: int) -> float:
    """Residual of 2 P...P = Z-mixture - signed projector as channel multipliers.

    Up to DENSE_CHECK_MAX_ORDER qubits the identity is also checked on dense
    superoperator matrices; the larger of the two residuals is returned, for
    the caller to judge like every ``zhcalc`` check.
    """
    if n > 5:
        raise ValueError("projector rewrite check limited to n <= 5")
    ops = (LocalOperation.projector(n), LocalOperation.zmix(n), LocalOperation.signed_projector(n))
    proj, zm, sp = (channel_multiplier(op) for op in ops)
    residual = float(np.max(np.abs(2.0 * proj - (zm - sp))))
    if n <= DENSE_CHECK_MAX_ORDER:
        # in place, holding at most two dense matrices at a time
        difference = densesim.superop_of_local_operation(ops[1]).matrix
        difference -= densesim.superop_of_local_operation(ops[2]).matrix
        doubled = densesim.superop_of_local_operation(ops[0]).matrix
        doubled *= 2.0
        doubled -= difference
        residual = max(residual, float(np.max(np.abs(doubled))))
    return residual


# ---------------------------------------------------------------------------
# Embedding a decomposition into a partitioned circuit
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CutSide:
    """One partition of a cut circuit: its gates before and after the cut
    gate on partition-local qubits, the local qubits ``op_qubits`` where a
    term's operation replaces the cut gate, and the partition's circuit
    qubits ``source_qubits`` in local order.  Compared and hashed by
    identity: ``embed`` builds one per partition, shared by every term."""

    num_qubits: int
    pre_gates: tuple[Gate, ...]
    op_qubits: tuple[int, ...]
    post_gates: tuple[Gate, ...]
    source_qubits: tuple[int, ...]


@dataclass(frozen=True)
class EmbeddedTerm:
    """A decomposition term placed on a cut: ``op_a`` replaces the cut gate
    on ``side_a`` and ``op_b`` on ``side_b``."""

    coefficient: float
    op_a: LocalOperation
    op_b: LocalOperation
    side_a: CutSide
    side_b: CutSide


def _remap_gate(gate: Gate, mapping: dict[int, int]) -> Gate:
    return Gate(gate.kind, tuple(mapping[q] for q in gate.qubits), gate.angle)


def _cut_side(cut: PartitionedCut, label: str) -> CutSide:
    circuit = cut.circuit
    qubits = circuit.qubits_in(label)
    mapping = {q: i for i, q in enumerate(qubits)}
    cut_gate = cut.gate
    op_qubits = tuple(mapping[q] for q in sorted(q for q in cut_gate.qubits if circuit.partition[q] == label))
    pre, post = [], []
    for i, gate in enumerate(circuit.gates):
        if i == cut.cut_gate_index:
            continue
        if circuit.partition[gate.qubits[0]] != label:
            continue
        (pre if i < cut.cut_gate_index else post).append(_remap_gate(gate, mapping))
    return CutSide(len(qubits), tuple(pre), op_qubits, tuple(post), qubits)


def embed(decomposition: Decomposition, cut: PartitionedCut) -> list[EmbeddedTerm]:
    """Place every term of the decomposition on the cut's two sides, which
    are built once and shared by all terms."""
    if (decomposition.k, decomposition.m) != (cut.k, cut.m):
        raise ValueError(f"decomposition split ({decomposition.k},{decomposition.m}) "
                         f"does not match cut split ({cut.k},{cut.m})")
    side_a, side_b = _cut_side(cut, "A"), _cut_side(cut, "B")
    return [EmbeddedTerm(t.coefficient, t.op_a, t.op_b, side_a, side_b) for t in decomposition.terms]


# ---------------------------------------------------------------------------
# Exact branch semantics of an embedded subcircuit
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SideTable:
    """What the samplers draw from for one operation on one side, computed
    once per table rather than per estimate, and frozen, since every
    estimate over the same terms reads it:

    * ``probs``: the normalised branch probabilities;
    * ``dists``: each branch's normalised outcome distribution;
    * ``signs``: each branch's sign, 0 or +-1, which multiplies the side's
      observable ``values`` (its Z-string parities, each +-1) in every shot
      of that branch.

    A branch is one term (w, d) of the operation's signed-diagonal expansion,
    the one certification reads: a phase diagonal d is applied with
    probability w and sign 1; a projective term l measures outcome l with its
    Born probability and carries sign w (zero-probability outcomes are
    skipped).
    """

    probs: np.ndarray
    dists: list[np.ndarray]
    signs: list[float]
    values: np.ndarray

    def mean(self) -> float:
        """Exact expectation of the side's observable over its branches."""
        return float(sum(p * sign * float(dist @ self.values)
                         for p, sign, dist in zip(self.probs, self.signs, self.dists)))


TermTables = list[tuple[SideTable, SideTable]]


def _branch_terms(op: LocalOperation) -> list[tuple[float, int | bytes, np.ndarray]]:
    """(w, key, d) for each term (w, d) of the operation's signed-diagonal
    expansion.  The key names the branch within its side: the outcome of a
    projective term, the diagonal's bytes otherwise."""
    projective = op.variant in PROJECTIVE_VARIANTS
    return [(weight, outcome if projective else diagonal.tobytes(), diagonal)
            for outcome, (weight, diagonal) in enumerate(op.signed_diagonal_terms())]


def term_tables(terms: list[EmbeddedTerm], values_a: np.ndarray, values_b: np.ndarray) -> TermTables:
    """The (A, B) branch tables of every term.

    Each side's gates before the cut run once.  Each distinct branch of a
    side, a diagonal's bytes or a projective outcome, is simulated and
    normalised once, so tables share the distribution arrays of equal
    branches.  Each distinct (side, operation) pair gets one table, which
    scores its partition's values.  The simulation calls are those of a
    single table, so every distribution keeps its bits.  Tables depend only
    on the sides and operations, never on a seed, so one list serves every
    estimate over the same terms (the ``tables=`` keyword of the sampler's
    estimators).  Each side's values are the parities of its Z-string, so a
    value that is not +-1 is refused: the samplers' sums rest on it.
    """
    for label, values in (("A", values_a), ("B", values_b)):
        if not np.all((values == 1.0) | (values == -1.0)):
            raise ValueError(f"side {label} values must all be +1 or -1 (a Z-string parity)")
    pre_states = {side: densesim.run(Circuit(side.num_qubits, side.pre_gates))
                  for side in dict.fromkeys(side for t in terms for side in (t.side_a, t.side_b))}
    simulated: dict[tuple, tuple[float | None, np.ndarray] | None] = {}
    tables: dict[tuple[CutSide, LocalOperation], SideTable] = {}

    def table(side: CutSide, op: LocalOperation, values: np.ndarray) -> SideTable:
        if (side, op) in tables:
            return tables[side, op]
        projective = op.variant in PROJECTIVE_VARIANTS
        probs, dists, signs = [], [], []
        for weight, key, diagonal in _branch_terms(op):
            if (side, key) not in simulated:
                simulated[side, key] = _simulate_branch(side, projective, pre_states[side], key, diagonal)
            if simulated[side, key] is None:
                continue  # zero-probability outcome
            prob, distribution = simulated[side, key]
            probs.append(prob if projective else weight)
            signs.append(weight if projective else 1.0)
            dists.append(distribution)
        probs = np.array(probs)
        tables[side, op] = SideTable(probs / probs.sum(), dists, signs, values)
        return tables[side, op]

    return [(table(t.side_a, t.op_a, values_a), table(t.side_b, t.op_b, values_b)) for t in terms]


def _simulate_branch(side: CutSide, projective: bool, pre_state: densesim.StateVector,
                     key: int | bytes, diagonal: np.ndarray) -> tuple[float | None, np.ndarray] | None:
    """(Born probability or None, normalised final distribution) of one
    branch; None for a projective outcome of zero probability."""
    if projective:
        try:
            state, prob = densesim.project(pre_state, side.op_qubits, key)
        except ValueError:
            return None
    else:
        state, prob = densesim.apply_diagonal(pre_state, side.op_qubits, diagonal), None
    distribution = densesim.run(Circuit(side.num_qubits, side.post_gates), state).probabilities()
    distribution /= distribution.sum()  # in place: the bits of distribution / distribution.sum()
    return prob, distribution


def branch_table_bytes(terms: list[EmbeddedTerm]) -> int:
    """Bytes of the distinct branch distributions ``term_tables`` holds for
    these terms, from the sides and operations alone: per side of s qubits,
    distinct branches x 2^s x 8.  It counts every projective outcome, so it
    is exact unless an outcome has zero probability, and never too small."""
    plans = {(side, op) for t in terms for side, op in ((t.side_a, t.op_a), (t.side_b, t.op_b))}
    branches = {(side, key) for side, op in plans for _, key, _ in _branch_terms(op)}
    return sum(8 * 2**side.num_qubits for side, _ in branches)


def exact_cut_expectation(terms: list[EmbeddedTerm], values_a: np.ndarray, values_b: np.ndarray) -> float:
    """Exact weighted reconstruction sum over all embedded term pairs."""
    return sum(term.coefficient * table_a.mean() * table_b.mean()
               for term, (table_a, table_b) in zip(terms, term_tables(terms, values_a, values_b)))


# ---------------------------------------------------------------------------
# The certified path from a cut to its sampling tables
# ---------------------------------------------------------------------------

# The most branch-distribution bytes (``branch_table_bytes``) ``prepare`` builds.
MAX_TABLE_BYTES = 2**31


@dataclass(frozen=True, eq=False)
class PreparedCut:
    """What the samplers read for one cut: its embedded ``terms``, each
    side's Z-string parities ``values_a`` and ``values_b``, and the
    ``tables`` ``term_tables`` builds from them."""

    terms: list[EmbeddedTerm]
    values_a: np.ndarray
    values_b: np.ndarray
    tables: TermTables


def prepare(cut: PartitionedCut, decomposition: Decomposition) -> PreparedCut:
    """Place a certified decomposition on a cut and build its branch tables.

    Refuses, each with one ``ValueError`` line, a cut above
    ``MAX_CERTIFIED_ORDER``, tables above ``MAX_TABLE_BYTES`` (counted
    before any simulation or certification) and a decomposition that fails
    ``verify``.  A decomposition already marked verified is not certified
    again, so one shared by many cuts is certified once.
    """
    if cut.order > MAX_CERTIFIED_ORDER:
        raise ValueError(f"cut of order {cut.order} exceeds the certified order {MAX_CERTIFIED_ORDER}")
    terms = embed(decomposition, cut)
    table_bytes = branch_table_bytes(terms)
    if table_bytes > MAX_TABLE_BYTES:
        raise ValueError(f"the branch tables of the ({cut.k},{cut.m}) cut would hold "
                         f"{table_bytes / 2**30:.1f} GiB, above the {MAX_TABLE_BYTES / 2**30:g} GiB limit")
    if not decomposition.verified:
        report = verify(decomposition)
        if not report.passed:
            raise ValueError(f"decomposition ({cut.k},{cut.m}) failed certification: "
                             f"residual {report.residual:.3e}")
    values_a, values_b = (Observable(len(cut.circuit.qubits_in(label))).values for label in "AB")
    return PreparedCut(terms, values_a, values_b, term_tables(terms, values_a, values_b))


# ---------------------------------------------------------------------------
# Exact final state from the MCZ's rank-two form
# ---------------------------------------------------------------------------

def final_state(cut: PartitionedCut) -> densesim.StateVector:
    """The cut circuit's final state, from side-sized runs only.

    MCZ = I - 2 P_A (x) P_B, where P projects a side's MCZ qubits onto 1...1.
    Each side runs its gates before the MCZ once, then its gates after it on
    psi (giving a1) and on P psi (giving a2); the final state a1 (x) b1 -
    2 a2 (x) b2 is transposed into the circuit's qubit order, in which the
    partitions may interleave.  The gates are linear, so P psi runs
    unnormalised: however small its norm, it counts in full (a projection
    that skipped an outcome of probability p would miss sqrt(p) in
    amplitude).  The result carries ``densesim.run``'s norm-drift check.
    """
    side_a, side_b = _cut_side(cut, "A"), _cut_side(cut, "B")
    sides = []
    for side in (side_a, side_b):
        pre_state = densesim.run(Circuit(side.num_qubits, side.pre_gates))
        on_ones = np.zeros(2**len(side.op_qubits))
        on_ones[-1] = 1.0
        projected = densesim.apply_diagonal(pre_state, side.op_qubits, on_ones)
        for gate in side.post_gates:
            projected = densesim.apply_gate(projected, gate)
        after = densesim.run(Circuit(side.num_qubits, side.post_gates), pre_state)
        sides.append((after.amplitudes, projected.amplitudes))
    (a1, a2), (b1, b2) = sides
    joint = np.outer(a1, b1)
    # minus 2 (a2 (x) b2) by row blocks: no second full-size array, same bits
    for rows, doubled_rows in zip(np.array_split(joint, 8), np.array_split(2.0 * a2, 8)):
        rows -= np.outer(doubled_rows, b2)
    n = cut.circuit.num_qubits
    order = side_a.source_qubits + side_b.source_qubits
    amplitudes = joint.reshape((2,) * n).transpose(np.argsort(order)).reshape(-1)
    return densesim.check_norm(densesim.StateVector(amplitudes, n))
