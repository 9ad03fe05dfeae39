"""Monte-Carlo estimators for cut circuits.

Two modes are provided.  Circuit-sampling mode draws a decomposition term
per shot with probability |a_i| / kappa, runs both subcircuits once, and
averages kappa * sign(a_i) * xi_A f_A(s_A) * xi_B f_B(s_B); the Hoeffding
bound sizes its budget.  Pre-estimation mode first estimates every
subcircuit expectation with its allocated share N_i = |a_i| N / (2 kappa)
of the budget and then combines them as sum_i a_i <O_A>_i <O_B>_i.  Each
f is a side's Z-string parity, +-1 on every outcome (``term_tables`` refuses
other values), and each branch sign xi is 0 or +-1, so no shot scores more
than kappa in absolute value.

Sampling is executed by aggregated multinomial draws over the exact branch
and outcome distributions, which is statistically identical to a per-shot
loop, deterministic for a fixed seed, and fast enough for the 10^8-shot
budgets.  The branch tables (``cutter.term_tables``, imported here) depend
only on the cut's sides and the terms' operations; a caller that runs many
estimates over the same terms builds them once and passes them in, as
``sample`` and ``experiment`` pass those of ``cutter.prepare``.

Randomness uses PCG64 streams keyed by stable seed-sequence spawn keys, so
results do not depend on execution order or worker count.  The stream of
key (head, *tail) under seed s is Generator(PCG64(SeedSequence(s,
spawn_key=(head, *tail)))): head 2 and tail (i, side) for a pre-estimation
term's side, head 1 and tail (i,) for a circuit-sampling term.  An estimate
builds all of its term streams in one pass (``_term_streams``): the seed
sequence's hash of the words every key shares is computed once, the tails
are hashed together in one vectorised pass, and each stream's PCG64 state
is set on one reused Generator.  The streams are numpy's, word for word;
``_rng_for`` builds a single stream the plain way.  ``_PCG64Words`` reads a
PCG64 Generator's draws off raw words taken in blocks, as numpy's C code
draws them, for the random-circuit generator's many small draws.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .cutter import Decomposition, EmbeddedTerm, SideTable, TermTables, term_tables


@dataclass(frozen=True)
class ShotBudget:
    """A total shot count together with the accuracy targets that justify it."""

    total: int
    epsilon: float
    kappa: float
    delta: float | None = None
    mode: str = "preestimation"

    @staticmethod
    def for_circuit_sampling(epsilon: float, delta: float, kappa: float) -> "ShotBudget":
        return ShotBudget(hoeffding_shots(epsilon, delta, kappa), epsilon, kappa, delta,
                          mode="circuit_sampling")


def check_accuracy(epsilon: float, delta: float | None = None) -> None:
    """Reject accuracy targets that no shot budget meets.

    Epsilon must be positive and finite.  With a confidence parameter
    (circuit sampling's Hoeffding budget) epsilon and delta must lie in (0, 1).
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if delta is not None and not (epsilon < 1 and 0 < delta < 1):
        raise ValueError(f"epsilon and delta must lie in (0, 1), got {epsilon!r} and {delta!r}")


# The largest even shot count: budgets are rounded up to even, and
# Generator.multinomial draws at most the int64 maximum.
MAX_SHOTS = int(np.iinfo(np.int64).max) - 1


def _shot_count(bound: float, epsilon: float) -> int:
    """ceil(bound), refused when it exceeds MAX_SHOTS (an infinite bound included)."""
    if not bound <= MAX_SHOTS:
        raise ValueError(f"epsilon {epsilon!r} needs a budget of {bound:.3g} shots, "
                         f"above the {MAX_SHOTS} the sampler can draw")
    return int(math.ceil(bound))


def hoeffding_shots(epsilon: float, delta: float, kappa: float) -> int:
    """Smallest N with N >= 2 kappa^2 / eps^2 * ln(2 / delta) (one cut)."""
    check_accuracy(epsilon, delta)
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    bound = 2.0 * kappa**2 / epsilon**2 * math.log(2.0 / delta) if epsilon**2 else math.inf
    return _shot_count(bound, epsilon)


def preestimation_budget(epsilon: float, kappa: float) -> int:
    """N = ceil(4 kappa^2 / eps^2), bounding the estimator's std-dev by eps."""
    check_accuracy(epsilon)
    try:
        bound = 4.0 * kappa**2 / epsilon**2 if epsilon**2 else math.inf
    except OverflowError:  # eps^2 beyond the float range, so the bound is far below one shot
        raise ValueError(f"epsilon {epsilon!r} is so large that its budget falls below "
                         f"one shot per subcircuit of every term") from None
    return _shot_count(bound, epsilon)


def check_term_floor(total: int, terms, epsilon: float) -> None:
    """Refuse a pre-estimation budget that ``allocate`` cannot split over the
    terms, at one shot per subcircuit of each; a large epsilon gives one."""
    try:
        allocate(terms, total)
    except ValueError:
        raise ValueError(f"epsilon {epsilon!r} gives a budget of {total} shots, too few to split "
                         f"over {len(terms)} terms by |a_i| at one shot or more per subcircuit") from None


def allocate(terms, total: int) -> list[int]:
    """Split a budget as N_i = round(|a_i| N / (2 kappa)) per subcircuit.

    ``terms`` are decomposition or embedded terms; kappa is the 1-norm of
    their coefficients.  Returns the per-subcircuit shot count N_i of each
    term, in term order; the term consumes 2 N_i of the budget.  The rounding
    residual is assigned to the largest-|a| term so that 2 * sum_i N_i = N
    exactly; every term receives at least one shot per subcircuit.  The total
    must be even and large enough to cover all terms.
    """
    if total < 2 * len(terms):
        raise ValueError(f"budget {total} cannot cover {len(terms)} terms at one shot per subcircuit")
    if total % 2:
        raise ValueError("total shot budget must be even (each term runs two subcircuits)")
    kap = float(sum(abs(t.coefficient) for t in terms))
    shares = [abs(t.coefficient) * total / (2.0 * kap) for t in terms]
    counts = [max(1, int(math.floor(x + 0.5))) for x in shares]
    largest = max(range(len(terms)), key=lambda i: abs(terms[i].coefficient))
    counts[largest] += total // 2 - sum(counts)
    if counts[largest] < 1:
        raise ValueError("budget too small after rounding repair")
    return counts


@dataclass
class EstimateRecord:
    """One estimation result with everything needed to reproduce it."""

    estimate: float
    std_dev: float
    shots: int
    mode: str
    seed: int
    kappa: float
    per_term: list[dict] = field(default_factory=list)
    variance_bound: float | None = None
    max_abs_shot: float | None = None

    def to_json(self) -> str:
        doc = {
            "seed": self.seed,
            "mode": self.mode,
            "budget": self.shots,
            "kappa": self.kappa,
            "estimate": self.estimate,
            "std_dev": self.std_dev,
            "variance_bound": self.variance_bound,
            "max_abs_shot": self.max_abs_shot,
            "allocations": [t.get("shots") for t in self.per_term],
            "per_term": self.per_term,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Aggregated sampling over exact branch tables
# ---------------------------------------------------------------------------

def _rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# seeding, to build many streams of one seed in one pass.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(start: int, mult: int, count: int) -> tuple[list[int], list[int]]:
    """The constants ``count`` successive hash steps xor in and multiply by:
    each step multiplies the running constant by ``mult`` between the two."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(start)
        start = start * mult & _MASK32
        mults.append(start)
    return xors, mults


# generate_state(4, uint64) hashes eight uint32 words, cycling over the pool
_STATE_XORS, _STATE_MULTS = (np.array(c, dtype=np.uint32)[:, None] for c in _hash_consts(_INIT_B, _MULT_B, 8))


def _mix(x, y):
    """SeedSequence's mix of two uint32 values (Python ints or uint32 arrays)."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _seed_words(seed: int, head: int, tails: list[tuple[int, ...]]) -> list[tuple[int, int, int, int]]:
    """``SeedSequence(seed, spawn_key=(head, *tail)).generate_state(4, np.uint64)``
    of each tail, in one pass.

    The entropy words are the seed's 32-bit words, zero-padded to the pool
    size, then the key's words.  Those up to the head are shared, so they are
    hashed once in Python ints; the tails (of one length, each entry below
    2^32) are hashed in one uint32 pass over all of them.  The hash constants
    advance the same way whatever the data.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    entropy = []
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32
    entropy += [0] * (_POOL_SIZE - len(entropy)) + [head]
    # the shared words take four hashmix calls each (filling the pool, then
    # mixing it: 4 + 12 for the first four), then four per tail word
    calls = _POOL_SIZE * len(entropy)
    xors, mults = _hash_consts(_INIT_A, _MULT_A, calls + _POOL_SIZE * len(tails[0]))
    step = iter(zip(xors, mults))

    def hashmix(value: int) -> int:
        xor, mult = next(step)
        value = (value ^ xor) * mult & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # one row per pool word, one column per tail
    pools = np.array(pool, dtype=np.uint32)[:, None]
    tail_xors = np.array(xors[calls:], dtype=np.uint32).reshape(-1, _POOL_SIZE, 1)
    tail_mults = np.array(mults[calls:], dtype=np.uint32).reshape(-1, _POOL_SIZE, 1)
    for words, xor, mult in zip(np.array(tails, dtype=np.uint32).T, tail_xors, tail_mults):
        hashed = (words ^ xor) * mult
        hashed ^= hashed >> 16
        pools = _mix(pools, hashed)
    state = (pools[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _STATE_XORS) * _STATE_MULTS
    state ^= state >> 16
    low, high = state[0::2].astype(np.uint64), state[1::2].astype(np.uint64)
    return list(zip(*(low | high << np.uint64(32)).tolist()))


def _pcg64_state(words: tuple[int, int, int, int]) -> dict:
    """The state PCG64 seeds itself to from a seed sequence's four uint64
    words s0 s1 i0 i1: inc = 2 (i0 i1) + 1 and
    state = ((inc + (s0 s1)) MULT + inc) mod 2^128."""
    s0, s1, i0, i1 = words
    inc = (i0 << 65 | i1 << 1 | 1) & _MASK128
    return {"bit_generator": "PCG64",
            "state": {"state": ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


class _PCG64Words:
    """numpy's draws off a PCG64 Generator, read from raw words taken in blocks.

    Each draw copies the C code numpy runs for it (numpy/random/src), so the
    values are numpy's, bit for bit, without a numpy call per draw.  The
    32-bit draws share PCG64's half-word buffer: a new word gives its low half
    and keeps its high half for the next one.  The reader takes words past the
    last one it uses; ``finish`` puts the Generator where numpy's own calls
    would have left it.  Other bit generators are refused.
    """

    BLOCK = 256

    def __init__(self, rng: np.random.Generator):
        self._bit_generator = rng.bit_generator
        self._entry = self._bit_generator.state
        if self._entry["bit_generator"] != "PCG64":
            raise ValueError(f"the circuit generator reads PCG64 streams, "
                             f"not {self._entry['bit_generator']}")
        self._has_half = bool(self._entry["has_uint32"])
        self._half = self._entry["uinteger"]
        self._blocks = 0
        self._words = iter(())

    def word(self) -> int:
        """The next 64-bit word (numpy's ``next_uint64``)."""
        try:
            return next(self._words)
        except StopIteration:
            self._blocks += 1
            self._words = iter(self._bit_generator.random_raw(self.BLOCK).tolist())
            return next(self._words)

    def u32(self) -> int:
        """``next_uint32``: the buffered high half, else a new word's low half."""
        if self._has_half:
            self._has_half = False
            return self._half
        word = self.word()
        self._has_half = True
        self._half = word >> 32
        return word & _MASK32

    def double(self) -> float:
        """``next_double``, uniform on [0, 1)."""
        return (self.word() >> 11) * 2.0**-53

    def bounded(self, r: int) -> int:
        """``buffered_bounded_lemire_uint32``: uniform on [0, r] for r < 2^32 - 1,
        as ``integers(r + 1)`` draws it; r = 0 draws nothing."""
        if not r:
            return 0
        excl = r + 1
        m = self.u32() * excl
        if m & _MASK32 < excl:
            threshold = (_MASK32 - r) % excl
            while m & _MASK32 < threshold:
                m = self.u32() * excl
        return m >> 32

    def interval(self, r: int) -> int:
        """``random_interval``: uniform on [0, r] for r < 2^32 by masked rejection,
        as ``shuffle`` draws it on a list; r = 0 draws nothing."""
        if not r:
            return 0
        mask = (1 << r.bit_length()) - 1
        while (value := self.u32() & mask) > r:
            pass
        return value

    def finish(self) -> None:
        """Leave the Generator's state as numpy's calls for the same draws would."""
        used = self._blocks * self.BLOCK - operator.length_hint(self._words)
        self._bit_generator.state = self._entry
        self._bit_generator.advance(used)
        state = self._bit_generator.state
        state["has_uint32"], state["uinteger"] = int(self._has_half), self._half
        self._bit_generator.state = state


def _term_streams(seed: int, head: int, tails: list[tuple[int, ...]]):
    """The generators ``_rng_for(seed, head, *tail)`` of the tails, in order,
    seeded in one pass (``_seed_words``).

    One Generator serves them all: taking the next stream sets its PCG64 to
    that stream's seeded state, so a stream is used up before the next one is
    taken.  The Generator's only other state is a cache of binomial set-up
    values, a function of each draw's parameters, so the draws are those of a
    fresh generator.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    for words in _seed_words(seed, head, tails):
        rng.bit_generator.state = _pcg64_state(words)
        yield rng


def _sample_side_sum(table: SideTable, shots: int, rng: np.random.Generator):
    """Draw ``shots`` independent runs of one subcircuit; return (sum, sum of squares).

    Every value is +-1 (``term_tables`` checks it) and every sign 0 or +-1,
    so a branch's ``count`` shots add sign^2 * count to the sum of squares,
    and each sum below 2^53 is an exact integer."""
    # one branch takes every shot; numpy's multinomial over one category draws nothing
    branch_counts = (shots,) if table.probs.size == 1 else rng.multinomial(shots, table.probs)
    total = 0.0
    total_sq = 0.0
    for count, dist, sign in zip(branch_counts, table.dists, table.signs):
        if count == 0:
            continue
        outcome_counts = rng.multinomial(count, dist)
        total += sign * float(outcome_counts @ table.values)
        total_sq += sign**2 * float(count)
    return total, total_sq


def _sample_joint_products(table_a: SideTable, table_b: SideTable, shots: int,
                           rng: np.random.Generator):
    """Draw ``shots`` paired runs; return per-shot product sums (sum, sum of squares, max |v|).

    A branch pair's outcome counts C (A outcomes by B outcomes) are scored as
    the side contraction vals_a C vals_b times the pair's sign.  Every value
    is +-1 (``term_tables`` checks it) and every sign 0 or +-1, so each of
    the pair's ``count`` shots scores +-|sign|: it adds sign^2 * count to the
    sum of squares, and |sign| is its largest |v|.  Below 2^53 shots each
    partial sum is an exact integer, so the contraction gives the bits of
    the per-outcome products in any order; above it (``sample --mode shots
    --epsilon 1e-7`` draws 1.5e16) the sums round and may depend on the order.
    """
    joint = np.outer(table_a.probs, table_b.probs).reshape(-1)
    pair_counts = rng.multinomial(shots, joint).reshape(table_a.probs.size, table_b.probs.size)
    # One branch pair's joint outcome distribution and then, once drawn, its
    # outcome counts C as floats: scoring makes no other float array of
    # 2^(s_A + s_B) entries.
    pair = np.empty((table_a.dists[0].size, table_b.dists[0].size))
    vals_a, vals_b = table_a.values, table_b.values
    total = 0.0
    total_sq = 0.0
    vmax = 0.0
    for ia, (dist_a, sign_a) in enumerate(zip(table_a.dists, table_a.signs)):
        for ib, (dist_b, sign_b) in enumerate(zip(table_b.dists, table_b.signs)):
            count = int(pair_counts[ia, ib])
            if count == 0:
                continue
            np.multiply.outer(dist_a, dist_b, out=pair)
            np.copyto(pair, rng.multinomial(count, pair.reshape(-1)).reshape(pair.shape))
            sign = sign_a * sign_b
            total += sign * float(vals_a @ (pair @ vals_b))
            total_sq += sign**2 * float(count)
            vmax = max(vmax, abs(sign))
    return total, total_sq, vmax


def sample_circuit_mode(terms: list[EmbeddedTerm], budget: ShotBudget, seed: int,
                        values_a: np.ndarray, values_b: np.ndarray,
                        decomposition: Decomposition | None = None,
                        tables: TermTables | None = None) -> EstimateRecord:
    """Per-shot estimator: draw term i with p(i) = |a_i| / kappa, run the pair,
    score kappa * sign(a_i) times the signed product of the two outcomes.

    ``tables`` is ``term_tables(terms, values_a, values_b)`` built in advance;
    it is built here when omitted."""
    if decomposition is not None and not decomposition.verified:
        raise ValueError("decomposition has not been verified")
    coeffs = np.array([t.coefficient for t in terms])
    kap = float(np.abs(coeffs).sum())
    probs = np.abs(coeffs) / kap
    n_total = budget.total
    term_counts = _rng_for(seed, 0).multinomial(n_total, probs)
    if tables is None:
        tables = term_tables(terms, values_a, values_b)
    streams = _term_streams(seed, 1, [(i,) for i, count in enumerate(term_counts) if count])

    total = 0.0
    total_sq = 0.0
    per_term = []
    max_abs = 0.0
    for i, ((table_a, table_b), count) in enumerate(zip(tables, term_counts)):
        if count == 0:
            per_term.append({"index": i, "coefficient": float(coeffs[i]), "shots": 0})
            continue
        s, s2, vmax = _sample_joint_products(table_a, table_b, int(count), next(streams))
        sign = math.copysign(1.0, coeffs[i])
        total += kap * sign * s
        total_sq += kap**2 * s2
        max_abs = max(max_abs, kap * vmax)
        per_term.append({"index": i, "coefficient": float(coeffs[i]), "shots": int(count),
                         "mean_product": s / count})
    mean = total / n_total
    var_shot = max(total_sq / n_total - mean**2, 0.0)
    std_err = math.sqrt(var_shot / n_total)
    return EstimateRecord(mean, std_err, n_total, "circuit_sampling", seed, kap, per_term,
                          max_abs_shot=max_abs)


def preestimation_mode(terms: list[EmbeddedTerm], budget: ShotBudget, seed: int,
                       values_a: np.ndarray, values_b: np.ndarray,
                       decomposition: Decomposition | None = None,
                       tables: TermTables | None = None) -> EstimateRecord:
    """Estimate each subcircuit expectation with its ``allocate`` share of
    the budget, then combine as sum_i a_i <O_A>_i <O_B>_i.

    ``tables`` is ``term_tables(terms, values_a, values_b)`` built in advance;
    it is built here when omitted."""
    if decomposition is not None and not decomposition.verified:
        raise ValueError("decomposition has not been verified")
    coeffs = np.array([t.coefficient for t in terms])
    kap = float(np.abs(coeffs).sum())
    shots = allocate(terms, budget.total)
    if tables is None:
        tables = term_tables(terms, values_a, values_b)
    streams = _term_streams(seed, 2, [(i, side) for i in range(len(terms)) for side in (0, 1)])

    estimate = 0.0
    variance = 0.0
    variance_bound = 0.0
    per_term = []
    for i, (n_i, (table_a, table_b), a) in enumerate(zip(shots, tables, coeffs)):
        sum_a, sq_a = _sample_side_sum(table_a, n_i, next(streams))
        sum_b, sq_b = _sample_side_sum(table_b, n_i, next(streams))
        mean_a, mean_b = sum_a / n_i, sum_b / n_i
        var_a = max(sq_a / n_i - mean_a**2, 0.0) / n_i
        var_b = max(sq_b / n_i - mean_b**2, 0.0) / n_i
        estimate += a * mean_a * mean_b
        variance += a**2 * (var_a * mean_b**2 + var_b * mean_a**2 + var_a * var_b)
        variance_bound += a**2 * 2.0 / n_i
        per_term.append({"index": i, "coefficient": float(a), "shots": n_i,
                         "mean_a": mean_a, "mean_b": mean_b})
    return EstimateRecord(estimate, math.sqrt(variance), budget.total, "preestimation",
                          seed, kap, per_term, variance_bound=variance_bound)


def sample_uncut(distribution: np.ndarray, values: np.ndarray, shots: int,
                 rng: np.random.Generator) -> float:
    """Plain sampling estimate of a diagonal observable from a full-circuit distribution."""
    counts = rng.multinomial(shots, distribution / distribution.sum())
    return float(counts @ values) / shots
