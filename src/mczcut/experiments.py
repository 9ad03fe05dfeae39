"""Random-circuit generation and the noiseless sampling experiments.

Circuits follow the benchmark recipe: 30 single-qubit rotations and 10 CNOTs
split proportionally across the two partitions, half before and half after a
central MCZ spanning all qubits, with rotation angles uniform in [0, 2pi).
A candidate is rejected until removing the MCZ changes the Z-string
expectation by more than the impact threshold, so the gate being cut always
matters for the measured observable.  A side-local screen decides: it runs
each partition's gates on its own amplitudes and reads both values off the
MCZ's rank-two form, so no candidate touches the full register.  The
experiment simulates each accepted circuit once, for its exact value and its
outcome distribution.

The experiment harness compares, per circuit and repetition, the exact
expectation against (a) plain sampling of the uncut circuit at N shots and
(b) the cut-circuit estimate at the same total N, and emits a tidy dataset
plus quantile summaries.  Each circuit's branch tables are built once,
before any repetition; a repetition only samples.
Repetitions can run in a worker pool (the tables travel with the tasks); the
output is ordered by (repetition, circuit) index and is byte-identical for a
fixed seed regardless of worker count.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import cutter, densesim, sampler
from .circuit import Circuit, Gate, Observable, find_cut

# The sampling budget uses the order-independent overhead constant for an MCZ
# cut, so desk-scale budgets match N = 4 * 6^2 / eps^2 regardless of the
# split; the per-term allocation inside that budget uses the decomposition's
# exact kappa.
BUDGET_KAPPA = 6.0

# The random-circuit recipe: gate counts over both partitions, the impact a
# candidate's MCZ must have on the Z-string expectation, and the attempts the
# rejection sampler makes before giving up.
ROTATIONS = 30
CNOTS = 10
IMPACT_THRESHOLD = 0.2
MAX_ATTEMPTS = 1000
# The largest experiment: circuits drawn, and runs (repetitions x circuits).
MAX_CIRCUITS = 10_000
MAX_RUNS = 1_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one sampling experiment (one qubit count and split)."""

    num_qubits: int
    k: int
    m: int
    epsilon: float
    mode: str = "preestimation"  # "preestimation" | "circuit_sampling"
    repetitions: int = 20
    circuits: int = 5
    seed: int = 0
    delta: float = 0.05

    def __post_init__(self):
        for name, low in (("num_qubits", 3), ("k", 1), ("m", 1), ("repetitions", 1),
                          ("circuits", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be at least {low}, got {value}")
        if self.circuits > MAX_CIRCUITS:
            raise ValueError(f"circuits must be at most {MAX_CIRCUITS}, got {self.circuits}")
        if self.repetitions * self.circuits > MAX_RUNS:
            raise ValueError(f"repetitions x circuits must be at most {MAX_RUNS}, "
                             f"got {self.repetitions * self.circuits}")
        for name in ("epsilon", "delta"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
            try:
                float(value)
            except OverflowError:
                raise ValueError(f"{name} must be a finite number, got an integer beyond the float range") from None
        if self.num_qubits > 5:
            raise ValueError("experiments cover 3, 4 or 5 qubits")
        if self.k + self.m != self.num_qubits:
            raise ValueError("cut split must satisfy k + m = num_qubits")
        if self.mode not in ("preestimation", "circuit_sampling"):
            raise ValueError(f"unknown mode {self.mode!r}")
        shots = experiment_shots(self)  # rejects an epsilon or delta no budget meets
        if self.mode == "preestimation":
            sampler.check_term_floor(shots, cutter.decompose_mcz(self.k, self.m).terms, self.epsilon)

    @staticmethod
    def from_document(doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValueError("experiment config must be a JSON object")
        allowed = {"version", "num_qubits", "k", "m", "epsilon", "mode",
                   "repetitions", "circuits", "seed", "delta"}
        unknown = sorted(set(doc) - allowed)
        if unknown:
            raise ValueError(f"unknown field {unknown[0]!r} in experiment config")
        version = doc.get("version")
        if not isinstance(version, int) or isinstance(version, bool) or version != 1:
            raise ValueError(f"unsupported config version {version!r}")
        kwargs = {k: v for k, v in doc.items() if k != "version"}
        return ExperimentConfig(**kwargs)


def _split_counts(total: int, k: int, m: int) -> tuple[int, int]:
    a = int(round(total * k / (k + m)))
    return a, total - a


def gen_random_circuit(n: int, k: int, m: int, rng: np.random.Generator) -> Circuit:
    """Generate a partitioned benchmark circuit with an impactful central MCZ.

    Rejection-samples until the screened Z-string expectations with and
    without the MCZ differ by more than the impact threshold; raises after
    the attempt limit (the difference can never exceed 2).
    """
    if k + m != n or not 2 <= n <= 6:
        raise ValueError("need k + m = n with n between 2 and 6")
    rot_a, rot_b = _split_counts(ROTATIONS, k, m)
    cnots_a, cnots_b = _split_counts(CNOTS, k, m)
    if k < 2 and m < 2:  # CNOT needs two qubits on its side
        cnots_a = cnots_b = 0
    elif k < 2:
        cnots_a, cnots_b = 0, CNOTS
    elif m < 2:
        cnots_a, cnots_b = CNOTS, 0
    partition = tuple("A" if q < k else "B" for q in range(n))
    mcz = Gate("MCZ", tuple(range(n)))

    def local_block(width, n_rot, n_cnot):
        """One side's gates as (kind, qubits, angle) draws on side-local qubits."""
        draws = []
        for _ in range(n_rot):
            kind = ("RX", "RY", "RZ")[rng.integers(3)]
            # the draw rng.choice(width) makes, without its per-call overhead
            draws.append((kind, (int(rng.integers(width)),), float(rng.uniform(0, 2 * math.pi))))
        for _ in range(n_cnot):
            pair = rng.choice(width, size=2, replace=False)
            draws.append(("CNOT", (int(pair[0]), int(pair[1])), None))
        rng.shuffle(draws)
        return draws

    def gates(draws, shift):
        return [Gate(kind, tuple(q + shift for q in qubits), angle) for kind, qubits, angle in draws]

    for _ in range(MAX_ATTEMPTS):
        # half of each partition's gates before the central MCZ, half after
        pre_a = local_block(k, rot_a // 2, cnots_a // 2)
        pre_b = local_block(m, rot_b // 2, cnots_b // 2)
        post_a = local_block(k, rot_a - rot_a // 2, cnots_a - cnots_a // 2)
        post_b = local_block(m, rot_b - rot_b // 2, cnots_b - cnots_b // 2)
        with_gate, without = _screen(k, m, pre_a, pre_b, post_a, post_b)
        if abs(with_gate - without) > IMPACT_THRESHOLD:
            return Circuit(n, (*gates(pre_a, 0), *gates(pre_b, k), mcz,
                               *gates(post_a, 0), *gates(post_b, k)), partition)
    raise RuntimeError(f"no circuit reached impact threshold {IMPACT_THRESHOLD} "
                       f"in {MAX_ATTEMPTS} attempts")


def _screen(k: int, m: int, pre_a, pre_b, post_a, post_b) -> tuple[float, float]:
    """A candidate's Z-string values with and without its MCZ, from side-local
    runs: MCZ = I - 2 P_A (x) P_B, so with each side's state a before the MCZ,
    its all-ones projector P, its gates U after the MCZ and its Gram entries
    G_ij = <x_i|U^dag Z U|x_j> over x = (a, P a), the value without the MCZ is
    G11^A G11^B and the MCZ adds 4 (G22^A G22^B - Re G12^A G12^B)."""
    grams = []
    for width, pre, post in ((k, pre_a, post_a), (m, pre_b, post_b)):
        size = 1 << width
        a = [1 + 0j] + [0j] * (size - 1)
        _side_run(a, width, pre)
        # U a and U |1...1> run as one list, whose leading bit picks the vector
        both = a + [0j] * (size - 1) + [1 + 0j]
        _side_run(both, width, post)
        u, w = both[:size], both[size:]
        zu, zw = ([-x if bin(i).count("1") & 1 else x for i, x in enumerate(v)] for v in (u, w))
        g11, g12, g22 = (sum(x.conjugate() * y for x, y in zip(*pair)) for pair in ((u, zu), (u, zw), (w, zw)))
        grams.append((g11.real, a[-1] * g12, abs(a[-1]) ** 2 * g22.real))
    (a11, a12, a22), (b11, b12, b22) = grams
    return a11 * b11 + 4 * (a22 * b22 - (a12 * b12).real), a11 * b11


def _side_run(v: list, width: int, draws) -> None:
    """Apply one side's (kind, qubits, angle) draws on ``width`` qubits to the
    amplitude list ``v`` in place; bits above the side's, as in a stacked pair
    of vectors, pass through."""
    for kind, qubits, angle in draws:
        bit = 1 << (width - 1 - qubits[-1])  # a rotation's qubit, a CNOT's target
        if kind == "CNOT":
            for i, j in _pairs(len(v), bit, 1 << (width - 1 - qubits[0])):
                v[i], v[j] = v[j], v[i]
            continue
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        m00, m01, m10, m11 = ((c, -1j * s, -1j * s, c) if kind == "RX" else (c, -s, s, c)
                              if kind == "RY" else (complex(c, -s), 0j, 0j, complex(c, s)))
        for i, j in _pairs(len(v), bit):
            x, y = v[i], v[j]
            v[i], v[j] = m00 * x + m01 * y, m10 * x + m11 * y


@functools.cache
def _pairs(size: int, bit: int, control: int = 0) -> tuple[tuple[int, int], ...]:
    """Index pairs (i, i | bit) of ``size`` amplitudes with ``bit`` clear and every control bit set.

    Cached: sizes of at most 64 (a 5-qubit side run beside a second list) bound the cache."""
    return tuple((i, i | bit) for i in range(size) if not i & bit and i & control == control)


# ---------------------------------------------------------------------------
# Experiment harness
# ---------------------------------------------------------------------------

@dataclass
class RunRow:
    repetition: int
    circuit_index: int
    seed: int
    exact: float
    uncut_estimate: float
    cut_estimate: float
    shots: int
    kappa: float
    mode: str

    @property
    def uncut_error(self) -> float:
        return self.uncut_estimate - self.exact

    @property
    def cut_error(self) -> float:
        return self.cut_estimate - self.exact


def _prepare_circuits(config: ExperimentConfig):
    """The experiment's fixed circuit set, its decomposition, exact values and
    branch tables (built once per circuit, after certification)."""
    decomposition = cutter.decompose_mcz(config.k, config.m)
    report = cutter.verify(decomposition)
    if not report.passed:
        raise RuntimeError(f"decomposition failed verification: residual {report.residual:.3e}")
    observable = Observable.z_string(config.num_qubits)
    prepared = []
    for c in range(config.circuits):
        circuit = gen_random_circuit(config.num_qubits, config.k, config.m,
                                     sampler._rng_for(config.seed, 100, c))
        state = densesim.run(circuit)
        cut = find_cut(circuit)
        terms = cutter.embed(decomposition, cut)
        values_a, values_b = observable.factor(circuit.qubits_in("A"), circuit.qubits_in("B"))
        prepared.append({
            "terms": terms,
            "tables": cutter.term_tables(terms, values_a.values, values_b.values),
            "values_a": values_a.values,
            "values_b": values_b.values,
            "exact": densesim.expval(state, observable),
            "distribution": state.probabilities(),
        })
    return decomposition, observable, prepared


def experiment_shots(config: ExperimentConfig) -> int:
    """The total budget N shared by the uncut and cut arms of one run."""
    if config.mode == "preestimation":
        shots = sampler.preestimation_budget(config.epsilon, BUDGET_KAPPA)
    else:
        shots = sampler.hoeffding_shots(config.epsilon, config.delta, BUDGET_KAPPA)
    return shots + shots % 2


def _run_one(args):
    config, decomposition, observable, prep, rep, c = args
    shots = experiment_shots(config)
    run_seed = int(np.random.SeedSequence(entropy=config.seed, spawn_key=(rep, c)).generate_state(1)[0])
    uncut = sampler.sample_uncut(prep["distribution"], observable.values, shots,
                                 sampler._rng_for(run_seed, 0))
    budget = sampler.ShotBudget(shots, config.epsilon, decomposition.kappa, mode=config.mode)
    if config.mode == "preestimation":
        record = sampler.preestimation_mode(prep["terms"], budget, run_seed,
                                            prep["values_a"], prep["values_b"],
                                            decomposition=decomposition, tables=prep["tables"])
    else:
        record = sampler.sample_circuit_mode(prep["terms"], budget, run_seed,
                                             prep["values_a"], prep["values_b"],
                                             decomposition=decomposition, tables=prep["tables"])
    return RunRow(rep, c, run_seed, prep["exact"], uncut, record.estimate,
                  shots, decomposition.kappa, config.mode)


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where the platform cannot tell)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[RunRow]:
    """Produce one row per (repetition, circuit) pair, in that order.  A pool starts
    all its workers at once, so it holds at most one per task and usable CPU."""
    decomposition, observable, prepared = _prepare_circuits(config)
    tasks = [(config, decomposition, observable, prepared[c], rep, c)
             for rep in range(config.repetitions) for c in range(config.circuits)]
    pool_size = min(workers, len(tasks), _usable_cpus())
    if pool_size > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing only here
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            return list(pool.map(_run_one, tasks, chunksize=max(1, len(tasks) // pool_size)))
    return [_run_one(t) for t in tasks]


def rows_to_csv(rows: list[RunRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["repetition", "circuit", "seed", "exact", "uncut_estimate",
                     "cut_estimate", "uncut_error", "cut_error", "shots", "kappa", "mode"])
    for r in rows:
        # float() first: estimates may be numpy scalars, whose repr is "np.float64(...)"
        values = (r.exact, r.uncut_estimate, r.cut_estimate, r.uncut_error, r.cut_error)
        writer.writerow([r.repetition, r.circuit_index, r.seed,
                         *(repr(float(v)) for v in values), r.shots, repr(float(r.kappa)), r.mode])
    return buf.getvalue()


def _arm_summary(errors) -> dict:
    errors = list(errors)
    if len(errors) < 2:
        return {"std_dev": None, "mean": errors[0] if errors else None, "quantiles": None}
    arr = np.asarray(errors, dtype=float)
    qs = np.quantile(arr, [0.05, 0.25, 0.75, 0.95])
    return {"std_dev": float(arr.std(ddof=1)), "mean": float(arr.mean()),
            "quantiles": {"5%": float(qs[0]), "25%": float(qs[1]), "75%": float(qs[2]), "95%": float(qs[3])}}


def summarize(rows: list[RunRow], config: ExperimentConfig) -> dict:
    return {
        "config": {
            "num_qubits": config.num_qubits, "k": config.k, "m": config.m,
            "epsilon": config.epsilon, "mode": config.mode,
            "repetitions": config.repetitions, "circuits": config.circuits,
            "seed": config.seed,
        },
        "shots": rows[0].shots if rows else None,
        "kappa": rows[0].kappa if rows else None,
        "uncut": _arm_summary(r.uncut_error for r in rows),
        "cut": _arm_summary(r.cut_error for r in rows),
    }


def summary_json(rows: list[RunRow], config: ExperimentConfig) -> str:
    return json.dumps(summarize(rows, config), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Sampling-overhead table
# ---------------------------------------------------------------------------

def kappa_table() -> list[dict]:
    """Overhead constants for every split up to order 6."""
    rows = []
    for order in range(2, 7):
        for k in range(1, order // 2 + 1):
            m = order - k
            d = cutter.decompose_mcz(k, m)
            if order == 2:
                label = "CZ"
            elif order == 3 and k == 1:
                label = "CCZ"
            elif k == 1:
                label = f"one qubit removed (order {order})"
            else:
                label = f"general split ({k},{m})"
            rows.append({"label": label, "order": order, "k": k, "m": m,
                         "kappa": d.kappa, "terms": len(d.terms)})
    return rows
