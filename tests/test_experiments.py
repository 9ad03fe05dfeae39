import concurrent.futures
import csv
import io
import math
import os

import numpy as np
import pytest

from mczcut import densesim, experiments, sampler
from mczcut.circuit import Circuit, Gate, Observable, find_cut
from mczcut.experiments import (ExperimentConfig, gen_random_circuit,
                                kappa_table, run_experiment, rows_to_csv,
                                summarize)
from conftest import LONG_RUN


def reference_random_circuit(n, k, m, rng):
    """Reference generator: draws qubits with rng.choice and simulates each
    candidate twice from |0...0>, with and without the MCZ.  30 rotations and
    10 CNOTs, impact threshold 0.2, at most 1000 attempts."""
    qubits_a, qubits_b = list(range(k)), list(range(k, n))
    rot_a, rot_b = experiments._split_counts(30, k, m)
    cnots_a, cnots_b = experiments._split_counts(10, k, m)
    if k < 2 and m < 2:
        cnots_a = cnots_b = 0
    elif k < 2:
        cnots_a, cnots_b = 0, 10
    elif m < 2:
        cnots_a, cnots_b = 10, 0
    partition = tuple("A" if q < k else "B" for q in range(n))
    observable = Observable.z_string(n)

    def local_block(qubits, n_rot, n_cnot):
        gates = []
        for _ in range(n_rot):
            kind = ("RX", "RY", "RZ")[rng.integers(3)]
            gates.append(Gate(kind, (int(rng.choice(qubits)),), float(rng.uniform(0, 2 * math.pi))))
        for _ in range(n_cnot):
            pair = rng.choice(qubits, size=2, replace=False)
            gates.append(Gate("CNOT", (int(pair[0]), int(pair[1]))))
        rng.shuffle(gates)
        return gates

    for _ in range(1000):
        pre = local_block(qubits_a, rot_a // 2, cnots_a // 2) + local_block(qubits_b, rot_b // 2, cnots_b // 2)
        post = local_block(qubits_a, rot_a - rot_a // 2, cnots_a - cnots_a // 2) \
            + local_block(qubits_b, rot_b - rot_b // 2, cnots_b - cnots_b // 2)
        circuit = Circuit(n, tuple(pre) + (Gate("MCZ", tuple(range(n))),) + tuple(post), partition)
        with_gate = densesim.expval(densesim.run(circuit), observable)
        without = densesim.expval(densesim.run(Circuit(n, tuple(pre) + tuple(post))), observable)
        if abs(with_gate - without) > 0.2:
            return circuit
    raise RuntimeError("no circuit reached the impact threshold")


def screened(n, k, seed):
    """The candidates one generator call screens at split (k, n - k), each
    with the screen's (with, without) values."""
    screen, seen = experiments._screen, []

    def recording(*candidate):
        seen.append((candidate, screen(*candidate)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_screen", recording)
        gen_random_circuit(n, k, n - k, np.random.default_rng(seed))
    return seen


def exact_values(n, candidate):
    """A candidate's Z-string values with and without its MCZ, from full-register runs
    of its (kind, qubits, angle) draws, B-side qubits shifted by k."""
    k, _, pre_a, pre_b, post_a, post_b = candidate

    def gates(draws, shift):
        return tuple(Gate(kind, tuple(q + shift for q in qubits), angle) for kind, qubits, angle in draws)

    pre, post = gates(pre_a, 0) + gates(pre_b, k), gates(post_a, 0) + gates(post_b, k)
    obs = Observable.z_string(n)
    return (densesim.expval(densesim.run(Circuit(n, pre + (Gate("MCZ", tuple(range(n))),) + post)), obs),
            densesim.expval(densesim.run(Circuit(n, pre + post)), obs))


class TestRandomCircuits:
    @pytest.mark.parametrize("k,m", [(k, n - k) for n in (2, 3, 4, 5, 6) for k in range(1, n)])
    def test_matches_reference_generator(self, k, m):
        # fewer seeds at n = 6, where the reference's full-register runs cost
        # most, and at most 5 per split outside the long arm
        seeds = {2: 10, 6: 2}.get(k + m, 50)
        for seed in range(seeds if LONG_RUN else min(seeds, 5)):
            circuit = gen_random_circuit(k + m, k, m, np.random.default_rng(seed))
            assert circuit == reference_random_circuit(k + m, k, m, np.random.default_rng(seed))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_screen_matches_exact_values(self, n):
        # at least 30 candidates at each of the 15 splits of n = 2-6
        for k in range(1, n):
            seen, seed = [], 0
            while len(seen) < 30:
                seen += screened(n, k, seed)
                seed += 1
            for candidate, screen_values in seen:
                for value, exact in zip(screen_values, exact_values(n, candidate)):
                    assert abs(value - exact) < 1e-12

    def test_unchecked_gates_hold_what_validation_stores(self):
        for seed in range(5):
            for gate in gen_random_circuit(5, 2, 3, np.random.default_rng(seed)).gates:
                assert gate == Gate(gate.kind, gate.qubits, gate.angle)
                assert type(gate.kind) is str and all(type(q) is int for q in gate.qubits)
                assert (gate.angle is None) == (gate.kind in ("CNOT", "MCZ")) and type(gate.angle) in (float, type(None))

    def test_five_qubit_circuit(self):
        rng = np.random.default_rng(7)
        circuit = gen_random_circuit(5, 3, 2, rng)
        cut = find_cut(circuit)
        assert (cut.k, cut.m) == (3, 2)
        obs = Observable.z_string(5)
        with_gate = densesim.expval(densesim.run(circuit), obs)
        gates = circuit.gates[:cut.cut_gate_index] + circuit.gates[cut.cut_gate_index + 1:]
        without = densesim.expval(densesim.run(Circuit(5, gates)), obs)
        assert abs(with_gate - without) > 0.2

    def test_ccz_centered_circuit(self):
        circuit = gen_random_circuit(3, 1, 2, np.random.default_rng(1))
        cut = find_cut(circuit)
        assert (cut.k, cut.m) == (1, 2)
        assert circuit.gates[cut.cut_gate_index].kind == "MCZ"

    def test_gate_budget(self):
        circuit = gen_random_circuit(4, 2, 2, np.random.default_rng(0))
        rotations = sum(1 for g in circuit.gates if g.kind in ("RX", "RY", "RZ"))
        cnots = sum(1 for g in circuit.gates if g.kind == "CNOT")
        assert rotations == 30 and cnots == 10

    def test_impossible_threshold_errors(self, monkeypatch):
        monkeypatch.setattr(experiments, "IMPACT_THRESHOLD", 2.5)
        monkeypatch.setattr(experiments, "MAX_ATTEMPTS", 25)
        with pytest.raises(RuntimeError, match="threshold 2.5 in 25 attempts"):
            gen_random_circuit(3, 1, 2, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        a = gen_random_circuit(4, 1, 3, np.random.default_rng(9))
        b = gen_random_circuit(4, 1, 3, np.random.default_rng(9))
        assert a == b

    def test_validate_accepts_generated_circuits(self):
        for seed in range(8):
            circuit = gen_random_circuit(3, 1, 2, np.random.default_rng(seed))
            assert Circuit(circuit.num_qubits, circuit.gates, circuit.partition) == circuit


class TestConfig:
    def test_split_must_cover(self):
        with pytest.raises(ValueError, match="k \\+ m"):
            ExperimentConfig(num_qubits=5, k=2, m=2, epsilon=0.01)

    def test_qubit_range(self):
        with pytest.raises(ValueError, match="3, 4 or 5"):
            ExperimentConfig(num_qubits=6, k=3, m=3, epsilon=0.01)

    def test_from_document(self):
        doc = {"version": 1, "num_qubits": 3, "k": 1, "m": 2, "epsilon": 0.05,
               "repetitions": 2, "circuits": 1, "seed": 4}
        config = ExperimentConfig.from_document(doc)
        assert config.epsilon == 0.05 and config.circuits == 1

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            ExperimentConfig.from_document({"version": 1, "num_qubits": 3, "k": 1, "m": 2,
                                            "epsilon": 0.05, "bogus": 1})


class TestHarness:
    def test_smoke_run_dataset_complete(self):
        config = ExperimentConfig(num_qubits=3, k=1, m=2, epsilon=0.2,
                                  repetitions=2, circuits=2, seed=5)
        rows = run_experiment(config)
        assert len(rows) == 4
        assert [(r.repetition, r.circuit_index) for r in rows] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for r in rows:
            # every summary statistic is recomputable from the row
            assert r.shots > 0 and r.kappa == 4.5 and r.mode == "preestimation"
            assert abs(r.exact) <= 1.0
        csv_text = rows_to_csv(rows)
        assert csv_text.splitlines()[0].startswith("repetition,circuit,seed,exact")
        assert len(csv_text.splitlines()) == 5

    def test_csv_numeric_fields_parse_as_floats(self):
        config = ExperimentConfig(num_qubits=3, k=1, m=2, epsilon=0.2,
                                  repetitions=2, circuits=1, seed=5)
        records = list(csv.DictReader(io.StringIO(rows_to_csv(run_experiment(config)))))
        assert len(records) == 2
        for record in records:
            for field, text in record.items():
                if field != "mode":
                    float(text)

    def test_determinism(self):
        config = ExperimentConfig(num_qubits=3, k=1, m=2, epsilon=0.2,
                                  repetitions=1, circuits=1, seed=6)
        assert rows_to_csv(run_experiment(config)) == rows_to_csv(run_experiment(config))

    def test_worker_pool_matches_serial(self):
        config = ExperimentConfig(num_qubits=3, k=1, m=2, epsilon=0.2,
                                  repetitions=2, circuits=2, seed=6)
        serial = rows_to_csv(run_experiment(config, workers=1))
        parallel = rows_to_csv(run_experiment(config, workers=2))
        assert serial == parallel

    def test_worker_pool_bounded_by_tasks_and_cpus(self, monkeypatch):
        # A fork-started pool starts all its processes at the first task.  The
        # fake pool maps in this process and records its size, so the test
        # starts no process whatever the requested count.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                assert chunksize >= len(tasks) // sizes[-1]
                return map(fn, tasks)

        config = ExperimentConfig(num_qubits=3, k=1, m=2, epsilon=0.2,
                                  repetitions=2, circuits=2, seed=6)
        serial = rows_to_csv(run_experiment(config, workers=1))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        for cpus in (8, 3, 1):
            monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
            assert rows_to_csv(run_experiment(config, workers=10**6)) == serial
        # 4 tasks on 8 CPUs, then 3 CPUs; one CPU runs serially, without a pool
        assert sizes == [4, 3]

    def test_usable_cpus(self):
        assert 1 <= experiments._usable_cpus() <= os.cpu_count()

    @pytest.mark.parametrize("mode", ["preestimation", "circuit_sampling"])
    def test_branch_tables_built_once_per_distinct_plan(self, side_runs, mode):
        config = ExperimentConfig(num_qubits=5, k=2, m=3, epsilon=0.2, mode=mode,
                                  repetitions=3, circuits=2, seed=6)
        run_experiment(config)
        # a (2,3) cut has 17 terms (34 plans) per circuit; each circuit's two
        # sides run their pre-MCZ gates once, each distinct branch is
        # simulated once, and repetitions simulate nothing
        assert len(side_runs.plans) == 2 * 34
        assert len(side_runs.pre) == 2 * 2
        assert len(side_runs.post) == side_runs.distinct_branches()
        assert len(side_runs.post) < sum(len(op.signed_diagonal_terms()) for _, op in set(side_runs.plans))

    def test_each_accepted_circuit_simulated_once(self, side_runs, monkeypatch):
        # the screen alone accepts a candidate, so the generator simulates
        # nothing; the experiment runs each accepted circuit once on the full
        # register, besides the side runs of its branch tables
        runs, run = [], densesim.run
        monkeypatch.setattr(densesim, "run", lambda circuit, initial=None: runs.append(circuit) or run(circuit, initial))
        for seed in range(5):
            gen_random_circuit(5, 2, 3, np.random.default_rng(seed))
        assert runs == []
        generated, generate = [], experiments.gen_random_circuit
        monkeypatch.setattr(experiments, "gen_random_circuit", lambda *a: generated.append(generate(*a)) or generated[-1])
        run_experiment(ExperimentConfig(num_qubits=5, k=2, m=3, epsilon=0.2, repetitions=2, circuits=3, seed=6))
        assert len(generated) == 3
        assert [c for c in runs if c.num_qubits == 5] == generated
        assert len(runs) == len(generated) + len(side_runs.pre) + len(side_runs.post)

    def test_failed_certificate_refused_before_any_table(self, side_runs, corrupted_decompositions):
        config = ExperimentConfig(num_qubits=3, k=1, m=2, epsilon=0.2, repetitions=1, circuits=1)
        with pytest.raises(RuntimeError, match="failed verification"):
            run_experiment(config)
        assert side_runs.plans == [] and side_runs.pre == side_runs.post == []

    def test_circuit_sampling_mode(self):
        config = ExperimentConfig(num_qubits=3, k=1, m=2, epsilon=0.25, delta=0.1,
                                  mode="circuit_sampling", repetitions=2, circuits=1, seed=2)
        rows = run_experiment(config)
        assert all(r.mode == "circuit_sampling" for r in rows)

    def test_uncut_errors_smaller_in_aggregate(self):
        config = ExperimentConfig(num_qubits=3, k=1, m=2, epsilon=0.05,
                                  repetitions=8, circuits=2, seed=1)
        rows = run_experiment(config)
        summary = summarize(rows, config)
        assert summary["uncut"]["std_dev"] < summary["cut"]["std_dev"]


class TestKappaTable:
    def test_rows(self):
        table = {(r["k"], r["m"]): r for r in kappa_table()}
        assert table[(1, 1)]["kappa"] == 3.0
        assert table[(1, 2)]["kappa"] == 4.5
        assert table[(1, 4)]["kappa"] == 5.0
        assert table[(3, 3)]["kappa"] < 6.0
        assert table[(1, 1)]["label"] == "CZ"
        assert table[(1, 2)]["label"] == "CCZ"
