import contextlib
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from mczcut import cli, cutter, densesim
from mczcut.circuit import Circuit, Gate, Observable, cz, find_cut, h, parse, serialize


def bell_document(tmp_path):
    circuit = Circuit(2, (h(0), h(1), cz(0, 1), h(1)), ("A", "B"))
    path = tmp_path / "bell.json"
    path.write_text(serialize(circuit))
    return path


def wide_cut_circuit(k: int, m: int, seed: int = 0) -> Circuit:
    """Rotations around one MCZ over all k + m qubits, cut (k, m)."""
    n = k + m
    rng = np.random.default_rng(seed)
    gates = [Gate("RY", (q,), float(rng.uniform(0.5, 2.5))) for q in range(n)]
    gates.append(Gate("MCZ", tuple(range(n))))
    gates += [Gate("RX", (q,), float(rng.uniform(0.5, 2.5))) for q in range(n)]
    return Circuit(n, tuple(gates), ("A",) * k + ("B",) * m)


def padded_ccz_circuit(seed: int = 1) -> Circuit:
    """Four qubits with a CCZ over qubits 0, 2 and 3, cut (1, 2); qubit 1
    shares side A with qubit 0 but stays outside the gate."""
    rng = np.random.default_rng(seed)
    gates = [Gate("RY", (q,), float(rng.uniform(0.5, 2.5))) for q in range(4)]
    gates += [Gate("CNOT", (0, 1)), Gate("MCZ", (0, 2, 3)), Gate("CNOT", (2, 3))]
    gates += [Gate("RX", (q,), float(rng.uniform(0.5, 2.5))) for q in range(4)]
    return Circuit(4, tuple(gates), ("A", "A", "B", "B"))


class TestVerifyCommand:
    def test_restricted_sizes_pass(self, capsys):
        assert cli.cmd_verify(sizes=[2]) == 0
        out = capsys.readouterr().out
        assert "decomposition oracle (1,1)" in out
        assert "(1,2)" not in out  # only CZ checks executed
        assert "all checks passed" in out

    def test_default_output_golden_digest(self, capsys):
        # Digest of the stdout of `mczcut verify` at the default sizes before
        # the certification kernels were batched; it pins every printed
        # residual digit (computed with numpy 2 on OpenBLAS).
        assert cli.cmd_verify() == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "5d187e26c2f5c088b391dce60d0990cbe8391c611ebe63e69df8b702ade41168"

    def test_dense_cross_check_reported_at_small_orders(self, capsys):
        assert cli.cmd_verify(sizes=[4, 5]) == 0
        out = capsys.readouterr().out
        assert "PASS  dense superoperator cross-check (2,2)" in out
        assert "cross-check (2,3)" not in out

    def test_default_orders_report_every_split(self, capsys):
        assert cli.cmd_verify(sizes=[2, 3, 4, 5, 6]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "all checks passed"
        assert all(line.startswith("PASS  ") for line in lines[:-1])
        splits = [(k, order - k) for order in range(2, 7) for k in range(1, order)]
        assert len(splits) == 15
        for k, m in splits:
            for form in ("decomposition oracle", "double-fusion channel form"):
                assert sum(line.startswith(f"PASS  {form} ({k},{m}):") for line in lines) == 1
            dense = sum(line.startswith(f"PASS  dense superoperator cross-check ({k},{m}):") for line in lines)
            assert dense == (1 if k + m <= 4 else 0)
        assert sum("dense superoperator cross-check" in line for line in lines) == 6

    def test_repeated_calls_keep_no_memory(self):
        # stdout goes to the null device, so only what the calls themselves keep is traced
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert cli.cmd_verify(sizes=[2, 3, 4]) == 0
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for _ in range(8):
                    assert cli.cmd_verify(sizes=[2, 3, 4]) == 0
                growth = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert growth < 64 * 1024

    def test_sizes_above_ceiling_rejected(self, capsys):
        assert cli.main(["verify", "--sizes", "11"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "[2, 10]" in err

    def test_corrupted_decomposition_fails(self, corrupted_decompositions, capsys):
        assert cli.cmd_verify(sizes=[2]) == 1
        assert "FAIL  decomposition oracle (1,1)" in capsys.readouterr().out

    def test_failed_projector_rewrite_reported(self, monkeypatch, capsys):
        original = cutter.LocalOperation.signed_diagonal_terms

        def flipped(self):
            terms = original(self)
            return [(-w, d) for w, d in terms] if self.variant == "signed_projector" else terms

        monkeypatch.setattr(cutter.LocalOperation, "signed_diagonal_terms", flipped)
        assert cli.main(["verify", "--sizes", "2"]) == 1
        assert "FAIL  projector rewrite n=1" in capsys.readouterr().out


class TestDecomposeCommand:
    def test_cz(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        assert cli.cmd_decompose(2, 1, str(out)) == 0
        assert "kappa = 3.0" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["kappa"] == 3.0 and len(doc["terms"]) == 6

    def test_ccz(self, capsys):
        assert cli.cmd_decompose(3, 1) == 0
        assert "kappa = 4.5" in capsys.readouterr().out

    def test_order_five_one_removed(self, capsys):
        assert cli.cmd_decompose(5, 1) == 0
        assert "kappa = 5.0" in capsys.readouterr().out

    def test_large_order_skips_oracle(self, capsys):
        assert cli.cmd_decompose(12, 6) == 0
        assert "oracle" not in capsys.readouterr().out

    def test_order_eight_certified(self, capsys):
        assert cli.cmd_decompose(8, 4) == 0
        assert "(PASS)" in capsys.readouterr().out

    def test_invalid_sizes(self, capsys):
        assert cli.main(["decompose", "--order", "13", "--cut", "1"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "[2, 12]" in err
        assert cli.main(["decompose", "--order", "4", "--cut", "4"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "[1, 3]" in err


class TestKappaTableCommand:
    def test_rows_printed(self, capsys):
        assert cli.cmd_kappa_table() == 0
        out = capsys.readouterr().out
        assert "CZ" in out and "CCZ" in out
        assert "4.5" in out and "general split (3,3)" in out


class TestSampleCommand:
    def test_preestimation_run(self, tmp_path):
        doc = bell_document(tmp_path)
        out = tmp_path / "record.json"
        code = cli.cmd_sample(str(doc), "preest", 0.05, seed=3, out=str(out))
        assert code == 0
        record = json.loads(out.read_text())
        assert record["mode"] == "preestimation"
        assert abs(record["estimate"] - 1.0) < 0.05

    def test_shots_mode(self, tmp_path, capsys):
        doc = bell_document(tmp_path)
        assert cli.cmd_sample(str(doc), "shots", 0.1, seed=1) == 0
        assert "estimate" in capsys.readouterr().out

    def test_byte_identical_outputs(self, tmp_path):
        doc = bell_document(tmp_path)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        cli.cmd_sample(str(doc), "preest", 0.1, seed=9, out=str(out_a))
        cli.cmd_sample(str(doc), "preest", 0.1, seed=9, out=str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()


    @pytest.mark.parametrize("mode,epsilon", [("shots", 0.1), ("preest", 0.05)])
    def test_order_seven_cut_certified_and_sampled(self, tmp_path, mode, epsilon):
        circuit = wide_cut_circuit(3, 4)
        doc = tmp_path / "wide.json"
        doc.write_text(serialize(circuit))
        out = tmp_path / "record.json"
        argv = ["sample", "--config", str(doc), "--mode", mode, "--epsilon", str(epsilon),
                "--seed", "5", "--out", str(out)]
        assert cli.main(argv) == 0
        exact = densesim.expval(densesim.run(circuit), Observable.z_string(7))
        # shots mode: Hoeffding |err| <= eps w.p. 0.95; preest: std-dev <= eps
        assert abs(json.loads(out.read_text())["estimate"] - exact) < 2 * epsilon

    # Digests of the record file and of the first stdout line (the second
    # echoes the output path), written while sampling still dispatched on the
    # operation variant; they pin every bit of the seeded estimate (computed
    # with numpy 2 on OpenBLAS).  The (3,3) cut samples the zmix_rest
    # mixture, the (1,2) cut the signed projector beside an unmeasured qubit.
    SAMPLE_GOLDENS = {
        ("wide-3-3", "shots"): ("105b9f951ed5fa21a665c10e308bced7e5f8af7619b7f62fbaf9be943c359771",
                                "360a902dc8366ac3c0cf824a118353539d6be6776d5f92c5aa89adeca7095ed4"),
        ("wide-3-3", "preest"): ("26583bae909b51c4311c666981b011bf1a79a814088e142b7261af79e1da9087",
                                 "bb1528bd586fbe58cfe2e287f0b809a30896671b8a0c603f9050ad3d759f9b60"),
        ("padded-1-2", "shots"): ("38d9b278a5da7d65ec09ec4cb2ab35051b8999a32407ebf59ac2913dda4dd7a9",
                                  "18a2ac535d8fccc12ca3a09e94829727c7784aa5b5906d093da42c725f388975"),
        ("padded-1-2", "preest"): ("aa2340b93ffa8aa21666a3ead203dfb039c7c037d42fcd59443fc693c4b912a4",
                                   "c61719040792a089cdb0dffbb975518ef15dc9d093fee62dc7799f110adcbfc6"),
    }

    @pytest.mark.parametrize("document,mode", list(SAMPLE_GOLDENS))
    def test_golden_digests(self, tmp_path, document, mode, capsys):
        circuit = wide_cut_circuit(3, 3, seed=2) if document == "wide-3-3" else padded_ccz_circuit()
        doc = tmp_path / "circuit.json"
        doc.write_text(serialize(circuit))
        out = tmp_path / "record.json"
        assert cli.cmd_sample(str(doc), mode, 0.1, seed=19, out=str(out)) == 0
        digests = (hashlib.sha256(out.read_bytes()).hexdigest(),
                   hashlib.sha256(capsys.readouterr().out.splitlines()[0].encode()).hexdigest())
        assert digests == self.SAMPLE_GOLDENS[document, mode]

    def test_exact_value_without_full_register_run(self, tmp_path, monkeypatch, capsys):
        circuit = wide_cut_circuit(3, 3, seed=2)
        doc = tmp_path / "circuit.json"
        doc.write_text(serialize(circuit))
        widths, exact_values = [], []
        run, expval = densesim.run, densesim.expval

        def recording_run(c, initial=None):
            widths.append(c.num_qubits)
            return run(c, initial)

        def recording_expval(state, observable):
            exact_values.append(expval(state, observable))
            return exact_values[-1]

        monkeypatch.setattr(densesim, "run", recording_run)
        monkeypatch.setattr(densesim, "expval", recording_expval)
        assert cli.cmd_sample(str(doc), "shots", 0.1, seed=19) == 0
        assert widths and max(widths) == 3
        assert exact_values == [pytest.approx(expval(run(circuit), Observable.z_string(6)), abs=1e-12)]
        assert capsys.readouterr().out.startswith(f"exact = {exact_values[0]:+.6f}  ")

    # 3 qubits B,A,B: RY(pi/2) leaves qubit 1's Z factor at 0, so the exact
    # value is 0 up to rounding noise of either sign
    ZERO_VALUE_DOCUMENT = {
        "version": 1, "num_qubits": 3, "partition": ["B", "A", "B"],
        "gates": [{"kind": "RY", "qubits": [0], "angle": 1.0},
                  {"kind": "RY", "qubits": [1], "angle": 1.5707963267948966},
                  {"kind": "RY", "qubits": [2], "angle": 0.5},
                  {"kind": "MCZ", "qubits": [0, 1, 2]},
                  {"kind": "X", "qubits": [0]}, {"kind": "X", "qubits": [1]}, {"kind": "S", "qubits": [2]}]}

    def test_value_rounding_to_zero_prints_plus_sign(self, tmp_path, capsys):
        doc = tmp_path / "zero.json"
        doc.write_text(json.dumps(self.ZERO_VALUE_DOCUMENT))
        circuit = parse(doc.read_text())
        exact = densesim.expval(cutter.final_state(find_cut(circuit)), Observable.z_string(3))
        assert -5e-7 < exact < 0.0  # noise that +.6f prints as -0.000000
        assert cli.cmd_sample(str(doc), "preest", 0.2, seed=1) == 0
        assert capsys.readouterr().out.startswith("exact = +0.000000  estimate = ")

    @pytest.mark.parametrize("value,text", [(-0.0, "+0.000000"), (-4.9e-7, "+0.000000"), (0.0, "+0.000000"),
                                            (4.9e-7, "+0.000000"), (-5.1e-7, "-0.000001"),
                                            (0.25, "+0.250000"), (-0.25, "-0.250000")])
    def test_signed_six_decimals(self, value, text):
        assert cli._signed6(value) == text

    def test_oversized_branch_tables_exit_2_before_any_simulation(self, tmp_path, capsys, monkeypatch):
        # 20 qubits with a (9,1) cut: the A side has 19 qubits, and its 1027
        # distinct branches would hold 4 GiB
        n = 20
        gates = [h(q) for q in range(n)] + [Gate("RX", (q,), 0.3 + 0.1 * q) for q in range(n)]
        gates += [Gate("MCZ", tuple(range(n - 10, n)))] + [Gate("RY", (q,), 0.7 + 0.05 * q) for q in range(n)]
        doc = tmp_path / "wide.json"
        doc.write_text(serialize(Circuit(n, tuple(gates), ("A",) * (n - 1) + ("B",))))

        def refused(*args, **kwargs):
            raise AssertionError("simulated before the table check")

        for name in ("run", "project", "apply_diagonal"):
            monkeypatch.setattr(densesim, name, refused)
        tracemalloc.start()
        started = time.perf_counter()
        try:
            assert cli.main(["sample", "--config", str(doc), "--seed", "1"]) == 2
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 2**24  # 16 MiB, two 19-qubit states, against the 4 GiB of tables
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"mczcut: error: the branch tables of {doc} would hold "
                                             "4.0 GiB, above the 2 GiB sample builds"]
        assert captured.out == ""

    def test_failed_certificate_refused(self, tmp_path, capsys, corrupted_decompositions):
        assert cli.main(["sample", "--config", str(bell_document(tmp_path)), "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and "failed certification" in captured.err
        assert captured.out == ""

    def test_order_above_ceiling_exits_2(self, tmp_path, capsys):
        doc = tmp_path / "eleven.json"
        doc.write_text(serialize(wide_cut_circuit(5, 6)))
        assert cli.main(["sample", "--config", str(doc), "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and "order 11" in captured.err
        assert captured.out == ""


class TestExperimentCommand:
    def test_writes_dataset(self, tmp_path):
        config = {"version": 1, "num_qubits": 3, "k": 1, "m": 2, "epsilon": 0.2,
                  "repetitions": 2, "circuits": 1, "seed": 12}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        assert cli.cmd_experiment(str(cfg_path), str(out_dir)) == 0
        runs = (out_dir / "runs.csv").read_text()
        assert len(runs.splitlines()) == 3
        summary = json.loads((out_dir / "summary.json").read_text())
        assert {"cut", "uncut", "config", "shots", "kappa"} <= set(summary)

    def test_byte_identical_dataset(self, tmp_path):
        config = {"version": 1, "num_qubits": 3, "k": 1, "m": 2, "epsilon": 0.2,
                  "repetitions": 1, "circuits": 1, "seed": 4}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        for name in ("one", "two"):
            cli.cmd_experiment(str(cfg_path), str(tmp_path / name))
        assert (tmp_path / "one" / "runs.csv").read_bytes() == (tmp_path / "two" / "runs.csv").read_bytes()
        assert (tmp_path / "one" / "summary.json").read_bytes() == (tmp_path / "two" / "summary.json").read_bytes()


    def test_criterion_six_config_golden_digests(self, tmp_path):
        # The README criterion-6 config.  Digests of the files written before
        # the single-qubit kernel became one np.dot and before the generator
        # shared each candidate's pre-MCZ prefix; they pin every bit of the
        # seeded output (computed with numpy 2 on OpenBLAS).
        config = {"version": 1, "num_qubits": 5, "k": 2, "m": 3, "epsilon": 0.01,
                  "mode": "preestimation", "repetitions": 20, "circuits": 5, "seed": 11}
        cfg_path = tmp_path / "experiment.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.cmd_experiment(str(cfg_path), str(tmp_path / "out")) == 0
        digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                   for name in ("runs.csv", "summary.json")}
        assert digests == {
            "runs.csv": "3ce120182a00b6451e6f757bef1f89b8e58aa0dbd12c8a592ed3ec3510b64987",
            "summary.json": "cd37105b9197b901426295ea622129109ce1d8c86fc3917fba0a206eb8f69a43",
        }

    # The benchmark's experiment shape at two more config seeds, in both
    # modes; computed before candidates were screened off the exact simulator.
    BENCHMARK_SHAPE_GOLDENS = {
        ("preestimation", 1): ("7424b6fbfc16a011926a8109171be69d723b032a4001bfdea3d0277fe2070d3c",
                               "1c3ac204d550a7d7a4cbb9423c8c5974db38d4583624c66580b8fc8fb840da4c"),
        ("preestimation", 2): ("fa0ebe00e9d7f5667f2375c0034135e0f64d976b0d400b6113454086ef1f2ad4",
                               "a1f22dae5aaaae3d4026ada0ff6ca14fb14536e278eaa194a4cae06927ca3473"),
        ("circuit_sampling", 1): ("8741d673287169d7d9233f9ad6fb15100d623d881d93e9325904ead7ce079c40",
                                  "df209cb7fbcdd9e893ea7d39569e4ef978d0efaea8ac8f81351a25786fcb6ece"),
        ("circuit_sampling", 2): ("9da08ba5d996ea73aeb7b37c1a5f03e48771d6784365ed28bf5ee486325fa5a0",
                                  "65237a96645244b0a454704e84e780cd628d1521c27137475bed18d90b995e37"),
    }

    @pytest.mark.parametrize("mode,seed", list(BENCHMARK_SHAPE_GOLDENS))
    def test_benchmark_shape_golden_digests(self, tmp_path, mode, seed):
        config = {"version": 1, "num_qubits": 5, "k": 2, "m": 3, "epsilon": 0.01,
                  "mode": mode, "repetitions": 20, "circuits": 5, "seed": seed}
        cfg_path = tmp_path / "experiment.json"
        cfg_path.write_text(json.dumps(config))
        assert cli.cmd_experiment(str(cfg_path), str(tmp_path / "out")) == 0
        digests = tuple(hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                        for name in ("runs.csv", "summary.json"))
        assert digests == self.BENCHMARK_SHAPE_GOLDENS[mode, seed]


EXPERIMENT_CONFIG = {"version": 1, "num_qubits": 3, "k": 1, "m": 2, "epsilon": 0.2,
                     "repetitions": 1, "circuits": 1, "seed": 4}


def config_path(tmp_path, kind: str, command: str):
    """A config file that ``command`` must reject: missing, not JSON, or the other command's kind."""
    path = tmp_path / "config.json"
    if kind == "invalid-json":
        path.write_text("{not json")
    elif kind == "wrong-kind":
        # each command gets the document the other command reads
        path.write_text(json.dumps(EXPERIMENT_CONFIG) if command == "sample" else bell_document(tmp_path).read_text())
    return path


class TestConfigErrors:
    @pytest.mark.parametrize("kind", ["missing", "invalid-json", "wrong-kind"])
    @pytest.mark.parametrize("command", ["sample", "experiment"])
    def test_rejected_config_exits_2(self, tmp_path, capsys, command, kind):
        argv = [command, "--config", str(config_path(tmp_path, kind, command))]
        argv += ["--seed", "1"] if command == "sample" else ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and "config.json" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestRejectedInput:
    def test_circuit_without_cross_partition_mcz(self, tmp_path, capsys):
        doc = tmp_path / "h-only.json"
        doc.write_text(serialize(Circuit(2, (h(0), h(1)), ("A", "B"))))
        assert cli.main(["sample", "--config", str(doc), "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and "no cross-partition gate" in captured.err
        assert captured.out == ""

    # epsilons whose budget exceeds the shot ceiling: above int64, an
    # infinite bound, and an epsilon whose square is 0
    @pytest.mark.parametrize("flags", [["--epsilon", "0"], ["--epsilon", "nan"],
                                       ["--mode", "shots", "--delta", "1.5"]] + [
        pytest.param(["--mode", mode, "--epsilon", eps], id=f"{mode}-epsilon-{eps}")
        for mode in ("shots", "preest") for eps in ("1e-10", "1e-160", "1e-300")] + [
        # epsilons whose square overflows: a budget far below the term floor
        pytest.param(["--mode", mode, "--epsilon", eps], id=f"{mode}-epsilon-{eps}")
        for mode in ("shots", "preest") for eps in ("1e200", "1e308")])
    def test_sample_accuracy_targets(self, tmp_path, capsys, flags):
        out = tmp_path / "record.json"
        argv = ["sample", "--config", str(bell_document(tmp_path)), "--seed", "1", "--out", str(out)]
        assert cli.main(argv + flags) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and "epsilon" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("fields", [{"epsilon": 0}, {"epsilon": -0.1},
                                        {"mode": "circuit_sampling", "delta": 1.5}] + [
        pytest.param({"mode": mode, "epsilon": eps}, id=f"{mode}-epsilon-{eps}")
        for mode in ("preestimation", "circuit_sampling") for eps in (1e-10, 1e-300)] + [
        pytest.param({"epsilon": 10**400}, id="huge-integer-epsilon")] + [  # beyond the float range
        pytest.param({"mode": mode, "epsilon": eps}, id=f"{mode}-epsilon-{eps}")  # its square overflows
        for mode in ("preestimation", "circuit_sampling") for eps in (1e200, 1e308)])
    def test_experiment_accuracy_targets(self, tmp_path, capsys, fields):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**EXPERIMENT_CONFIG, **fields}))
        assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and "epsilon" in captured.err
        assert not (tmp_path / "out").exists()


    def test_sample_epsilon_below_term_floor(self, tmp_path, capsys):
        # preest at eps = 10 budgets 2 shots; the CZ cut's 6 terms need 12.
        # The CZ budget of 20 at eps = 1.35 and the CCZ budget of 36 at
        # eps = 1.5 (16 terms) pass that floor, but allocate cannot split them.
        ccz = tmp_path / "ccz.json"
        ccz.write_text(serialize(padded_ccz_circuit()))
        out = tmp_path / "record.json"
        for document, epsilon, terms in ((bell_document(tmp_path), "10", 6),
                                         (bell_document(tmp_path), "1.35", 6), (ccz, "1.5", 16)):
            argv = ["sample", "--config", str(document), "--seed", "1", "--out", str(out)]
            assert cli.main(argv + ["--mode", "preest", "--epsilon", epsilon]) == 2
            captured = capsys.readouterr()
            assert len(captured.err.splitlines()) == 1 and f"epsilon {epsilon}" in captured.err
            assert f"{terms} terms" in captured.err
            assert captured.out == "" and not out.exists()

    def test_experiment_epsilon_below_term_floor(self, tmp_path, capsys):
        # the (2, 3) cut has 17 terms; eps = 100 budgets 2 shots, and eps = 2
        # budgets 36, above the 34 of one shot per subcircuit but too few to split
        cfg_path = tmp_path / "config.json"
        for epsilon in (100, 2):
            fields = {"num_qubits": 5, "k": 2, "m": 3, "epsilon": epsilon}
            cfg_path.write_text(json.dumps({**EXPERIMENT_CONFIG, **fields}))
            assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
            captured = capsys.readouterr()
            assert len(captured.err.splitlines()) == 1 and "17 terms" in captured.err
            assert captured.out == "" and not (tmp_path / "out").exists()

    def test_sample_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "record.json"
        argv = ["sample", "--config", str(bell_document(tmp_path)), "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and str(out) in captured.err
        assert captured.out == ""

    def test_decompose_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "d.json"
        assert cli.main(["decompose", "--order", "3", "--cut", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(out) in err

    def test_decompose_unwritable_out_prints_nothing(self, tmp_path, capsys):
        # the residual line used to print before the failed write
        out = tmp_path / "missing" / "d.json"
        assert cli.main(["decompose", "--order", "3", "--cut", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""

    def test_experiment_out_is_a_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(EXPERIMENT_CONFIG))
        out = tmp_path / "taken"
        out.write_text("")
        assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and str(out) in captured.err
        assert captured.out == "" and out.read_text() == ""

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_experiment_workers_below_one(self, tmp_path, capsys, workers):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(EXPERIMENT_CONFIG))
        argv = ["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--workers", workers]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and "--workers" in captured.err
        assert captured.out == "" and not (tmp_path / "out").exists()

    def test_budget_just_below_shot_ceiling_runs(self, tmp_path):
        out = tmp_path / "record.json"
        doc = str(bell_document(tmp_path))
        assert cli.cmd_sample(doc, "preest", 5e-9, seed=1, out=str(out)) == 0
        # 4 kappa^2 / eps^2 at kappa = 3
        assert json.loads(out.read_text())["budget"] == pytest.approx(1.44e18)

    @pytest.mark.parametrize("fields", [{"seed": -1}, {"seed": 1.5}, {"circuits": "2"},
                                        {"repetitions": 2.0}, {"num_qubits": 3.0}, {"k": 1.0},
                                        {"k": 0, "m": 3}, {"circuits": 0}, {"circuits": -1},
                                        {"epsilon": True}, {"version": True}, {"version": 1.0},
                                        {"delta": None, "mode": "circuit_sampling"},
                                        {"repetitions": 10**12}, {"circuits": 10**9}],
                             ids=lambda fields: ",".join(f"{k}={v!r}" for k, v in fields.items()))
    def test_experiment_config_fields(self, tmp_path, capsys, fields):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**EXPERIMENT_CONFIG, **fields}))
        assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and next(iter(fields)) in captured.err
        assert captured.out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case,field", [
        ("nan-angle", "angle"), ("infinite-angle", "angle"), ("fractional-num-qubits", "num_qubits"),
        ("string-partition", "partition"), ("string-qubits", "qubits"), ("wider-than-simulator", "21 qubits"),
        ("huge-integer-angle", "angle"),
    ])
    def test_circuit_document_fields(self, tmp_path, capsys, case, field):
        doc = json.loads(bell_document(tmp_path).read_text())
        if case == "nan-angle":
            doc["gates"].insert(0, {"kind": "RY", "qubits": [0], "angle": float("nan")})
        elif case == "infinite-angle":
            doc["gates"].insert(0, {"kind": "RY", "qubits": [0], "angle": float("inf")})
        elif case == "fractional-num-qubits":
            doc["num_qubits"] = 2.9
        elif case == "string-partition":
            doc["partition"] = "AB"
        elif case == "string-qubits":
            doc["gates"][0]["qubits"] = "0"
        elif case == "huge-integer-angle":  # beyond the float range
            doc["gates"].insert(0, {"kind": "RY", "qubits": [0], "angle": 10**400})
        else:
            doc["num_qubits"] = 21
            doc["partition"] = ["A"] + ["B"] * 20
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity as json.loads reads them
        out = tmp_path / "record.json"
        assert cli.main(["sample", "--config", str(path), "--seed", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and field in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["sample", "experiment"])
    def test_deeply_nested_config(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        argv = [command, "--config", str(path)]
        argv += ["--seed", "1"] if command == "sample" else ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and "deep.json" in captured.err
        assert captured.out == "" and not (tmp_path / "out").exists()

    def test_experiment_config_not_an_object(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text("[]")
        assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and "JSON object" in captured.err
        assert captured.out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("label", [["A"], 1, None], ids=["list", "int", "null"])
    def test_partition_label_not_a_string(self, tmp_path, capsys, label):
        doc = json.loads(bell_document(tmp_path).read_text())
        doc["partition"][0] = label
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["sample", "--config", str(path), "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and "'partition'" in captured.err
        assert captured.out == ""

    def test_negative_seed_flag(self, tmp_path, capsys):
        out = tmp_path / "record.json"
        argv = ["sample", "--config", str(bell_document(tmp_path)), "--seed", "-1", "--out", str(out)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and "--seed" in captured.err
        assert captured.out == "" and not out.exists()

    def test_negative_seed_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "-3")
        out = tmp_path / "record.json"
        assert cli.main(["sample", "--config", str(bell_document(tmp_path)), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and cli.SEED_ENV_VAR in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sample"], ["sample", "--config", "c.json", "--epsilon", "abc"], ["verify", "--sizes", "two"],
        ["bogus"], [], ["experiment", "--config", "c.json", "--out", "out", "--workers", "1.5"],
    ], ids=["sample-without-config", "non-float-epsilon", "non-integer-sizes", "unknown-subcommand",
            "no-subcommand", "fractional-workers"])
    def test_malformed_command_line(self, capsys, argv):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("mczcut: error: ")
        assert captured.out == ""


class TestMainEntry:
    def test_kappa_table_via_argv(self, capsys):
        assert cli.main(["kappa-table"]) == 0
        assert "CZ" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sample", "--help"])
        assert exc.value.code == 0 and "--config" in capsys.readouterr().out

    def test_seed_env_var(self, tmp_path, monkeypatch, capsys):
        doc = bell_document(tmp_path)
        monkeypatch.setenv(cli.SEED_ENV_VAR, "77")
        out = tmp_path / "env.json"
        assert cli.main(["sample", "--config", str(doc), "--epsilon", "0.1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 77

    def test_seed_flag_overrides_env(self, tmp_path, monkeypatch):
        doc = bell_document(tmp_path)
        monkeypatch.setenv(cli.SEED_ENV_VAR, "77")
        out = tmp_path / "flag.json"
        cli.main(["sample", "--config", str(doc), "--epsilon", "0.1", "--seed", "5", "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 5

    def test_non_integer_seed_env_var(self, tmp_path, monkeypatch, capsys):
        doc = bell_document(tmp_path)
        monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
        assert cli.main(["sample", "--config", str(doc), "--epsilon", "0.1"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and cli.SEED_ENV_VAR in err

    def test_console_entry_point(self, tmp_path):
        # the child imports the package under test, not whatever is on its own path
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        result = subprocess.run([sys.executable, "-m", "mczcut.cli", "kappa-table"],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0
        assert "CZ" in result.stdout
