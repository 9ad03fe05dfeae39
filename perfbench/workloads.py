"""The three workloads: their pinned inputs, their operations and their checks.

This module is shared by the harness (``run.py``), which prepares inputs and
checks outputs, and by the program process (``worker.py``), which runs the
operations.  It never imports ``mczcut``; the worker hands the program in.

Every workload pins its own sizes, config and seeds, so a later change of a
CLI default cannot change the work a workload does.  Seeds derive from the
workload seed and the operation index (``derive``), so every run does the
same amount of work on inputs the benchmark seed selects.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np

import reference


def derive(seed: int, *key: int) -> int:
    """A 32-bit seed derived from the workload seed and a key path."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


class Verify:
    """Certify every split of the orders 2..6: ZH identities plus the dense oracle."""

    name = "verify"
    sizes = (2, 3, 4, 5, 6)
    splits = [(k, order - k) for order in sizes for k in range(1, order)]

    def prepare(self, seed: int, workdir: Path) -> dict:
        return {}  # no randomness: the identity suite and the oracle are fixed

    def warmup_argv(self, spec: dict, workdir: Path) -> list[str]:
        return ["verify", "--sizes", "2"]

    def op_argv(self, spec: dict, op: int, workdir: Path) -> list[str]:
        return ["verify", "--sizes", *map(str, self.sizes)]

    def artefacts(self, program) -> dict:
        """The decomposition documents the oracle certifies, keyed "k,m"."""
        return {f"{k},{m}": program.cutter.decompose_mcz(k, m).to_document() for k, m in self.splits}

    def collect(self, spec: dict, op: int, workdir: Path, program) -> dict:
        return {}

    def check(self, spec: dict, op: dict, artefacts: dict) -> list[str]:
        errors = []
        lines = op["stdout"].splitlines()
        if op["rc"] != 0:
            errors.append(f"exit code {op['rc']}")
        if not lines or lines[-1] != "all checks passed":
            errors.append("missing 'all checks passed'")
        errors += [f"not PASS: {line}" for line in lines[:-1] if not line.startswith("PASS  ")]
        for k, m in self.splits:
            for form in ("decomposition oracle", "double-fusion channel form"):
                if f"PASS  {form} ({k},{m}):" not in op["stdout"]:
                    errors.append(f"no PASS line for {form} ({k},{m})")
            doc = artefacts[f"{k},{m}"]
            residual = reference.reconstruction_residual(doc)
            if not residual < 1e-10:
                errors.append(f"({k},{m}) reconstruction residual {residual:.3e}")
            expected = reference.closed_form_kappa(k, m)
            one_norm = sum(abs(t["coefficient"]) for t in doc["terms"])
            if abs(doc["kappa"] - expected) > 1e-12 or abs(one_norm - expected) > 1e-12:
                errors.append(f"({k},{m}) kappa {doc['kappa']!r}, closed form {expected!r}")
        return errors


class Experiment:
    """The criterion-6 uncut/cut error study: 5 circuits x 20 repetitions."""

    name = "experiment"
    epsilon = 1e-2
    shots = 1_440_000  # 4 * 6^2 / eps^2, the order-independent budget
    runs = 100

    def config(self, seed: int, circuits: int = 5, repetitions: int = 20) -> dict:
        return {"version": 1, "num_qubits": 5, "k": 2, "m": 3, "epsilon": self.epsilon,
                "mode": "preestimation", "repetitions": repetitions, "circuits": circuits,
                "seed": seed}

    def prepare(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed}

    def _argv(self, config: dict, path: Path, out: Path) -> list[str]:
        path.write_text(json.dumps(config))
        return ["experiment", "--config", str(path), "--out", str(out), "--workers", "1"]

    def warmup_argv(self, spec: dict, workdir: Path) -> list[str]:
        config = self.config(derive(spec["seed"], 1), circuits=1, repetitions=2)
        return self._argv(config, workdir / "warmup.json", workdir / "warmup")

    def op_argv(self, spec: dict, op: int, workdir: Path) -> list[str]:
        config = self.config(derive(spec["seed"], 0, op))
        return self._argv(config, workdir / f"config-{op}.json", workdir / f"out-{op}")

    def artefacts(self, program) -> dict:
        return {}

    def collect(self, spec: dict, op: int, workdir: Path, program) -> dict:
        out = workdir / f"out-{op}"
        return {"summary": json.loads((out / "summary.json").read_text()),
                "runs": (out / "runs.csv").read_text(),
                "config_seed": derive(spec["seed"], 0, op)}

    def check(self, spec: dict, op: dict, artefacts: dict) -> list[str]:
        if op["rc"] != 0:
            return [f"exit code {op['rc']}"]
        errors = []
        summary = op["summary"]
        kappa = reference.closed_form_kappa(2, 3)
        cut, uncut = summary["cut"], summary["uncut"]
        rows = list(csv.DictReader(io.StringIO(op["runs"])))
        if summary["shots"] != self.shots or any(int(r["shots"]) != self.shots for r in rows):
            errors.append(f"shots {summary['shots']}, expected {self.shots}")
        if len(rows) != self.runs:
            errors.append(f"{len(rows)} rows, expected {self.runs}")
        if summary["config"]["seed"] != op["config_seed"]:
            errors.append("summary does not echo the config seed")
        if abs(summary["kappa"] - kappa) > 1e-12:
            errors.append(f"kappa {summary['kappa']!r}, closed form {kappa!r}")
        # Pre-estimation bounds the cut std-dev by eps.  Criterion 6's upper
        # edge of 5e-3 is calibrated on config seed 11; other seeds reach
        # 4.9e-3 (50-seed scan in README.md), so it would fail working code.
        if not 1.5e-3 <= cut["std_dev"] <= self.epsilon:
            errors.append(f"cut std-dev {cut['std_dev']:.3e} outside [1.5e-3, eps]")
        if not 0.5 <= uncut["std_dev"] * math.sqrt(self.shots) <= 2.0:
            errors.append(f"uncut std-dev {uncut['std_dev']:.3e} not within 2x of 1/sqrt(N)")
        standard_error = cut["std_dev"] / math.sqrt(self.runs)
        if not abs(cut["mean"]) <= 4 * standard_error:
            errors.append(f"|mean cut error| {abs(cut['mean']):.3e} above 4 SE {4 * standard_error:.3e}")
        errors += _errors_rows(rows, summary)
        for arm in ("cut", "uncut"):
            if f"{arm} std_dev = {summary[arm]['std_dev']:.3e}" not in op["stdout"]:
                errors.append(f"printed {arm} std-dev differs from summary.json")
        return errors


def _number(text: str) -> float:
    # runs.csv writes numpy scalars with repr(), which numpy >= 2 renders as
    # "np.float64(x)" (a program fault noted in CHANGES.md); read x either way.
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _errors_rows(rows, summary) -> list[str]:
    """Each row's errors are its estimates minus its exact value, and the
    summary's cut and uncut statistics are those of the rows."""
    for r in rows:
        exact = _number(r["exact"])
        if not -1.0 <= exact <= 1.0:
            return [f"exact value {exact} outside [-1, 1]"]
        for arm in ("uncut", "cut"):
            if abs(_number(r[f"{arm}_estimate"]) - exact - _number(r[f"{arm}_error"])) > 1e-12:
                return [f"{arm}_error is not estimate - exact"]
    for arm in ("uncut", "cut"):
        errors = np.array([_number(r[f"{arm}_error"]) for r in rows])
        if (abs(errors.mean() - summary[arm]["mean"]) > 1e-12
                or abs(errors.std(ddof=1) - summary[arm]["std_dev"]) > 1e-12):
            return [f"summary {arm} statistics differ from runs.csv"]
    return []


def _restrict(doc: dict, qubits) -> dict:
    """The gates acting only on ``qubits``, renumbered 0..len-1."""
    index = {q: i for i, q in enumerate(qubits)}
    gates = [dict(g, qubits=[index[q] for q in g["qubits"]])
             for g in doc["gates"] if set(g["qubits"]) <= set(index)]
    return {"num_qubits": len(qubits), "gates": gates}


class SampleWide:
    """Circuit-sampling estimate on an 18-qubit (9 A + 9 B) circuit, MCZ split (2, 3).

    Large rotations sit on the five MCZ qubits and small ones elsewhere, so
    the other qubits' Z factors stay near 1 and the MCZ's effect on the
    five-qubit block shows in the full Z-string value; every qubit carries
    rotations, so all 2^18 outcomes have non-zero probability.
    """

    name = "sample-wide"
    num_qubits = 18
    side_a = 9
    mcz_qubits = (7, 8, 9, 10, 11)  # (2, 3) across the cut after qubit 8
    epsilon = 1e-3
    delta = 0.05
    min_impact = 0.05  # |exact - exact without the MCZ| >= 50 eps
    max_attempts = 200

    def circuit(self, seed: int) -> tuple[dict, float, float, int]:
        """The seeded circuit document, its exact value, the MCZ impact, attempts.

        Only the MCZ couples qubits, so the Z-string value factorizes into the
        MCZ qubits' block times one factor per other qubit; rejection uses
        that, and the full 18-qubit simulation runs once on the accepted
        circuit and must agree with it.
        """
        rng = np.random.default_rng(derive(seed, 2))
        others = [q for q in range(self.num_qubits) if q not in self.mcz_qubits]
        for attempt in range(1, self.max_attempts + 1):
            def angle(q):
                if q in self.mcz_qubits:
                    return float(rng.uniform(math.pi / 4, 3 * math.pi / 4))
                return float(rng.uniform(0.05, 0.3))
            pre = [g for q in range(self.num_qubits)
                   for g in ({"kind": "RY", "qubits": [q], "angle": angle(q)},
                             {"kind": "RZ", "qubits": [q], "angle": float(rng.uniform(0, 2 * math.pi))})]
            post = [{"kind": "RX", "qubits": [q], "angle": angle(q)} for q in range(self.num_qubits)]
            mcz = {"kind": "MCZ", "qubits": list(self.mcz_qubits)}
            doc = {"version": 1, "num_qubits": self.num_qubits,
                   "partition": ["A"] * self.side_a + ["B"] * (self.num_qubits - self.side_a),
                   "gates": pre + [mcz] + post}
            rest = math.prod(reference.zstring_value(_restrict(doc, [q])) for q in others)
            block = reference.zstring_value(_restrict(doc, self.mcz_qubits))
            without = reference.zstring_value(_restrict(dict(doc, gates=pre + post), self.mcz_qubits))
            if abs(block - without) * abs(rest) >= self.min_impact:
                exact = reference.zstring_value(doc)
                if abs(exact - block * rest) > 1e-12:
                    raise RuntimeError("the 18-qubit reference disagrees with its factorization")
                return doc, exact, (block - without) * rest, attempt
        raise RuntimeError(f"no circuit reached MCZ impact {self.min_impact}")

    def prepare(self, seed: int, workdir: Path) -> dict:
        doc, exact, _, _ = self.circuit(seed)
        path = workdir / "circuit.json"
        path.write_text(json.dumps(doc))
        return {"seed": seed, "circuit": str(path), "exact": exact}

    def _argv(self, spec: dict, epsilon: float, seed: int, out: Path) -> list[str]:
        return ["sample", "--config", spec["circuit"], "--mode", "shots",
                "--epsilon", repr(epsilon), "--delta", repr(self.delta),
                "--seed", str(seed), "--out", str(out)]

    def warmup_argv(self, spec: dict, workdir: Path) -> list[str]:
        return self._argv(spec, 1e-1, derive(spec["seed"], 1), workdir / "warmup.json")

    def op_argv(self, spec: dict, op: int, workdir: Path) -> list[str]:
        return self._argv(spec, self.epsilon, derive(spec["seed"], 0, op), workdir / f"record-{op}.json")

    def artefacts(self, program) -> dict:
        return {}

    def collect(self, spec: dict, op: int, workdir: Path, program) -> dict:
        return {"record": json.loads((workdir / f"record-{op}.json").read_text()),
                "program_exact": program.exact_values[-1],
                "sample_seed": derive(spec["seed"], 0, op)}

    def check(self, spec: dict, op: dict, artefacts: dict) -> list[str]:
        if op["rc"] != 0:
            return [f"exit code {op['rc']}"]
        errors = []
        record, exact = op["record"], spec["exact"]
        kappa = reference.closed_form_kappa(2, 3)
        shots = reference.hoeffding_shots(self.epsilon, self.delta, kappa)
        printed = re.search(r"exact = (\S+)  estimate = (\S+)  std_dev = \S+  shots = (\d+)", op["stdout"])
        if printed is None:
            return ["no result line printed"]
        if abs(op["program_exact"] - exact) > 1e-9:
            errors.append(f"program exact {op['program_exact']!r}, reference {exact!r}")
        if abs(float(printed[1]) - exact) > 5e-7 or abs(float(printed[2]) - record["estimate"]) > 5e-7:
            errors.append("printed exact or estimate differs from the reference or the record")
        if not abs(record["estimate"] - exact) <= 2 * self.epsilon:
            errors.append(f"|estimate - exact| = {abs(record['estimate'] - exact):.3e} above 2 eps")
        if record["budget"] != shots or int(printed[3]) != shots:
            errors.append(f"shots {record['budget']}, Hoeffding budget {shots}")
        if abs(record["kappa"] - kappa) > 1e-12:
            errors.append(f"kappa {record['kappa']!r}, closed form {kappa!r}")
        if record["mode"] != "circuit_sampling" or record["seed"] != op["sample_seed"]:
            errors.append("record mode or seed differs from the request")
        return errors


WORKLOADS = {w.name: w for w in (Verify(), Experiment(), SampleWide())}
