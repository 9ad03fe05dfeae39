"""Command-line harness.

Subcommands:

* ``verify``       -- run the full identity and decomposition-oracle suite
* ``decompose``    -- export one decomposition document and its kappa
* ``kappa-table``  -- print the overhead constants up to order 6
* ``sample``       -- one sampling run on a circuit document
* ``experiment``   -- the Fig-style uncut/cut comparison dataset

Exit code 0 means every requested check passed; exit code 2 with a one-line
message means the input was rejected (a malformed command line, a missing or
malformed config, an experiment config field of the wrong type or range, an
experiment of more than ``experiments.MAX_CIRCUITS`` circuits or
``experiments.MAX_RUNS`` runs, a circuit document field of the wrong type, a
non-finite angle, a circuit wider than the statevector simulator, a circuit
without exactly one cross-partition MCZ, an epsilon or delta no budget meets
or whose budget exceeds the shot ceiling ``sampler.MAX_SHOTS``, a
pre-estimation epsilon whose budget ``sampler.allocate`` cannot split over
the terms at one shot per subcircuit or whose square overflows, an
out-of-range order or cut, a seed that is not a non-negative integer, a
worker count below 1, an output path that cannot be written, or a cut that
``cutter.prepare`` refuses: one above the certified order
``cutter.MAX_CERTIFIED_ORDER``, one whose branch tables would exceed
``cutter.MAX_TABLE_BYTES``, or one whose decomposition cannot be certified).
Identical invocations with identical seeds produce byte-identical output
files.  The MCZCUT_SEED environment variable supplies a default seed when
--seed is absent.

``sample`` and ``experiment`` get their branch tables from
``cutter.prepare`` alone, so both sample only from a certified
decomposition, never from one above the certified order.  ``sample`` turns
a refusal into exit code 2.  ``experiment`` catches none: its decomposition
is the generator's own, so a failed certificate there is a program fault
and stays a traceback.  ``sample`` prints the exact value next to the
estimate.  That value comes from the MCZ's rank-two form
(``cutter.final_state``), which runs each side on its own, never the full
register.  Either value prints as +0.000000 when it rounds to zero at six
decimals.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import cutter, densesim, experiments, sampler, zhcalc
from .circuit import Observable, find_cut, parse

SEED_ENV_VAR = "MCZCUT_SEED"
DEFAULT_VERIFY_ORDERS = range(2, 7)


class InputError(Exception):
    """Rejected input; ``main`` reports it as one line and exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as ``InputError``; subparsers share the class."""

    def error(self, message):
        raise InputError(message)


def _write(path: Path, text: str) -> None:
    """Write an output file; a path that cannot be written is rejected input."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _default_seed(args_seed: int | None) -> int:
    """The --seed value, else MCZCUT_SEED, else 0; a seed must be a non-negative integer."""
    if args_seed is not None:
        source, raw = "--seed", args_seed
    else:
        source, raw = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, "0")
    try:
        seed = int(raw)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise InputError(f"{source} must be a non-negative integer, got {raw!r}")
    return seed


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _identity_checks():
    checks = []
    for total in range(1, 11):
        for m in range(total + 1):
            n = total - m
            checks.append((f"fusion rule m={m} n={n}", lambda m=m, n=n: zhcalc.check_fusion_rule(m, n), 1e-12))
    for n in range(1, 9):
        for j in range(8):
            theta = 2 * math.pi * j / 8
            checks.append((f"hbox contraction n={n} theta={theta:.4f}",
                           lambda n=n, t=theta: zhcalc.check_contraction_identities(n, t), 1e-12))
    for n in range(1, 7):
        # fixed entries of distinct moduli and phases: verify draws no random numbers
        v = np.arange(1, 2**n + 1) * np.exp(1j * np.arange(2**n))
        checks.append((f"diagonal construction n={n}", lambda v=v: zhcalc.check_diag_lemma(v), 1e-12))
    checks.append(("coupling block expansion", zhcalc.check_choi_block_expansion, 1e-14))
    for n in range(1, 6):
        checks.append((f"projector rewrite n={n}", lambda n=n: cutter.rewrite_projector(n), 1e-12))
    return checks


def cmd_verify(sizes=None) -> int:
    """Run every identity check and decomposition oracle; return a process exit code."""
    failures = 0

    def report(name, residual, tol):
        nonlocal failures
        ok = residual < tol
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: residual {residual:.3e} (tol {tol:.0e})")

    orders = sizes if sizes else DEFAULT_VERIFY_ORDERS
    for order in orders:
        if not 2 <= order <= cutter.MAX_CERTIFIED_ORDER:
            raise InputError(f"verify sizes must lie in [2, {cutter.MAX_CERTIFIED_ORDER}], got {order}")

    for name, fn, tol in _identity_checks():
        report(name, fn(), tol)
    for n in range(2, 9):
        residual = zhcalc.check_mcz_representation(n)
        report(f"mcz tensor n={n} (exact)", residual, 1e-15 if residual == 0.0 else 0.0)

    for order in orders:
        for k in range(1, order):
            m = order - k
            result = cutter.verify(cutter.decompose_mcz(k, m))
            report(f"decomposition oracle ({k},{m})", result.residual, cutter.ORACLE_TOL)
            report(f"double-fusion channel form ({k},{m})", result.hbox_form_residual, cutter.ORACLE_TOL)
            if result.dense_residual is not None:
                report(f"dense superoperator cross-check ({k},{m})", result.dense_residual, cutter.ORACLE_TOL)

    print("all checks passed" if failures == 0 else f"{failures} checks FAILED")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# decompose / kappa-table
# ---------------------------------------------------------------------------

def cmd_decompose(order: int, cut: int, out: str | None = None) -> int:
    if not 2 <= order <= 12:
        raise InputError(f"order must lie in [2, 12], got {order}")
    if not 1 <= cut < order:
        raise InputError(f"cut position must lie in [1, {order - 1}], got {cut}")
    d = cutter.decompose_mcz(cut, order - cut)
    result = cutter.verify(d) if order <= cutter.MAX_CERTIFIED_ORDER else None
    if result is not None and not result.passed:
        print(f"FAIL oracle residual {result.residual:.3e}")
        return 1
    doc = json.dumps(d.to_document(), indent=2, sort_keys=True)
    if out:  # before any output, so an unwritable path prints nothing
        _write(Path(out), doc + "\n")
    if result is not None:
        print(f"oracle residual {result.residual:.3e} (PASS)")
    print(f"wrote {out}" if out else doc)
    print(f"kappa = {d.kappa}")
    return 0


def cmd_kappa_table() -> int:
    rows = experiments.kappa_table()
    width = max(len(r["label"]) for r in rows)
    print(f"{'gate type':<{width}}  order  split  kappa   terms")
    for r in rows:
        print(f"{r['label']:<{width}}  {r['order']:>5}  ({r['k']},{r['m']})  {r['kappa']:<6g}  {r['terms']}")
    return 0


# ---------------------------------------------------------------------------
# sample / experiment
# ---------------------------------------------------------------------------

def _signed6(value: float) -> str:
    """The value at six decimals with its sign; one that rounds to zero prints
    +0.000000, whatever the sign of its rounding noise."""
    text = f"{value:+.6f}"
    return "+0.000000" if text == "-0.000000" else text


def cmd_sample(config_path: str, mode: str, epsilon: float, seed: int,
               delta: float = 0.05, out: str | None = None) -> int:
    try:
        circuit = parse(Path(config_path).read_text())
    except (OSError, ValueError, TypeError) as exc:
        raise InputError(f"cannot read circuit document {config_path}: {exc}") from None
    if circuit.num_qubits > densesim.MAX_STATE_QUBITS:
        raise InputError(f"circuit document {config_path} has {circuit.num_qubits} qubits; "
                         f"the simulator runs at most {densesim.MAX_STATE_QUBITS}")
    try:
        cut = find_cut(circuit)
    except ValueError as exc:
        raise InputError(f"no cuttable MCZ in {config_path}: {exc}") from None
    decomposition = cutter.decompose_mcz(cut.k, cut.m)
    try:
        if mode == "shots":
            budget = sampler.ShotBudget.for_circuit_sampling(epsilon, delta, decomposition.kappa)
        else:
            total = sampler.preestimation_budget(epsilon, decomposition.kappa)
            budget = sampler.ShotBudget(total + total % 2, epsilon, decomposition.kappa, mode="preestimation")
            sampler.check_term_floor(budget.total, decomposition.terms, epsilon)
        prepared = cutter.prepare(cut, decomposition)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    # built before the final state, so its parity temporaries never sit beside it
    observable = Observable.z_string(circuit.num_qubits)
    estimator = sampler.sample_circuit_mode if mode == "shots" else sampler.preestimation_mode
    record = estimator(prepared.terms, budget, seed, prepared.values_a, prepared.values_b,
                       decomposition=decomposition, tables=prepared.tables)
    exact = densesim.expval(cutter.final_state(cut), observable)
    if out:  # before the result line, so an unwritable path prints nothing
        _write(Path(out), record.to_json() + "\n")
    print(f"exact = {_signed6(exact)}  estimate = {_signed6(record.estimate)}  "
          f"std_dev = {record.std_dev:.2e}  shots = {record.shots}")
    if out:
        print(f"wrote {out}")
    return 0


def cmd_experiment(config_path: str, out_dir: str, workers: int = 1) -> int:
    if workers < 1:
        raise InputError(f"--workers must be at least 1, got {workers}")
    try:
        doc = json.loads(Path(config_path).read_text())
        config = experiments.ExperimentConfig.from_document(doc)
    except (OSError, ValueError, TypeError, RecursionError) as exc:
        raise InputError(f"cannot read experiment config {config_path}: {exc}") from None
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {out}: {exc}") from None
    rows = experiments.run_experiment(config, workers=workers)
    _write(out / "runs.csv", experiments.rows_to_csv(rows))
    _write(out / "summary.json", experiments.summary_json(rows, config) + "\n")
    summary = experiments.summarize(rows, config)
    for arm in ("cut", "uncut"):
        std = summary[arm]["std_dev"]
        print(f"{arm} std_dev = {'n/a (single run)' if std is None else format(std, '.3e')}")
    print(f"wrote {out / 'runs.csv'} and {out / 'summary.json'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mczcut", description="Multi-controlled-Z gate cutting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the identity and oracle suite")
    p.add_argument("--sizes", type=int, nargs="*", default=None,
                   help="restrict decomposition checks to these gate orders")

    p = sub.add_parser("decompose", help="export a decomposition document")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--cut", type=int, required=True, help="number of qubits on side A")
    p.add_argument("--out", default=None)

    sub.add_parser("kappa-table", help="print sampling-overhead constants")

    p = sub.add_parser("sample", help="one sampling run on a circuit document")
    p.add_argument("--config", required=True, help="circuit document (JSON)")
    p.add_argument("--mode", choices=["shots", "preest"], default="preest")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("experiment", help="uncut/cut comparison dataset")
    p.add_argument("--config", required=True, help="experiment config document (JSON)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=int, default=1)

    return parser


def main(argv=None) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv))
    except InputError as exc:
        print(f"mczcut: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "verify":
        return cmd_verify(sizes=args.sizes)
    if args.command == "decompose":
        return cmd_decompose(args.order, args.cut, args.out)
    if args.command == "kappa-table":
        return cmd_kappa_table()
    if args.command == "sample":
        return cmd_sample(args.config, args.mode, args.epsilon,
                          _default_seed(args.seed), args.delta, args.out)
    return cmd_experiment(args.config, args.out, args.workers)  # the parser admits no other command


if __name__ == "__main__":
    sys.exit(main())
