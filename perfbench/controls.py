"""Negative controls: every correctness check must reject a corrupted output.

    python3 perfbench/controls.py

Runs one real operation of each workload (about 45 s in all), shows that its
check accepts the output, then corrupts one thing at a time and shows that
the check rejects it.  Prints one line per control; exit code 0 when every
control behaves.
"""

from __future__ import annotations

import copy
import sys
import time

import reference
from run import run_worker
from workloads import WORKLOADS


def _flip_first_coefficient(spec, op, artefacts):
    term = artefacts["2,3"]["terms"][0]
    term["coefficient"] = -term["coefficient"]


def _fail_one_line(spec, op, artefacts):
    line = "decomposition oracle (2,3)"
    op["stdout"] = op["stdout"].replace(f"PASS  {line}", f"FAIL  {line}")


def _shift_estimate(spec, op, artefacts):
    op["record"]["estimate"] += 3 * WORKLOADS["sample-wide"].epsilon


def _reference_without_mcz(spec, op, artefacts):
    doc = WORKLOADS["sample-wide"].circuit(spec["seed"])[0]
    doc["gates"] = [g for g in doc["gates"] if g["kind"] != "MCZ"]
    spec["exact"] = reference.zstring_value(doc)


def _scale_cut_errors(spec, op, artefacts):
    op["summary"]["cut"]["std_dev"] *= 3


def _shift_cut_mean(spec, op, artefacts):
    summary = op["summary"]["cut"]
    summary["mean"] += 5 * summary["std_dev"] / 10


CONTROLS = {
    "verify": [
        ("flipped coefficient sign (2,3)", _flip_first_coefficient),
        ("kappa off by 0.25 (3,3)", lambda s, o, a: a["3,3"].update(kappa=a["3,3"]["kappa"] + 0.25)),
        ("one oracle line FAIL", _fail_one_line),
        ("exit code 1", lambda s, o, a: o.update(rc=1)),
    ],
    "experiment": [
        ("shots off by 2", lambda s, o, a: o["summary"].update(shots=o["summary"]["shots"] + 2)),
        ("cut std-dev x3", _scale_cut_errors),
        ("cut mean shifted by 5 SE", _shift_cut_mean),
        ("uncut std-dev x3", lambda s, o, a: o["summary"]["uncut"].update(
            std_dev=3 * o["summary"]["uncut"]["std_dev"])),
    ],
    "sample-wide": [
        ("estimate shifted by 3 eps", _shift_estimate),
        ("shots off by 1", lambda s, o, a: o["record"].update(budget=o["record"]["budget"] + 1)),
        ("program exact off by 1e-8", lambda s, o, a: o.update(program_exact=o["program_exact"] + 1e-8)),
        ("reference from the circuit without its MCZ", _reference_without_mcz),
    ],
}


def main() -> int:
    bad = 0
    for name, controls in CONTROLS.items():
        workload = WORKLOADS[name]
        spec, _, result = run_worker(workload, seed=1, seconds=0, trace=0,
                                     deadline=time.perf_counter() + 170)
        op, artefacts = result["ops"][0], result["artefacts"]
        errors = workload.check(spec, op, artefacts)
        print(f"{'FAIL' if errors else 'PASS'}  {name}: real output "
              f"{'rejected: ' + '; '.join(errors) if errors else 'accepted'}")
        bad += bool(errors)
        for label, corrupt in controls:
            s, o, a = copy.deepcopy((spec, op, artefacts))
            corrupt(s, o, a)
            errors = workload.check(s, o, a)
            print(f"{'PASS' if errors else 'FAIL'}  {name}: {label} rejected: {'; '.join(errors)}")
            bad += not errors
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
