"""Benchmark command: one run of one workload, printed as one JSON line.

    python3 perfbench/run.py --workload {verify,experiment,sample-wide} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The harness prepares the workload's inputs
from the seed and the references they are checked against, measures the
program's set-up time (``setup_s``: the median over fresh interpreters that
import ``mczcut``), then starts the program process (``worker.py``) in a
fresh interpreter, which runs operations for S seconds.  Every output is
checked against ``reference.py`` or a property the method must have.  The
last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``op_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` the per-layer ones, and the
spans go to ``perfbench/out/trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
RUN_LIMIT_S = 170.0  # the whole run, worker included, must end within 180 s
SETUP_REPEATS = 15


def program_env() -> dict:
    """Process-local settings every program process runs under.

    The bytecode cache is always used, as for an installed package, so that
    ``setup_s`` does not depend on the caller's PYTHONDONTWRITEBYTECODE.
    """
    env = dict(os.environ)
    for name in ("MCZCUT_SEED", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    Pinning keeps the single-threaded program from migrating between CPUs,
    which narrows the spread of its timings; the last allowed CPU is used.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter importing the CLI module.

    One discarded start first, so the bytecode cache of a fresh checkout is
    written before timing.
    """
    command = [sys.executable, "-c", "import mczcut.cli"]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


def run_worker(workload, seed: int, seconds: float, trace: int, deadline: float):
    """Prepare inputs, optionally measure set-up, run the program process.

    Returns (spec, setup_s, result); the run's scratch directory is removed.
    The program process is killed at ``deadline`` (a ``time.perf_counter``).
    """
    workdir = OUT / f"run-{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        spec = workload.prepare(seed, workdir)
        (workdir / "spec.json").write_text(json.dumps(spec))
        env = program_env()
        setup_s = None if trace else measure_setup(env)
        command = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
                   "--seconds", str(seconds), "--trace", str(trace),
                   "--src", str(SRC), "--workdir", str(workdir),
                   "--spec", str(workdir / "spec.json"), "--result", str(workdir / "result.json"),
                   "--spans", str(OUT / f"trace-{workload.name}-seed{seed}.json")]
        subprocess.run(command, env=env, cwd=ROOT, check=True, stdout=sys.stderr,
                       timeout=deadline - time.perf_counter())
        return spec, setup_s, json.loads((workdir / "result.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    if not (SRC / "mczcut" / "cli.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_to_one_cpu()
    spec, setup_s, result = run_worker(workload, args.seed, args.seconds, args.trace,
                                       started + RUN_LIMIT_S)

    ops = result["ops"]
    done = [op for op in ops if "error" not in op]
    wrong = []
    for i, op in enumerate(ops):
        if "error" in op:
            print(f"{args.workload}: op {i} failed: {op['error']}", file=sys.stderr)
        else:
            wrong += [f"op {i}: {e}" for e in workload.check(spec, op, result["artefacts"])]
    for line in wrong:
        print(f"{args.workload}: {line}", file=sys.stderr)

    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {"op_s": {"value": statistics.median(op["seconds"] for op in done) if done else None,
                            "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"}}
    print(json.dumps({"correct": not wrong, "attempted": len(ops), "failed": len(ops) - len(done),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
