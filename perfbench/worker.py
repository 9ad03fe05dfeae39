"""The program process of one benchmark run.

Started by ``run.py`` in a fresh interpreter.  Imports ``mczcut``, runs one
discarded warm-up operation, then operations back to back through
``mczcut.cli.main(argv)`` (one client, one thread, closed loop) while the
next one still fits in the run length (at least one), and writes raw outputs, op times and the peak RSS of
this process to a JSON file.  With ``--trace 1`` every public function of
the package is wrapped (see ``tracer.py``) and the per-layer metrics and the
spans are written too.  Correctness is checked by ``run.py``, not here, so
that reference computations do not count in this process's memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import types
from pathlib import Path

import tracer as tracing
from workloads import WORKLOADS


def load_program(src: Path):
    sys.path.insert(0, str(src))
    import mczcut.cli

    program = types.SimpleNamespace(package=mczcut, cli=mczcut.cli, cutter=mczcut.cutter,
                                    densesim=mczcut.densesim, exact_values=[])
    return program


def record_exact_values(program) -> None:
    """Keep every value ``densesim.expval`` returns, at full precision."""
    expval = program.densesim.expval

    def recorded(*args, **kwargs):
        value = expval(*args, **kwargs)
        program.exact_values.append(value)
        return value

    program.densesim.expval = recorded


def call(program, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = program.cli.main(argv)
    return rc, out.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    spec = json.loads(Path(args.spec).read_text())

    program = load_program(Path(args.src))
    artefacts = workload.artefacts(program)
    rc, _ = call(program, workload.warmup_argv(spec, workdir))
    if rc != 0:
        raise SystemExit(f"warm-up operation exited with {rc}")
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, program.package)
    record_exact_values(program)

    # Start another operation only while one more of the last one's length
    # still fits in the run, so the run ends within its length.
    ops = []
    started = time.perf_counter()
    while not ops or time.perf_counter() - started + ops[-1]["seconds"] <= args.seconds:
        index = len(ops)
        argv = workload.op_argv(spec, index, workdir)
        if tracer is not None:
            tracer.start_op(index)
        t0 = time.perf_counter()
        try:
            rc, stdout = call(program, argv)
        except Exception as exc:  # a failed operation is counted, not fatal
            ops.append({"seconds": time.perf_counter() - t0, "error": repr(exc)})
            continue
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.op_seconds.append(seconds)
        op = {"seconds": seconds, "rc": rc, "stdout": stdout}
        op.update(workload.collect(spec, index, workdir, program))
        ops.append(op)

    result = {"ops": ops, "artefacts": artefacts,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["layers"] = {name: {"value": value, "unit": unit}
                            for name, (value, unit) in tracer.metrics().items()}
        Path(args.spans).write_text(json.dumps(
            {"workload": args.workload, "fields": ["id", "parent", "name", "start", "end"],
             "spans": tracer.spans,
             "metrics": result["layers"]}))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
