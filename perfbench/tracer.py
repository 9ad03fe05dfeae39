"""Per-layer tracing from outside the program.

``install`` replaces every public module-level function of the ``mczcut``
package with a wrapper, at every module binding that holds it: the defining
module and every module that imported the name (``sampler.side_branches``,
``cli.parse``, ``experiments.find_cut``, ...).  Calls resolved through a
module global or attribute therefore pass through the wrapper; the source
tree stays untouched.

Each wrapped call becomes a span (id, parent id, name, start, end); the
spans of the first traced operation are kept and written out.  A span's
self time is its duration minus the time of the spans nested directly
inside it, so the self times of one operation add up to the time of its
root span.  ``densesim.apply_gate`` is only counted, not timed: it runs
~10^5 times per operation and a span around it would cost more than it
measures.  Counters are kept at the same boundaries.
"""

from __future__ import annotations

import functools
import statistics
import time
import types
from collections import Counter, defaultdict

LAYERS = ("circuit", "zhcalc", "cutter", "densesim", "sampler", "experiments", "cli")

# densesim functions that build a dense superoperator matrix
SUPEROP_CONSTRUCTORS = ("densesim.superop_of_unitary", "densesim.superop_of_kraus_like",
                        "densesim.pair_superop")
SUPEROP_FUNCTIONS = SUPEROP_CONSTRUCTORS + ("densesim.superop_of_local_operation",)
ESTIMATORS = ("sampler.sample_circuit_mode", "sampler.preestimation_mode")
# Inside the counted-only gate kernel: one call per rotation gate, neither
# timed nor counted, so that tracing costs little next to what it measures.
NOT_WRAPPED = ("densesim.rotation_matrix",)


class Tracer:
    """Spans and counters of the traced operations, held in memory."""

    def __init__(self):
        self.op = -1
        self._started = 0
        self.spans: list[tuple] = []  # the first operation's only, to bound memory
        self._stack: list[list] = []
        self._depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.busy_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.distinct_plans: list[set] = []
        self.op_seconds: list[float] = []

    def start_op(self, op: int):
        self.op = op
        self.distinct_plans.append(set())

    def wrap(self, key: str, fn):
        hook = _HOOKS.get(key)
        if key == "densesim.apply_gate":
            calls, counters = self.calls, self.counters

            @functools.wraps(fn)
            def counted(state, gate):
                result = fn(state, gate)
                calls[key] += 1
                counters["amplitudes"] += result.amplitudes.size
                return result
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [self._started, 0.0]
            self._started += 1
            stack.append(frame)
            self._depth[key] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._depth[key] -= 1
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.calls[key] += 1
                self.self_s[key] += duration - frame[1]
                if self._depth[key] == 0:
                    self.busy_s[key] += duration
                if self.op == 0:
                    self.spans.append((frame[0], parent[0] if parent else None, key, start, end))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    # -- per-layer metrics ----------------------------------------------------
    def metrics(self) -> dict:
        """Every per-layer metric, as a value per traced operation."""
        ops = max(len(self.op_seconds), 1)

        def total(table, prefix=None, keys=None):
            return sum(v for k, v in table.items()
                       if (keys is not None and k in keys)
                       or (prefix is not None and k.startswith(prefix + ".")))

        out = {"cli.traced_op_s": (statistics.median(self.op_seconds), "s")}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (total(self.self_s, prefix=layer) / ops, "s")
        per_op = {
            "zhcalc.calls": (total(self.calls, prefix="zhcalc"), "count"),
            "cutter.decompose_mcz.self_s": (self.self_s["cutter.decompose_mcz"], "s"),
            "cutter.embed.self_s": (self.self_s["cutter.embed"], "s"),
            "cutter.verify.calls": (self.calls["cutter.verify"], "count"),
            "cutter.verify.busy_s": (self.busy_s["cutter.verify"], "s"),
            "cutter.verify.self_s": (self.self_s["cutter.verify"], "s"),
            "densesim.superop.calls": (total(self.calls, keys=SUPEROP_CONSTRUCTORS), "count"),
            "densesim.superop.bytes": (self.counters["superop_bytes"], "bytes_computed"),
            "densesim.superop.self_s": (total(self.self_s, keys=SUPEROP_FUNCTIONS), "s"),
            "cutter.side_branches.calls": (self.calls["cutter.side_branches"], "count"),
            "cutter.side_branches.distinct": (sum(len(s) for s in self.distinct_plans), "count"),
            "cutter.side_branches.branches": (self.counters["branches"], "count"),
            "cutter.side_branches.busy_s": (self.busy_s["cutter.side_branches"], "s"),
            "cutter.side_branches.self_s": (self.self_s["cutter.side_branches"], "s"),
            "densesim.run.calls": (self.calls["densesim.run"], "count"),
            "densesim.run.self_s": (self.self_s["densesim.run"], "s"),
            "densesim.apply_gate.calls": (self.calls["densesim.apply_gate"], "count"),
            "densesim.amplitudes_touched": (self.counters["amplitudes"], "count"),
            "sampler.estimate.calls": (total(self.calls, keys=ESTIMATORS), "count"),
            "sampler.estimate.busy_s": (total(self.busy_s, keys=ESTIMATORS), "s"),
            "sampler.shots": (self.counters["shots"], "count"),
            "sampler.sample_uncut.self_s": (self.self_s["sampler.sample_uncut"], "s"),
            "experiments.gen_random_circuit.calls": (self.calls["experiments.gen_random_circuit"], "count"),
            "experiments.gen_random_circuit.self_s": (self.self_s["experiments.gen_random_circuit"], "s"),
        }
        out.update({name: (value / ops, unit) for name, (value, unit) in per_op.items()})
        return out


def _side_branches(tracer, args, kwargs, result):
    tracer.distinct_plans[-1].add(args[0])
    tracer.counters["branches"] += len(result)


def _superop(tracer, args, kwargs, result):
    tracer.counters["superop_bytes"] += result.matrix.nbytes


def _estimate(tracer, args, kwargs, result):
    tracer.counters["shots"] += result.shots


def _sample_uncut(tracer, args, kwargs, result):
    tracer.counters["shots"] += args[2]


_HOOKS = {"cutter.side_branches": _side_branches,
          "sampler.sample_circuit_mode": _estimate,
          "sampler.preestimation_mode": _estimate,
          "sampler.sample_uncut": _sample_uncut}
_HOOKS.update({key: _superop for key in SUPEROP_CONSTRUCTORS})


def install(tracer: Tracer, package) -> None:
    """Wrap every public function of the package's layer modules in place."""
    modules = [package] + [getattr(package, name) for name in LAYERS]
    wrappers: dict[int, object] = {}
    for module in modules:
        for name, value in list(vars(module).items()):
            if (name.startswith("_") or not isinstance(value, types.FunctionType)
                    or not value.__module__.startswith(package.__name__ + ".")):
                continue
            if id(value) not in wrappers:
                key = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                wrappers[id(value)] = value if key in NOT_WRAPPED else tracer.wrap(key, value)
            setattr(module, name, wrappers[id(value)])
