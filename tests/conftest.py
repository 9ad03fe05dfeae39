import os
from collections import Counter

import numpy as np
import pytest

from mczcut import cutter
from mczcut.circuit import Circuit, Gate, h

SEED = 20240517


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(SEED)


@pytest.fixture
def corrupted_decompositions(monkeypatch):
    """Make ``cutter.decompose_mcz`` flip the sign of every decomposition's first coefficient."""
    decompose = cutter.decompose_mcz

    def corrupted(k, m):
        d = decompose(k, m)
        t = d.terms[0]
        d.terms[0] = cutter.DecompositionTerm(-t.coefficient, t.op_a, t.op_b)
        return d

    monkeypatch.setattr(cutter, "decompose_mcz", corrupted)


@pytest.fixture
def prepare_calls(monkeypatch) -> Counter:
    """Count the calls of ``cutter.prepare`` and ``cutter.verify`` from now on."""
    calls = Counter()
    for name in ("prepare", "verify"):
        def counted(*args, fn=getattr(cutter, name), name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(cutter, name, counted)
    return calls


def oversized_cut_circuit() -> Circuit:
    """20 qubits with a (9,1) cut: the A side has 19 qubits, and its 1027
    distinct branches would hold 4 GiB."""
    n = 20
    gates = [h(q) for q in range(n)] + [Gate("RX", (q,), 0.3 + 0.1 * q) for q in range(n)]
    gates += [Gate("MCZ", tuple(range(n - 10, n)))] + [Gate("RY", (q,), 0.7 + 0.05 * q) for q in range(n)]
    return Circuit(n, tuple(gates), ("A",) * (n - 1) + ("B",))


# Opt-in long arms of seeded tests: set MCZCUT_LONG_TESTS=1.
LONG_RUN = os.environ.get("MCZCUT_LONG_TESTS") == "1"
LONG_TESTS = pytest.mark.skipif(not LONG_RUN, reason="opt-in long arm: set MCZCUT_LONG_TESTS=1")


def term_plans(terms) -> list[tuple]:
    """The (side, operation) pairs of embedded terms, A then B per term."""
    return [plan for t in terms for plan in ((t.side_a, t.op_a), (t.side_b, t.op_b))]


class SideRuns:
    """The simulations branch tables make for ``plans``, the (side,
    operation) pairs of embedded terms: pre-MCZ side runs (``densesim.run``
    of a side's gates before the cut, from |0...0>) and branch simulations
    (a run of a side's gates after the cut, from a branch's state).  Gate
    tuples are matched by identity, so a full-register run of the same gates
    does not count."""

    def __init__(self):
        self.plans = []
        self.pre = []
        self.post = []

    def distinct_branches(self) -> int:
        """Distinct (side, branch key) pairs of the plans: the branch
        simulations a build that makes each once makes."""
        return len({(side, key) for side, op in self.plans for _, key, _ in cutter._branch_terms(op)})


@pytest.fixture
def side_runs(monkeypatch) -> SideRuns:
    """Record the side runs and branch simulations of every term that
    ``cutter.embed`` returns from now on, or whose plans a test adds to
    ``plans``."""
    from mczcut import densesim

    runs = SideRuns()
    embed, run = cutter.embed, densesim.run

    def recording_embed(*args):
        terms = embed(*args)
        runs.plans.extend(term_plans(terms))
        return terms

    def recording_run(circuit, initial=None):
        if initial is None and any(circuit.gates is side.pre_gates for side, _ in runs.plans):
            runs.pre.append(circuit)
        elif initial is not None and any(circuit.gates is side.post_gates for side, _ in runs.plans):
            runs.post.append(circuit)
        return run(circuit, initial)

    monkeypatch.setattr(cutter, "embed", recording_embed)
    monkeypatch.setattr(densesim, "run", recording_run)
    return runs
