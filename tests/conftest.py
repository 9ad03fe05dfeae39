import numpy as np
import pytest

from mczcut import cutter

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


class SideRuns:
    """The simulations branch tables make for ``plans``: pre-MCZ side runs
    (``densesim.run`` of a plan's gates before the cut, from |0...0>) and
    branch simulations (a run of a plan's gates after the cut, from a
    branch's state).  Gate tuples are matched by identity, so a full-register
    run of the same gates does not count."""

    def __init__(self):
        self.plans = []
        self.pre = []
        self.post = []

    def distinct_branches(self) -> int:
        """Distinct (side, diagonal or projective outcome) pairs of the plans:
        the branch simulations a build that makes each once makes."""
        keys = set()
        for plan in self.plans:
            projective = plan.op.variant in cutter.PROJECTIVE_VARIANTS
            for outcome, (_, diagonal) in enumerate(plan.op.signed_diagonal_terms()):
                side = (plan.source_qubits, plan.pre_gates, plan.post_gates)
                keys.add((side, outcome if projective else diagonal.tobytes()))
        return len(keys)


@pytest.fixture
def side_runs(monkeypatch) -> SideRuns:
    """Record the side runs and branch simulations of every plan that
    ``cutter.embed`` returns from now on, or that a test adds to ``plans``."""
    from mczcut import densesim

    runs = SideRuns()
    embed, run = cutter.embed, densesim.run

    def recording_embed(*args):
        terms = embed(*args)
        runs.plans.extend(plan for t in terms for plan in (t.side_a, t.side_b))
        return terms

    def recording_run(circuit, initial=None):
        if initial is None and any(circuit.gates is plan.pre_gates for plan in runs.plans):
            runs.pre.append(circuit)
        elif initial is not None and any(circuit.gates is plan.post_gates for plan in runs.plans):
            runs.post.append(circuit)
        return run(circuit, initial)

    monkeypatch.setattr(cutter, "embed", recording_embed)
    monkeypatch.setattr(densesim, "run", recording_run)
    return runs
