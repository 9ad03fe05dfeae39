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
