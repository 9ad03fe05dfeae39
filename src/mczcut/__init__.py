"""Multi-controlled-Z gate cutting.

Decomposes the channel of a cross-partition MCZ gate into a weighted sum of
partition-local channels, certifies the decomposition with diagonal channel
multipliers (cross-checked by a dense superoperator oracle at small orders),
and estimates observables of the cut circuit by Monte-Carlo sampling at the
theoretically allocated shot budgets.
"""

from .circuit import (Circuit, Gate, Observable, PartitionedCut, find_cut,
                      parse, serialize)
from .cutter import (Decomposition, DecompositionTerm, LocalOperation,
                     PreparedCut, channel_multiplier, decompose_ccz,
                     decompose_choi_block, decompose_mcz, embed,
                     exact_cut_expectation, final_state, prepare,
                     rewrite_projector, verify)
from .densesim import (StateVector, Superoperator, expval, project, run,
                       superop_of_local_operation, superop_of_unitary)
from .sampler import (EstimateRecord, ShotBudget, allocate, hoeffding_shots,
                      preestimation_budget, preestimation_mode,
                      sample_circuit_mode)

__all__ = [
    "Circuit", "Gate", "Observable", "PartitionedCut", "find_cut", "parse",
    "serialize",
    "Decomposition", "DecompositionTerm", "LocalOperation", "PreparedCut", "channel_multiplier",
    "decompose_ccz", "decompose_choi_block", "decompose_mcz", "embed", "exact_cut_expectation",
    "final_state", "prepare", "rewrite_projector", "verify",
    "StateVector", "Superoperator", "expval", "project", "run",
    "superop_of_local_operation", "superop_of_unitary",
    "EstimateRecord", "ShotBudget", "allocate", "hoeffding_shots",
    "preestimation_budget", "preestimation_mode", "sample_circuit_mode",
]

__version__ = "0.1.0"
