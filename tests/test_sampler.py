import json
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mczcut import cutter, densesim, experiments, sampler
from mczcut.circuit import Circuit, Gate, Observable, cz, find_cut, h, mcz, rx
from mczcut.cutter import (CutSide, DecompositionTerm, EmbeddedTerm,
                           LocalOperation, decompose_mcz, embed,
                           exact_cut_expectation, verify)
from mczcut.sampler import (ShotBudget, allocate, hoeffding_shots,
                            preestimation_budget, preestimation_mode,
                            sample_circuit_mode, sample_uncut)
from conftest import term_plans


class TestBudgets:
    def test_hoeffding_trivial_kappa(self):
        # 2 * 1 / 0.01 * ln(40) = 737.77... -> 738
        assert hoeffding_shots(0.1, 0.05, 1.0) == 738

    def test_hoeffding_kappa_six(self):
        assert hoeffding_shots(0.1, 0.05, 6.0) == 26560

    def test_hoeffding_domain(self):
        with pytest.raises(ValueError):
            hoeffding_shots(1.5, 0.05, 2.0)
        with pytest.raises(ValueError):
            hoeffding_shots(0.1, 0.05, 0.5)

    def test_preestimation_paper_budgets(self):
        assert preestimation_budget(0.01, 6.0) == 1_440_000
        assert preestimation_budget(0.001, 6.0) == 144_000_000

    def test_preestimation_degenerate(self):
        assert preestimation_budget(2.0, 1.0) == 1

    @pytest.mark.parametrize("epsilon,delta", [(0.0, None), (-0.1, None), (math.nan, None),
                                               (math.inf, None), (1.5, 0.05), (0.1, 1.5), (0.1, 0.0)])
    def test_accuracy_targets_rejected(self, epsilon, delta):
        with pytest.raises(ValueError, match="epsilon"):
            sampler.check_accuracy(epsilon, delta)

    def test_preestimation_rejects_zero_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            preestimation_budget(0.0, 6.0)

    def test_shot_ceiling_is_what_multinomial_draws(self):
        assert sampler.MAX_SHOTS % 2 == 0 and sampler.MAX_SHOTS + 1 == np.iinfo(np.int64).max
        largest = sampler._shot_count(2.0**63 - 1024, 1.0)  # the largest float below the ceiling
        assert largest == 2**63 - 1024
        assert np.random.default_rng(0).multinomial(largest, [0.5, 0.5]).sum() == largest
        with pytest.raises(ValueError, match="budget of"):
            sampler._shot_count(2.0**63, 1.0)

    def test_budget_constructors(self):
        b = ShotBudget.for_circuit_sampling(0.1, 0.05, 6.0)
        assert b.total == 26560 and b.mode == "circuit_sampling"


class TestAllocate:
    def test_uniform_six_terms(self):
        ops = [LocalOperation.identity(1)] * 2
        terms = [DecompositionTerm(0.5 * (-1) ** i, *ops) for i in range(6)]
        d = cutter.Decomposition(terms, 1, 1)
        assert allocate(d.terms, 600) == [50] * 6

    def test_share_formula(self):
        # |a| = 0.5 at kappa = 6 and N = 1.44e6: N_i = 0.5 * N / 12 = 60000
        ops = [LocalOperation.identity(1)] * 2
        terms = [DecompositionTerm(0.5, *ops)] + [DecompositionTerm(0.5, LocalOperation.zlayer(1, 1), ops[1])]
        terms += [DecompositionTerm(5.0, LocalOperation.zmix(1), ops[1])]
        d = cutter.Decomposition(terms, 1, 1)
        assert d.kappa == 6.0
        assert allocate(d.terms, 1_440_000)[0] == 60_000

    def test_conservation_after_rounding(self):
        d = decompose_mcz(1, 2)
        shots = allocate(d.terms, 10_000)
        assert 2 * sum(shots) == 10_000
        assert min(shots) >= 1

    def test_budget_too_small(self):
        d = decompose_mcz(1, 2)
        with pytest.raises(ValueError, match="cannot cover"):
            allocate(d.terms, 2 * len(d.terms) - 2)

    def test_odd_budget_rejected(self):
        d = decompose_mcz(1, 1)
        with pytest.raises(ValueError, match="even"):
            allocate(d.terms, 601)

    def test_term_floor_follows_allocate(self):
        # every split of orders 2-10, at the budgets sample (the split's kappa)
        # and experiment (BUDGET_KAPPA) give over a grid of epsilon; some of
        # them reach two shots per term and still cannot be split
        outcomes = set()
        unsplit_above_two_per_term = 0
        for order in range(2, 11):
            for k in range(1, order):
                d = decompose_mcz(k, order - k)
                for kappa in (d.kappa, experiments.BUDGET_KAPPA):
                    for epsilon in np.linspace(0.05, 5, 100).tolist():
                        total = preestimation_budget(epsilon, kappa)
                        total += total % 2
                        try:
                            allocate(d.terms, total)
                            splits = True
                        except ValueError:
                            splits = False
                        try:
                            sampler.check_term_floor(total, d.terms, epsilon)
                            passes = True
                        except ValueError:
                            passes = False
                        assert passes == splits, (k, order - k, kappa, epsilon, total)
                        outcomes.add(passes)
                        unsplit_above_two_per_term += not splits and total >= 2 * len(d.terms)
        assert outcomes == {True, False} and unsplit_above_two_per_term > 0

    @given(st.integers(100, 4000))
    @settings(max_examples=25, deadline=None)
    def test_conservation_property(self, half):
        d = decompose_mcz(1, 1)
        total = 2 * half
        assert 2 * sum(allocate(d.terms, total)) == total


def bell_setup():
    circuit = Circuit(2, (h(0), h(1), cz(0, 1), h(1)), ("A", "B"))
    d = decompose_mcz(1, 1)
    verify(d)
    terms = embed(d, find_cut(circuit))
    obs = Observable.z_string(2)
    va, vb = obs.factor((0,), (1,))
    return circuit, d, terms, va.values, vb.values


def ccz_setup(seed=3):
    rng = np.random.default_rng(seed)
    gates = [rx(q, float(rng.uniform(0, 2 * math.pi))) for q in range(3)]
    gates += [mcz(0, 1, 2)]
    gates += [rx(q, float(rng.uniform(0, 2 * math.pi))) for q in range(3)]
    circuit = Circuit(3, tuple(gates), ("A", "B", "B"))
    d = decompose_mcz(1, 2)
    verify(d)
    terms = embed(d, find_cut(circuit))
    obs = Observable.z_string(3)
    va, vb = obs.factor((0,), (1, 2))
    return circuit, d, terms, va.values, vb.values, obs


class TestCircuitSamplingMode:
    def test_bell_within_epsilon(self):
        _, d, terms, va, vb = bell_setup()
        budget = ShotBudget.for_circuit_sampling(0.05, 0.05, d.kappa)
        record = sample_circuit_mode(terms, budget, 42, va, vb, decomposition=d)
        assert abs(record.estimate - 1.0) <= 0.05

    def test_single_shot_range_bound(self):
        _, d, terms, va, vb = bell_setup()
        budget = ShotBudget(5000, 0.1, d.kappa, mode="circuit_sampling")
        record = sample_circuit_mode(terms, budget, 9, va, vb, decomposition=d)
        assert record.max_abs_shot <= d.kappa + 1e-12

    def test_determinism_byte_identical(self):
        _, d, terms, va, vb = bell_setup()
        budget = ShotBudget(4000, 0.1, d.kappa, mode="circuit_sampling")
        a = sample_circuit_mode(terms, budget, 7, va, vb, decomposition=d).to_json()
        b = sample_circuit_mode(terms, budget, 7, va, vb, decomposition=d).to_json()
        assert a.encode() == b.encode()

    def test_unverified_rejected_without_force(self):
        circuit = Circuit(2, (h(0), h(1), cz(0, 1), h(1)), ("A", "B"))
        d = decompose_mcz(1, 1)  # never verified
        terms = embed(d, find_cut(circuit))
        obs = Observable.z_string(2)
        va, vb = obs.factor((0,), (1,))
        budget = ShotBudget(100, 0.5, d.kappa, mode="circuit_sampling")
        with pytest.raises(ValueError, match="verified"):
            sample_circuit_mode(terms, budget, 0, va.values, vb.values, decomposition=d)

    def test_identity_term_reduces_to_plain_sampling(self):
        # kappa = 1 degenerate case: independent subcircuits, no cut gate
        side_a = CutSide(1, (h(0),), (0,), (), (0,))
        side_b = CutSide(1, (rx(0, 0.8),), (0,), (), (1,))
        identity = LocalOperation.identity(1)
        terms = [EmbeddedTerm(1.0, identity, identity, side_a, side_b)]
        obs1 = Observable.z_string(1)
        exact = exact_cut_expectation(terms, obs1.values, obs1.values)
        budget = ShotBudget(200_000, 0.01, 1.0, mode="circuit_sampling")
        record = sample_circuit_mode(terms, budget, 11, obs1.values, obs1.values)
        # 3 sigma of a product of two +-1 means at 2e5 shots
        assert abs(record.estimate - exact) < 3.0 / math.sqrt(200_000) + 3 * record.std_dev

    def test_unbiasedness_over_repeated_runs(self):
        circuit, d, terms, va, vb, obs = ccz_setup()
        exact = densesim.expval(densesim.run(circuit), obs)
        budget = ShotBudget(4000, 0.2, d.kappa, mode="circuit_sampling")
        estimates = [sample_circuit_mode(terms, budget, seed, va, vb, decomposition=d).estimate
                     for seed in range(200)]
        estimates = np.array(estimates)
        pooled_se = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean() - exact) < 4 * pooled_se


class TestPreestimationMode:
    def test_bell_estimate(self):
        _, d, terms, va, vb = bell_setup()
        total = preestimation_budget(0.02, d.kappa)
        total += total % 2
        budget = ShotBudget(total, 0.02, d.kappa)
        record = preestimation_mode(terms, budget, 5, va, vb, decomposition=d)
        assert abs(record.estimate - 1.0) < 0.02
        assert abs(record.estimate) <= d.kappa

    def test_variance_bound_below_epsilon_squared(self):
        circuit, d, terms, va, vb, obs = ccz_setup()
        eps = 0.02
        total = preestimation_budget(eps, d.kappa)
        total += total % 2
        budget = ShotBudget(total, eps, d.kappa)
        record = preestimation_mode(terms, budget, 1, va, vb, decomposition=d)
        assert record.variance_bound <= eps**2 * 1.02
        assert record.std_dev < eps

    def test_single_term_is_product_of_expectations(self):
        side_a = CutSide(1, (h(0),), (0,), (), (0,))
        side_b = CutSide(1, (), (0,), (), (1,))
        identity = LocalOperation.identity(1)
        terms = [EmbeddedTerm(1.0, identity, identity, side_a, side_b)]
        obs1 = Observable.z_string(1)
        budget = ShotBudget(100_000, 0.01, 1.0)
        record = preestimation_mode(terms, budget, 3, obs1.values, obs1.values)
        [entry] = record.per_term
        assert entry["shots"] == 50_000
        assert record.estimate == pytest.approx(entry["mean_a"] * entry["mean_b"])
        assert entry["mean_b"] == 1.0  # |0> side is deterministic

    def test_determinism_byte_identical(self):
        _, d, terms, va, vb = bell_setup()
        budget = ShotBudget(1200, 0.1, d.kappa)
        a = preestimation_mode(terms, budget, 17, va, vb, decomposition=d).to_json()
        b = preestimation_mode(terms, budget, 17, va, vb, decomposition=d).to_json()
        assert a.encode() == b.encode()


# One execution branch of an operation on a side: selection probability
# (mixture weight or Born probability), sign xi, and final outcome distribution.
Branch = namedtuple("Branch", "prob sign distribution")


def normalised(branches):
    """The branches with each distribution divided by its sum."""
    return [Branch(b.prob, b.sign, b.distribution / b.distribution.sum()) for b in branches]


def reference_table(branches, values):
    """The side table of branches whose distributions are normalised already."""
    probs = np.array([b.prob for b in branches])
    return cutter.SideTable(probs / probs.sum(), [b.distribution for b in branches],
                            [b.sign for b in branches], values)


def reference_side_branches(side, op):
    """Per-plan branch enumeration of an operation on a side: its own pre-MCZ
    run and one simulation per term."""
    pre_state = densesim.run(Circuit(side.num_qubits, side.pre_gates))
    post = Circuit(side.num_qubits, side.post_gates)
    branches = []
    for outcome, (weight, diagonal) in enumerate(op.signed_diagonal_terms()):
        if op.variant in cutter.PROJECTIVE_VARIANTS:
            try:
                state, prob = densesim.project(pre_state, side.op_qubits, outcome)
            except ValueError:
                continue
            sign = weight
        else:
            state = densesim.apply_diagonal(pre_state, side.op_qubits, diagonal)
            prob, sign = weight, 1.0
        branches.append(Branch(prob, sign, densesim.run(post, state).probabilities()))
    return branches


def random_cut_circuit(k, m, seed, interleaved):
    """Rotations and in-side CNOTs around an MCZ over k A and m B qubits, with
    one more A qubit outside the gate; the sides interleave when asked."""
    rng = np.random.default_rng(seed)
    n = k + m + 1
    labels = ["A"] * (k + 1) + ["B"] * m
    if interleaved:
        rng.shuffle(labels)
    sides = {label: [q for q in range(n) if labels[q] == label] for label in "AB"}

    def layer():
        gates = [Gate(str(rng.choice(["RX", "RY"])), (q,), float(rng.uniform(0.3, 2.8))) for q in range(n)]
        gates += [Gate("CNOT", tuple(qs[:2])) for qs in sides.values() if len(qs) > 1]
        return gates

    mcz_gate = Gate("MCZ", tuple(sides["A"][1:] + sides["B"]))
    return Circuit(n, tuple(layer() + [mcz_gate] + layer()), tuple(labels))


SPLITS = [(k, m) for k in (1, 2, 3) for m in (1, 2, 3)]


def cut_tables(k, m, interleaved):
    circuit = random_cut_circuit(k, m, seed=10 * k + m, interleaved=interleaved)
    terms = embed(decompose_mcz(k, m), find_cut(circuit))
    va, vb = Observable.z_string(circuit.num_qubits).factor(circuit.qubits_in("A"), circuit.qubits_in("B"))
    return terms, va.values, vb.values, cutter.term_tables(terms, va.values, vb.values)


class TestTermTables:
    def test_estimate_builds_each_distinct_plan_once(self, side_runs):
        _, d, terms, va, vb, _ = ccz_setup()
        side_runs.plans.extend(term_plans(terms))
        preestimation_mode(terms, ShotBudget(6000, 0.1, d.kappa), 0, va, vb, decomposition=d)
        # one pre-MCZ run per side, not per distinct plan, and one simulation
        # per distinct branch
        assert len(side_runs.pre) == 2 < len(set(side_runs.plans))
        assert len(side_runs.post) == side_runs.distinct_branches()
        # prebuilt tables: an estimate simulates nothing
        tables = cutter.term_tables(terms, va, vb)
        del side_runs.pre[:], side_runs.post[:]
        preestimation_mode(terms, ShotBudget(6000, 0.1, d.kappa), 1, va, vb, decomposition=d, tables=tables)
        assert side_runs.pre == side_runs.post == []

    @pytest.mark.parametrize("interleaved", [False, True], ids=["blocked", "interleaved"])
    @pytest.mark.parametrize("k,m", SPLITS)
    def test_shared_tables_match_per_plan_branches(self, k, m, interleaved):
        terms, va, vb, tables = cut_tables(k, m, interleaved)
        for term, pair in zip(terms, tables):
            for (side, op), table, values in zip(term_plans([term]), pair, (va, vb)):
                expected = reference_table(normalised(reference_side_branches(side, op)), values)
                assert table.probs.tobytes() == expected.probs.tobytes()
                assert [a.tobytes() for a in table.dists] == [a.tobytes() for a in expected.dists]
                assert table.signs == expected.signs and table.values is values

    def test_sides_without_gates_keep_their_own_values(self):
        # both sides of a bare CZ have the same (empty) gates, so their plans
        # share branches; each table still scores its own side's values
        terms = embed(decompose_mcz(1, 1), find_cut(Circuit(2, (cz(0, 1),), ("A", "B"))))
        va, vb = np.array([1.0, -1.0]), np.array([-1.0, 1.0])
        for term, (table_a, table_b) in zip(terms, cutter.term_tables(terms, va, vb)):
            for (side, op), table, values in zip(term_plans([term]), (table_a, table_b), (va, vb)):
                expected = reference_table(normalised(reference_side_branches(side, op)), values)
                assert table.signs == expected.signs and table.values is values

    @pytest.mark.parametrize("side,values", [("A", [2.0, 3.0]), ("A", [0.0, 1.0]), ("B", [1.0, 0.5]),
                                             ("B", [1.0, np.nan]), ("A", [1j, -1.0])])
    def test_values_other_than_plus_minus_one_refused(self, side, values):
        # the samplers' sums and maxima rest on every value being +-1
        terms = embed(decompose_mcz(1, 1), find_cut(Circuit(2, (cz(0, 1),), ("A", "B"))))
        parity = np.array([1.0, -1.0])
        va, vb = (np.array(values), parity) if side == "A" else (parity, np.array(values))
        with pytest.raises(ValueError, match=f"side {side} values must all be"):
            cutter.term_tables(terms, va, vb)

    @pytest.mark.parametrize("interleaved", [False, True], ids=["blocked", "interleaved"])
    @pytest.mark.parametrize("k,m", SPLITS)
    def test_table_bytes_estimate_matches_tables(self, k, m, interleaved):
        # every outcome has non-zero probability here, so no branch is skipped
        terms, _, _, tables = cut_tables(k, m, interleaved)
        held = {id(d): d.nbytes for pair in tables for table in pair for d in table.dists}
        assert cutter.branch_table_bytes(terms) == sum(held.values())

    @pytest.mark.parametrize("estimator", [sample_circuit_mode, preestimation_mode])
    def test_prebuilt_tables_byte_identical(self, estimator):
        _, d, terms, va, vb, _ = ccz_setup()
        budget = ShotBudget(6000, 0.1, d.kappa)
        tables = cutter.term_tables(terms, va, vb)
        for seed in (0, 13):
            built_here = estimator(terms, budget, seed, va, vb, decomposition=d).to_json()
            prebuilt = estimator(terms, budget, seed, va, vb, decomposition=d, tables=tables).to_json()
            assert prebuilt.encode() == built_here.encode()

    @pytest.mark.parametrize("estimator", [sample_circuit_mode, preestimation_mode])
    def test_prebuilt_tables_keep_certification_gate(self, estimator):
        _, _, terms, va, vb = bell_setup()
        d = decompose_mcz(1, 1)  # never verified
        tables = cutter.term_tables(terms, va, vb)
        with pytest.raises(ValueError, match="verified"):
            estimator(terms, ShotBudget(100, 0.5, d.kappa), 0, va, vb, decomposition=d, tables=tables)


ENTROPIES = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**127]
# key tails after the head: (i, side) in pre-estimation, (i,) in circuit sampling
KEY_TAILS = {2: lambda terms: [(i, side) for i in range(terms) for side in (0, 1)],
             1: lambda terms: [(i,) for i in range(terms)]}


def numpy_stream(seed, key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


class TestTermStreams:
    """The one-pass streams are numpy's: Generator(PCG64(SeedSequence(seed, key)))."""

    @pytest.mark.parametrize("head", list(KEY_TAILS))
    @pytest.mark.parametrize("seed", ENTROPIES)
    def test_seed_words(self, seed, head):
        tails = KEY_TAILS[head](40)
        expected = [tuple(int(w) for w in np.random.SeedSequence(seed, spawn_key=(head, *t))
                          .generate_state(4, np.uint64)) for t in tails]
        for terms in range(1, 41):
            some = KEY_TAILS[head](terms)
            assert sampler._seed_words(seed, head, some) == expected[:len(some)]

    @pytest.mark.parametrize("head", list(KEY_TAILS))
    @pytest.mark.parametrize("seed", ENTROPIES)
    def test_bit_generator_state(self, seed, head):
        tails = KEY_TAILS[head](40)
        for tail, rng in zip(tails, sampler._term_streams(seed, head, tails)):
            assert rng.bit_generator.state == numpy_stream(seed, (head, *tail)).bit_generator.state

    @pytest.mark.parametrize("seed,error", [(-1, ValueError), (1.5, TypeError)])
    def test_seeds_numpy_refuses_are_refused(self, seed, error):
        with pytest.raises(error):
            numpy_stream(seed, (2, 0, 0))
        with pytest.raises(error):
            next(sampler._term_streams(seed, 2, [(0, 0)]))

    def test_numpy_integer_seed(self):
        tails = KEY_TAILS[2](3)
        assert (sampler._seed_words(np.int64(2**62 + 5), 2, tails)
                == sampler._seed_words(2**62 + 5, 2, tails))

    @pytest.mark.parametrize("head", list(KEY_TAILS))
    @pytest.mark.parametrize("seed", ENTROPIES)
    def test_first_multinomial_draws(self, seed, head):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        for terms in (1, 17, 40):
            tails = KEY_TAILS[head](terms)
            for tail, rng in zip(tails, sampler._term_streams(seed, head, tails)):
                expected = numpy_stream(seed, (head, *tail))
                # the same parameters in every stream reuse the generator's binomial set-up
                for shots in (10_000, 10_000, 37):
                    assert np.array_equal(rng.multinomial(shots, probs), expected.multinomial(shots, probs))


def twin_generators(seed, buffered):
    """Two PCG64 Generators in one state; ``buffered`` leaves a half-word in PCG64's buffer."""
    twins = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        for rng in twins:
            rng.integers(3)
    assert twins[0].bit_generator.state["has_uint32"] == buffered
    return twins


def read(rng, draw):
    """``draw(words)`` on a word reader over ``rng``, finished afterwards."""
    words = sampler._PCG64Words(rng)
    try:
        return draw(words)
    finally:
        words.finish()


# 0-5 are the ranges the circuit generator draws; the rest reject up to half their draws
READER_RANGES = [0, 1, 2, 3, 4, 5, 6, 2**31 + 1, 3 * 2**30, 2**32 - 2]


@pytest.mark.parametrize("buffered", [0, 1])
class TestPCG64Words:
    """Each reader draw is the numpy call it replaces, value for value, and
    ``finish`` leaves the state that call leaves, word for word."""

    def test_u32(self, buffered):
        ours, theirs = twin_generators(11, buffered)
        assert (read(ours, lambda w: [w.u32() for _ in range(601)])
                == [int(theirs.integers(2**32, dtype=np.uint32)) for _ in range(601)])
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("r", READER_RANGES)
    def test_bounded_matches_integers(self, r, buffered):
        ours, theirs = twin_generators(r, buffered)
        assert read(ours, lambda w: [w.bounded(r) for _ in range(301)]) == [int(theirs.integers(r + 1)) for _ in range(301)]
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("r", READER_RANGES + [2**32 - 1])
    def test_interval_matches_masked_draws(self, r, buffered):
        # RandomState.randint draws by masked rejection on the same bit generator
        ours, theirs = twin_generators(r, buffered)
        masked = np.random.RandomState(theirs.bit_generator)
        assert (read(ours, lambda w: [w.interval(r) for _ in range(301)])
                == [int(masked.randint(r + 1, dtype=np.int64)) for _ in range(301)])
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_double_matches_uniform(self, buffered):
        ours, theirs = twin_generators(5, buffered)
        values = read(ours, lambda w: [(w.double(), 2 * math.pi * w.double()) for _ in range(300)])
        expected = [(theirs.random(), theirs.uniform(0, 2 * math.pi)) for _ in range(300)]
        assert [(a.hex(), b.hex()) for a, b in values] == [(float(a).hex(), float(b).hex()) for a, b in expected]
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("width", [2, 3, 4, 5, 6])
    def test_pair_matches_choice(self, width, buffered):
        def pairs(words):
            drawn = []
            for _ in range(200):
                first, second = words.bounded(width - 2), words.bounded(width - 1)
                if second == first:
                    second = width - 1
                drawn.append((first, second) if words.bounded(1) else (second, first))
            return drawn

        ours, theirs = twin_generators(width, buffered)
        assert read(ours, pairs) == [tuple(theirs.choice(width, 2, replace=False).tolist()) for _ in range(200)]
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_fisher_yates_matches_shuffle(self, buffered):
        def shuffled(words):
            lists = []
            for length in range(1, 41):
                items = list(range(length))
                for i in range(length - 1, 0, -1):
                    j = words.interval(i)
                    items[i], items[j] = items[j], items[i]
                lists.append(items)
            return lists

        ours, theirs = twin_generators(17, buffered)
        expected = []
        for length in range(1, 41):
            expected.append(list(range(length)))
            theirs.shuffle(expected[-1])
        assert read(ours, shuffled) == expected
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_blocks_across_calls(self, buffered):
        # several blocks and a mix of draws, read by two readers in turn
        ours, theirs = twin_generators(23, buffered)
        for _ in range(2):
            assert (read(ours, lambda w: [(w.bounded(4), w.double(), w.interval(9)) for _ in range(700)])
                    == [(int(theirs.integers(5)), theirs.random(), int(np.random.RandomState(theirs.bit_generator).randint(10)))
                        for _ in range(700)])
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_no_draw_leaves_the_state(self, buffered):
        ours, theirs = twin_generators(29, buffered)
        assert read(ours, lambda w: (w.bounded(0), w.interval(0))) == (0, 0)
        assert ours.bit_generator.state == theirs.bit_generator.state


def reference_side_sum(branches, values, shots, rng):
    """Side sampler normalising every branch per call."""
    probs = np.array([b.prob for b in branches])
    branch_counts = rng.multinomial(shots, probs / probs.sum())
    total = total_sq = 0.0
    for branch, count in zip(branches, branch_counts):
        if count == 0:
            continue
        outcome_counts = rng.multinomial(count, branch.distribution / branch.distribution.sum())
        vals = branch.sign * values
        total += float(outcome_counts @ vals)
        total_sq += float(outcome_counts @ vals**2)
    return total, total_sq


def reference_joint_products(side_a, side_b, shots, rng):
    """Paired sampler normalising every branch pair per call."""
    (branches_a, values_a), (branches_b, values_b) = side_a, side_b
    probs_a = np.array([b.prob for b in branches_a])
    probs_b = np.array([b.prob for b in branches_b])
    joint = np.outer(probs_a / probs_a.sum(), probs_b / probs_b.sum()).reshape(-1)
    pair_counts = rng.multinomial(shots, joint).reshape(len(probs_a), len(probs_b))
    total = total_sq = vmax = 0.0
    for ia, branch_a in enumerate(branches_a):
        for ib, branch_b in enumerate(branches_b):
            count = int(pair_counts[ia, ib])
            if count == 0:
                continue
            dist = np.outer(branch_a.distribution / branch_a.distribution.sum(),
                            branch_b.distribution / branch_b.distribution.sum()).reshape(-1)
            outcome_counts = rng.multinomial(count, dist)
            vals = np.outer(branch_a.sign * values_a, branch_b.sign * values_b).reshape(-1)
            total += float(outcome_counts @ vals)
            total_sq += float(outcome_counts @ vals**2)
            vmax = max(vmax, float(np.max(np.abs(vals[outcome_counts > 0]))))
    return total, total_sq, vmax


class TestSideTable:
    def test_samplers_match_per_call_normalisation(self):
        _, _, terms, va, vb, _ = ccz_setup()
        sides = [((reference_side_branches(t.side_a, t.op_a), va), (reference_side_branches(t.side_b, t.op_b), vb))
                 for t in terms]
        # a projector side: one sign-0 branch, sampled like the others
        dists = np.random.default_rng(4).uniform(size=(3, vb.size))
        projector = [Branch(p, sign, dist) for p, sign, dist in zip((0.5, 0.3, 0.2), (1.0, 0.0, -1.0), dists)]
        sides.append((sides[0][0], (projector, vb)))
        for i, (side_a, side_b) in enumerate(sides):
            table_a, table_b = (reference_table(normalised(branches), values)
                                for branches, values in (side_a, side_b))
            for shots in (1, 37, 5000):
                for table, side in ((table_a, side_a), (table_b, side_b)):
                    assert (sampler._sample_side_sum(table, shots, np.random.default_rng(i))
                            == reference_side_sum(*side, shots, np.random.default_rng(i)))
                assert (sampler._sample_joint_products(table_a, table_b, shots, np.random.default_rng(i))
                        == reference_joint_products(side_a, side_b, shots, np.random.default_rng(i)))

    def test_sign_zero_branches_score_zero(self):
        # a side whose every branch has sign 0 scores 0 in every shot, squares and maximum included
        _, _, terms, va, vb, _ = ccz_setup()
        side_a = (reference_side_branches(terms[0].side_a, terms[0].op_a), va)
        dists = np.random.default_rng(4).uniform(size=(2, vb.size))
        side_b = ([Branch(p, 0.0, dist) for p, dist in zip((0.6, 0.4), dists)], vb)
        table_a, table_b = (reference_table(normalised(branches), values) for branches, values in (side_a, side_b))
        assert sampler._sample_side_sum(table_b, 500, np.random.default_rng(0)) == (0.0, 0.0)
        assert (sampler._sample_joint_products(table_a, table_b, 500, np.random.default_rng(0))
                == reference_joint_products(side_a, side_b, 500, np.random.default_rng(0)) == (0.0, 0.0, 0.0))


def plain_side_sum(table, shots, rng):
    """``sampler._sample_side_sum`` with the branch draw made for every table."""
    total = total_sq = 0.0
    for count, dist, sign in zip(rng.multinomial(shots, table.probs), table.dists, table.signs):
        if count:
            outcome_counts = rng.multinomial(count, dist)
            total += sign * float(outcome_counts @ table.values)
            total_sq += sign**2 * float(outcome_counts @ table.values**2)
    return total, total_sq


class TestOneBranchTables:
    def test_skipped_branch_draw_keeps_sums_and_stream(self):
        # the criterion-6 shape: most (2,3) side tables hold one branch
        circuit = experiments.gen_random_circuit(5, 2, 3, np.random.default_rng(3))
        terms = embed(decompose_mcz(2, 3), find_cut(circuit))
        va, vb = Observable.z_string(5).factor(circuit.qubits_in("A"), circuit.qubits_in("B"))
        tables = [t for pair in cutter.term_tables(terms, va.values, vb.values) for t in pair]
        assert {t.probs.size == 1 for t in tables} == {True, False}
        for table in tables:
            for seed in range(40):
                for shots in (1, 37, 84_706):
                    fast, plain = np.random.default_rng(seed), np.random.default_rng(seed)
                    assert sampler._sample_side_sum(table, shots, fast) == plain_side_sum(table, shots, plain)
                    assert fast.bit_generator.state == plain.bit_generator.state


class TestJointScoring:
    def test_side_contractions_match_per_pair_loop(self):
        # A (2, 3) cut with an idle qubit on each side: up to 4 A branches
        # (the signed projector) by 8 B branches, over 8 x 16 outcomes
        rng = np.random.default_rng(8)
        gates = [rx(q, float(rng.uniform(0.3, 2.8))) for q in range(7)]
        gates += [mcz(1, 2, 3, 4, 5)] + [rx(q, float(rng.uniform(0.3, 2.8))) for q in range(7)]
        circuit = Circuit(7, tuple(gates), ("A",) * 3 + ("B",) * 4)
        terms = embed(decompose_mcz(2, 3), find_cut(circuit))
        va, vb = Observable.z_string(7).factor(circuit.qubits_in("A"), circuit.qubits_in("B"))
        tables = cutter.term_tables(terms, va.values, vb.values)
        for term, (table_a, table_b) in zip(terms, tables):
            sides = ((reference_side_branches(term.side_a, term.op_a), va.values),
                     (reference_side_branches(term.side_b, term.op_b), vb.values))
            for seed in range(4):
                assert (sampler._sample_joint_products(table_a, table_b, 20_000, np.random.default_rng(seed))
                        == reference_joint_products(*sides, 20_000, np.random.default_rng(seed)))


class TestSignBookkeeping:
    def test_flipping_xi_flips_term_contribution(self, monkeypatch):
        _, d, terms, va, vb = bell_setup()
        budget = ShotBudget(2000, 0.1, d.kappa)
        baseline = preestimation_mode(terms, budget, 23, va, vb, decomposition=d)

        original = LocalOperation.signed_diagonal_terms

        def flipped(self):
            terms = original(self)
            return [(-w, d) for w, d in terms] if self.variant == "signed_projector" else terms

        monkeypatch.setattr(LocalOperation, "signed_diagonal_terms", flipped)
        flipped_run = preestimation_mode(terms, budget, 23, va, vb, decomposition=d)

        for base_entry, flip_entry, term in zip(baseline.per_term, flipped_run.per_term, terms):
            if term.op_a.variant == "signed_projector":
                assert flip_entry["mean_a"] == -base_entry["mean_a"]
            else:
                assert flip_entry["mean_a"] == base_entry["mean_a"]


class TestVarianceInflation:
    def test_cut_variance_exceeds_uncut(self):
        circuit, d, terms, va, vb, obs = ccz_setup(seed=8)
        distribution = densesim.run(circuit).probabilities()
        shots = 20_000
        budget = ShotBudget(shots, 0.05, d.kappa)
        cut_errors, uncut_errors = [], []
        exact = densesim.expval(densesim.run(circuit), obs)
        for seed in range(40):
            rec = preestimation_mode(terms, budget, seed, va, vb, decomposition=d)
            cut_errors.append(rec.estimate - exact)
            uncut = sample_uncut(distribution, obs.values, shots, np.random.default_rng(seed))
            uncut_errors.append(uncut - exact)
        assert np.var(cut_errors) >= 2 * np.var(uncut_errors)


class TestVarianceReport:
    """The error summary an experiment writes for each arm."""

    def test_constant_records(self):
        report = experiments._arm_summary([0.5, 0.5, 0.5])
        assert report["std_dev"] == 0.0 and report["mean"] == 0.5

    def test_single_record_has_no_spread(self):
        assert experiments._arm_summary([0.5]) == {"std_dev": None, "mean": 0.5, "quantiles": None}

    def test_quantiles_of_many_runs(self):
        circuit, d, terms, va, vb, obs = ccz_setup(seed=5)
        exact = densesim.expval(densesim.run(circuit), obs)
        eps = 0.05
        total = preestimation_budget(eps, d.kappa)
        total += total % 2
        budget = ShotBudget(total, eps, d.kappa)
        errors = [preestimation_mode(terms, budget, seed, va, vb, decomposition=d).estimate - exact
                  for seed in range(100)]
        report = experiments._arm_summary(errors)
        assert report["std_dev"] == pytest.approx(np.std(errors, ddof=1))
        assert np.quantile(np.abs(errors), 0.95) < 3 * eps
        assert set(report["quantiles"]) == {"5%", "25%", "75%", "95%"}
