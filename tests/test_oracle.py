import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from crngame import (
    Condition,
    Crn,
    CrnError,
    ConstantCount,
    Indifferent,
    NoAbsorptionError,
    Player,
    SimConfig,
    StateSpaceTooLargeError,
    TakeoverSuccess,
    absorption_probabilities,
    compose,
    enumerate_states,
    make_crn,
)
from crngame.batch import simulate_batch
from crngame.core import (
    MAX_COUNT,
    CompiledCrn,
    CountOverflowError,
    NumericOverflowError,
    Reaction,
    SpeciesTable,
)
from crngame.crnfile import load
from crngame.data import path as data_path
from crngame.oracle import SOLVE_RESIDUAL_BOUND
from crngame.game import estimate_conditions, sample_initial_state
from crngame.rng import Xoshiro256, XoshiroBatch, child_seed


def x_takeover(space):
    """Each state of ``space`` where species 0 outnumbers species 1."""
    return space.states[:, 0] > space.states[:, 1]


def every_state(space):
    return np.ones(len(space), dtype=bool)


def value_iteration(space, won, sweeps=20000, tol=1e-13):
    """Independent absorption oracle: iterate p <- P p to a fixed point."""
    n = len(space)
    p = np.array([1.0 if space.absorbing[i] and won[i] else 0.0 for i in range(n)])
    rows = space.transitions
    for _ in range(sweeps):
        nxt = p.copy()
        for i in range(n):
            row = rows[i]
            if row:
                total = sum(rate for _, rate in row)
                nxt[i] = sum(rate * p[j] for j, rate in row) / total
        if np.abs(nxt - p).max() < tol:
            return nxt
        p = nxt
    return p


def scalar_enumerate(crn, initial, volume=1.0, state_cap=10**6, stop_when_zero=()):
    """Reference breadth-first search, one state and one reaction at a time.

    Each propensity is taken from the reaction itself, ``k * V**(1 - arity)``
    times its falling factors in species order, and each successor applies
    the reaction's ``delta`` pairs. A state where a species listed in
    ``stop_when_zero`` is zero tries no reaction.
    """
    start = tuple(int(c) for c in initial)
    index_of = {start: 0}
    states = [start]
    transitions = []
    queue = deque([0])
    while queue:
        state = states[queue.popleft()]
        merged = {}
        stopped = any(state[i] == 0 for i in stop_when_zero)
        for ri, rxn in enumerate([] if stopped else crn.reactions):
            rate = rxn.rate_constant * volume ** (1 - rxn.arity)
            for si, need in rxn.reactants:
                for m in range(need):
                    rate *= state[si] - m
            if rate == 0.0:
                continue
            if not math.isfinite(rate):
                raise NumericOverflowError(ri)
            succ = fire(state, rxn)
            if max(succ, default=0) > MAX_COUNT:
                raise CountOverflowError(crn.species.names[succ.index(max(succ))], ri)
            ti = index_of.get(succ)
            if ti is None:
                ti = len(states)
                if ti >= state_cap:
                    raise StateSpaceTooLargeError(state_cap)
                index_of[succ] = ti
                states.append(succ)
                queue.append(ti)
            merged[ti] = merged.get(ti, 0.0) + rate
        transitions.append(list(merged.items()))
    return states, transitions


def fire(state, rxn):
    """``state`` after one firing of ``rxn``, as a tuple of ints."""
    succ = [int(c) for c in state]
    for si, d in rxn.delta:
        succ[si] += d
    return tuple(succ)


def bits(transitions):
    return [[(ti, rate.hex()) for ti, rate in row] for row in transitions]


def unchecked_reaction(reactants, products, rate_constant):
    """A Reaction built past the constructor's reactants != products check."""
    change = {i: products.get(i, 0) - reactants.get(i, 0) for i in {**reactants, **products}}
    rxn = object.__new__(Reaction)
    for name, value in [("reactants", tuple(sorted(reactants.items()))),
                        ("products", tuple(sorted(products.items()))),
                        ("rate_constant", rate_constant), ("arity", sum(reactants.values())),
                        ("delta", tuple(sorted((i, d) for i, d in change.items() if d)))]:
        object.__setattr__(rxn, name, value)
    return rxn


def outcome(enumerate_fn, *args, **kwargs):
    try:
        enumerate_fn(*args, **kwargs)
    except (NumericOverflowError, StateSpaceTooLargeError) as exc:
        return type(exc), str(exc)
    return None


class TestAgainstScalarSearch:
    """The level-at-a-time search equals the one-state-at-a-time search bit for bit."""

    def check(self, crn, counts, volume=1.0):
        initial = crn.species.state_from(counts)
        states, transitions = scalar_enumerate(crn, initial, volume)
        space = enumerate_states(crn, initial, volume)
        assert space.states.dtype == np.int64
        assert space.states.shape == (len(states), len(crn.species.names))
        assert [tuple(s) for s in space.states.tolist()] == states
        assert bits(space.transitions) == bits(transitions)
        return space

    def test_parallel_reactions_in_first_nonzero_order(self):
        # reactions 0 and 2 share a change; where reaction 0 is not
        # applicable (X = 1) the merged entry sits after reaction 1's
        crn = make_crn([
            ({"X": 2}, {"X": 1, "Y": 1}, 1.5),
            ({"Y": 1}, {"Z": 1}, 0.7),
            ({"X": 1}, {"Y": 1}, 0.3),
        ])
        space = self.check(crn, {"X": 3, "Y": 1})
        i = space.states.tolist().index([1, 3, 0])
        [(first, _), (second, _)] = space.transitions[i]
        assert space.states[first].tolist() == [1, 2, 1]
        assert space.states[second].tolist() == [0, 4, 0]

    def test_many_parallel_reactions(self):
        crn = make_crn([({"X": 1}, {"Y": 1}, 0.1 * (j + 1)) for j in range(10)]
                       + [({"X": 1, "Y": 1}, {"Y": 2}, 0.3 * (j + 1)) for j in range(10)])
        self.check(crn, {"X": 4, "Y": 1})

    def test_self_loop(self):
        # Reaction rejects X -> X, so build one past that check: the search
        # must still treat a change of nothing as an edge back to the state
        table = SpeciesTable(["X", "Y"])
        crn = Crn(table, [Reaction({0: 1}, {1: 1}, 1.0),
                          unchecked_reaction({0: 1}, {0: 1}, 2.0)])
        space = self.check(crn, {"X": 2})
        assert space.transitions[0] == [(1, 2.0), (0, 4.0)]

    def test_trimolecular_at_volume(self):
        crn = make_crn([
            ({"X": 2, "Y": 1}, {"X": 3}, 1.5),
            ({"X": 1, "Y": 1}, {"X": 2}, 0.7),
            ({"X": 1}, {"Y": 1}, 0.3),
        ])
        self.check(crn, {"X": 3, "Y": 4}, volume=2.5)

    def test_state_found_again_from_a_later_level(self):
        crn = make_crn([({"A": 1}, {"B": 1}, 1.0), ({"B": 1}, {"A": 1}, 2.0)])
        space = self.check(crn, {"A": 3})
        assert (0, 2.0) in space.transitions[1]

    def test_two_frontier_states_find_one_new_state(self):
        crn = make_crn([({"X": 1}, {"Y": 1}, 1.0), ({"X": 1}, {"Z": 1}, 3.0)])
        space = self.check(crn, {"X": 2})
        assert space.transitions[1][1][0] == space.transitions[2][0][0]

    def test_counts_above_2_to_the_31(self):
        crn = make_crn([
            ({"C": 1, "A": 1}, {"B": 1}, 1e-9),
            ({"C": 2, "B": 1}, {"C": 2, "D": 1}, 1e-19),
        ])
        big = 2**32 + 5
        space = self.check(crn, {"C": big, "A": 3})
        assert space.states[:, 0].min() == big - 3

    def test_six_species(self):
        names = [f"S{i}" for i in range(7)]
        crn = make_crn([({a: 1}, {b: 1}, 1.0 + i) for i, (a, b) in
                        enumerate(zip(names, names[1:]))]
                       + [({"S0": 1, "S3": 1}, {"S6": 2}, 0.5)])
        assert crn.species.names == tuple(names)
        self.check(crn, {"S0": 2, "S3": 1})

    def test_approximate_majority(self):
        crn = make_crn([
            ({"X": 1, "Y": 1}, {"X": 1, "B": 1}, 1.0),
            ({"X": 1, "Y": 1}, {"Y": 1, "B": 1}, 1.0),
            ({"B": 1, "X": 1}, {"X": 2}, 1.0),
            ({"B": 1, "Y": 1}, {"Y": 2}, 1.0),
        ])
        self.check(crn, {"X": 9, "Y": 7})

    def test_empty_crn(self):
        self.check(Crn.empty(), {})

    def test_approximate_majority_past_the_first_buffers(self):
        crn = make_crn([
            ({"X": 1, "Y": 1}, {"X": 1, "B": 1}, 1.0),
            ({"X": 1, "Y": 1}, {"Y": 1, "B": 1}, 1.0),
            ({"B": 1, "X": 1}, {"X": 2}, 1.0),
            ({"B": 1, "Y": 1}, {"Y": 2}, 1.0),
        ])
        assert len(self.check(crn, {"X": 31, "Y": 29})) == 1890

    def test_one_state_per_level(self):
        crn = make_crn([({"X": 1}, {"Y": 1}, 1.0)])
        assert len(self.check(crn, {"X": 20_000})) == 20_001


def shipped_game(total, diff, catalysts, nature_rate):
    """The default sweep's players at a small scale: ``r_prime.crn`` with the
    pair at (total + diff) / 2 and (total - diff) / 2 and A = B = ``catalysts``,
    and a nature that flips A and B at ``nature_rate``."""
    doc = load(data_path("r_prime.crn"))
    counts = {"X": (total + diff) // 2, "Y": (total - diff) // 2, "A": catalysts,
              "B": catalysts}
    start = tuple(ConstantCount(counts.get(name, 0)) for name in doc.crn.species.names)
    main = Player(doc.crn, start, TakeoverSuccess("X", "Y"), "main")
    flip = make_crn([({"A": 1}, {"B": 1}, nature_rate), ({"B": 1}, {"A": 1}, nature_rate)])
    nature = Player(flip, (ConstantCount(0), ConstantCount(0)), Indifferent(), "nature")
    return main, nature


class TestStoppingSearch:
    """A search with a stop set equals the reference search with the same stop rule."""

    def check(self, crn, counts, stop_names):
        initial = crn.species.state_from(counts)
        stop = [crn.species.index_of(name) for name in stop_names]
        states, transitions = scalar_enumerate(crn, initial, stop_when_zero=stop)
        space = enumerate_states(crn, initial, stop_when_zero=stop)
        assert [tuple(s) for s in space.states.tolist()] == states
        assert bits(space.transitions) == bits(transitions)
        return space

    def test_majority_stops_where_it_absorbs(self, majority_crn):
        # x + y is conserved: a zero of the pair is absorbing anyway
        space = self.check(majority_crn, {"X": 9, "Y": 7}, ("X", "Y"))
        plain = enumerate_states(majority_crn, majority_crn.species.state_from(
            {"X": 9, "Y": 7}))
        assert space.states.tolist() == plain.states.tolist()
        assert bits(space.transitions) == bits(plain.transitions)

    def test_approximate_majority_stops_before_it_absorbs(self):
        # a state with Y = 0 and B > 0 still converts B, unless it is stopped
        crn = make_crn([
            ({"X": 1, "Y": 1}, {"X": 1, "B": 1}, 1.0),
            ({"X": 1, "Y": 1}, {"Y": 1, "B": 1}, 1.0),
            ({"B": 1, "X": 1}, {"X": 2}, 1.0),
            ({"B": 1, "Y": 1}, {"Y": 2}, 1.0),
        ])
        space = self.check(crn, {"X": 9, "Y": 7}, ("X", "Y"))
        plain = enumerate_states(crn, crn.species.state_from({"X": 9, "Y": 7}))
        assert len(space) < len(plain) == 152

    def test_shipped_game_absorbs_only_with_the_stop_set(self):
        game = compose(shipped_game(40, 4, 3, 1000.0))
        counts = {"X": 22, "Y": 18, "A": 3, "B": 3}
        space = self.check(game.crn, counts, ("X", "Y"))
        # x + y = 40 and a + b = 6; a catalysed step reaches X = 0 only with
        # B > 0 and Y = 0 only with A > 0
        assert len(space) == 41 * 7 - 2
        plain = enumerate_states(game.crn, game.crn.species.state_from(counts))
        assert not plain.absorbing.any()

    def test_start_with_a_watched_zero_is_one_absorbing_state(self):
        crn = make_crn([({"X": 1}, {"Y": 1}, 1.0)])
        space = self.check(crn, {"X": 5}, ("Y",))
        assert (len(space), space.absorbing.tolist()) == (1, [True])

    @pytest.mark.parametrize("bad", ["non-finite", "count"])
    def test_stopped_state_computes_nothing(self, bad):
        # X -> Y stops at X = 0, where reaction 1 would be non-finite or
        # would take W past 2^63 - 1; unstopped, the search raises there
        if bad == "non-finite":
            crn = make_crn([({"X": 1}, {"Y": 1}, 1.0),
                            ({"Y": 1, "W": 1}, {"Y": 1}, 1e300)])
            counts, error = {"X": 1, "W": 10**10}, NumericOverflowError
        else:
            crn = make_crn([({"X": 1}, {"Y": 1}, 1.0), ({"Y": 1}, {"Y": 1, "W": 1}, 1.0)])
            counts, error = {"X": 1, "W": MAX_COUNT}, CountOverflowError
        assert len(self.check(crn, counts, ("X",))) == 2
        with pytest.raises(error):
            enumerate_states(crn, crn.species.state_from(counts))

    @pytest.mark.parametrize("stop", [(2,), (-1,), (0, 5)])
    def test_index_out_of_range(self, majority_crn, stop):
        with pytest.raises(CrnError,
                           match="^stop_when_zero names a species index out of range$"):
            enumerate_states(majority_crn, majority_crn.species.state_from({"X": 1}),
                             stop_when_zero=stop)


class TestEnumerateErrors:
    def test_non_finite_propensity_names_reaction(self):
        crn = make_crn([({"X": 1}, {"Y": 1}, 1.0), ({"X": 3}, {"Z": 1}, 1e300)])
        with pytest.raises(NumericOverflowError) as exc:
            enumerate_states(crn, crn.species.state_from({"X": 10**6}))
        assert exc.value.reaction_index == 1
        assert "reaction 1" in str(exc.value)

    def test_non_finite_propensity_in_a_later_level(self):
        # W + Z overflows only once W appears, two levels down
        crn = make_crn([({"X": 1}, {"W": 1}, 1.0), ({"W": 1, "Z": 1}, {"W": 1}, 1e300)])
        initial = crn.species.state_from({"X": 2, "Z": 10**10})
        assert outcome(enumerate_states, crn, initial) \
            == outcome(scalar_enumerate, crn, initial) \
            == (NumericOverflowError, "non-finite propensity in reaction 1")

    def test_cap_or_overflow_first_in_search_order(self):
        # one level both crosses the cap and meets a non-finite propensity;
        # which error comes first depends on the reaction order and the cap
        table = SpeciesTable(["X", "Y", "W", "Z"])
        reactions = [Reaction({0: 1}, {1: 1}, 1.0),  # X -> Y
                     Reaction({1: 1}, {2: 1}, 1.0),  # Y -> W
                     Reaction({2: 1, 3: 1}, {2: 1}, 1e300)]  # W + Z -> W
        seen = set()
        for order in itertools.permutations(reactions):
            crn = Crn(table, order)
            initial = crn.species.state_from({"X": 2, "Z": 10**10})
            for cap in range(1, 7):
                got = outcome(enumerate_states, crn, initial, state_cap=cap)
                assert got == outcome(scalar_enumerate, crn, initial, state_cap=cap)
                seen.add(got[0])
        assert seen == {NumericOverflowError, StateSpaceTooLargeError}

    @pytest.mark.parametrize("cap", [1, 2, 3, 10**6])
    def test_count_above_int64_or_cap_first_in_search_order(self, cap):
        # from 2^63 - 2 the first state finds 2^63 - 1 and 2^63 - 3; the
        # second would reach 2^63
        crn = make_crn([({}, {"X": 1}, 1.0), ({"X": 1}, {}, 1e-30)])
        initial = crn.species.state_from({"X": MAX_COUNT - 1})
        errors = (CountOverflowError, StateSpaceTooLargeError)
        with pytest.raises(errors) as compiled:
            enumerate_states(crn, initial, state_cap=cap)
        with pytest.raises(errors) as scalar:
            scalar_enumerate(crn, initial, state_cap=cap)
        assert (type(compiled.value), str(compiled.value)) \
            == (type(scalar.value), str(scalar.value))
        if cap >= 3:
            assert str(compiled.value) == (
                "reaction 0 takes the count of species 'X' above 9223372036854775807")


class TestStateSpaceArrays:
    def test_views_agree_with_arrays(self):
        crn = make_crn([
            ({"X": 2, "Y": 1}, {"X": 3}, 1.5),
            ({"X": 1, "Y": 1}, {"X": 2}, 0.7),
            ({"X": 1}, {"Y": 1}, 0.3),
            ({"X": 1}, {"Y": 1}, 0.2),
        ])
        space = enumerate_states(crn, crn.species.state_from({"X": 3, "Y": 4}))
        rows = space.transitions
        assert len(rows) == len(space) == space.indptr.size - 1
        for i, row in enumerate(rows):
            lo, hi = space.indptr[i], space.indptr[i + 1]
            assert row == list(zip(space.successors[lo:hi].tolist(),
                                   space.rates[lo:hi].tolist()))
            assert space.absorbing[i] == (not row)
        assert space.absorbing.any() and not space.absorbing.all()


class TestEnumerate:
    def test_six_states_from_3_2(self, majority_crn):
        space = enumerate_states(majority_crn,
                                 majority_crn.species.state_from({"X": 3, "Y": 2}))
        got = {tuple(s) for s in space.states}
        assert got == {(3, 2), (4, 1), (2, 3), (5, 0), (1, 4), (0, 5)}
        assert tuple(space.states[0]) == (3, 2)
        assert {tuple(space.states[i]) for i in np.flatnonzero(space.absorbing)} \
            == {(5, 0), (0, 5)}

    def test_one_way_chain_from_2_1(self, majority_crn):
        space = enumerate_states(majority_crn,
                                 majority_crn.species.state_from({"X": 2, "Y": 1}))
        assert {tuple(s) for s in space.states} == {(2, 1), (3, 0)}
        assert sum(len(row) for row in space.transitions) == 1

    def test_empty_crn_single_absorbing_state(self):
        space = enumerate_states(Crn.empty(), np.zeros(0, dtype=np.int64))
        assert len(space) == 1
        assert space.absorbing.all()

    def test_parallel_reactions_merge(self):
        crn = make_crn([
            ({"X": 1}, {"Y": 1}, 2.0),
            ({"X": 1}, {"Y": 1}, 3.0),
        ])
        space = enumerate_states(crn, crn.species.state_from({"X": 1}))
        [(succ, rate)] = space.transitions[0]
        assert tuple(space.states[succ]) == (0, 1)
        assert rate == 5.0

    def test_rates_are_summed_core_propensities(self):
        # two reactions share every successor (one of them 2X + Y) and V != 1:
        # each merged rate is the left-to-right sum of CompiledCrn.propensity
        # over the reactions that lead there
        crn = make_crn([
            ({"X": 2, "Y": 1}, {"X": 3}, 1.5),
            ({"X": 1, "Y": 1}, {"X": 2}, 0.7),
            ({"X": 1}, {"Y": 1}, 0.3),
        ])
        volume = 2.5
        space = enumerate_states(crn, crn.species.state_from({"X": 3, "Y": 4}),
                                 volume)
        assert len(space) == 8
        kin = CompiledCrn(crn.reactions, volume)
        for state, row in zip(space.states, space.transitions):
            expected = {}
            for j, rxn in enumerate(crn.reactions):
                rate = kin.propensity(j, state.tolist())
                if rate > 0.0:
                    succ = fire(state, rxn)
                    expected[succ] = expected.get(succ, 0.0) + rate
            assert {tuple(space.states[ti]): rate for ti, rate in row} == expected

    def test_cap_exceeded(self):
        crn = make_crn([({"X": 1}, {"X": 2}, 1.0)])
        with pytest.raises(StateSpaceTooLargeError):
            enumerate_states(crn, crn.species.state_from({"X": 1}), state_cap=50)


class TestAbsorption:
    def test_exact_three_quarters(self, majority_crn):
        space = enumerate_states(majority_crn,
                                 majority_crn.species.state_from({"X": 3, "Y": 2}))
        p = absorption_probabilities(space, x_takeover(space))
        assert abs(p[0] - 0.75) <= SOLVE_RESIDUAL_BOUND
        # cross-check against an independent fixed-point iteration
        q = value_iteration(space, x_takeover(space))
        np.testing.assert_allclose(p, q, atol=1e-9)

    def test_symmetric_start_is_half(self, majority_crn):
        space = enumerate_states(majority_crn,
                                 majority_crn.species.state_from({"X": 2, "Y": 2}))
        p = absorption_probabilities(space, x_takeover(space))
        assert abs(p[0] - 0.5) <= SOLVE_RESIDUAL_BOUND

    def test_certain_takeover(self, majority_crn):
        space = enumerate_states(majority_crn,
                                 majority_crn.species.state_from({"X": 4, "Y": 1}))
        p = absorption_probabilities(space, x_takeover(space))
        assert abs(p[0] - 1.0) <= SOLVE_RESIDUAL_BOUND

    def test_predicate_and_complement_sum_to_one(self, majority_crn):
        space = enumerate_states(majority_crn,
                                 majority_crn.species.state_from({"X": 5, "Y": 4}))
        p = absorption_probabilities(space, x_takeover(space))
        q = absorption_probabilities(space, ~x_takeover(space))
        np.testing.assert_allclose(p + q, np.ones(len(space)), atol=1e-10)

    def test_swap_symmetry(self, majority_crn):
        table = majority_crn.species
        forward_space = enumerate_states(majority_crn, table.state_from({"X": 3, "Y": 2}))
        forward = absorption_probabilities(forward_space, x_takeover(forward_space))
        swapped_space = enumerate_states(majority_crn, table.state_from({"X": 2, "Y": 3}))
        swapped = absorption_probabilities(
            swapped_space, swapped_space.states[:, 1] > swapped_space.states[:, 0])
        assert forward[0] == pytest.approx(swapped[0], abs=1e-12)

    @pytest.mark.parametrize("shape", ["short", "long", "column", "scalar"])
    def test_won_needs_one_entry_per_state(self, majority_crn, shape):
        space = enumerate_states(majority_crn,
                                 majority_crn.species.state_from({"X": 3, "Y": 2}))
        won = {"short": x_takeover(space)[:-1], "long": np.ones(len(space) + 1, bool),
               "column": x_takeover(space)[:, None], "scalar": True}[shape]
        with pytest.raises(CrnError, match="^won must hold one entry per state"):
            absorption_probabilities(space, won)

    def test_embedded_chain_rows_are_stochastic(self, majority_crn):
        space = enumerate_states(majority_crn,
                                 majority_crn.species.state_from({"X": 6, "Y": 5}))
        for i, row in enumerate(space.transitions):
            if not space.absorbing[i]:
                total = sum(rate for _, rate in row)
                assert abs(sum(rate / total for _, rate in row) - 1.0) <= 1e-12

    def test_no_absorbing_state_raises(self, shuffler_crn):
        space = enumerate_states(shuffler_crn,
                                 shuffler_crn.species.state_from({"A": 2, "B": 1}))
        with pytest.raises(NoAbsorptionError):
            absorption_probabilities(space, every_state(space))

    def test_stranded_transient_class_raises(self):
        # X flips forever between two forms; Z's death gives an absorbing
        # state that only Z-containing states can reach
        crn = make_crn([
            ({"X": 1}, {"Y": 1}, 1.0),
            ({"Y": 1}, {"X": 1}, 1.0),
            ({"Z": 2}, {"Z": 1}, 1.0),
        ])
        space = enumerate_states(crn, crn.species.state_from({"X": 1, "Z": 2}))
        with pytest.raises(NoAbsorptionError):
            absorption_probabilities(space, every_state(space))

    def test_lowest_stranded_state_is_named(self):
        # W dies (absorbing) or becomes X, which then flips forever: state 2
        # (W = 1, X = 1) is the first that cannot reach W = X = Y = 0
        crn = make_crn([({"W": 1}, {}, 1.0), ({"W": 1}, {"X": 1}, 1.0),
                        ({"X": 1}, {"Y": 1}, 1.0), ({"Y": 1}, {"X": 1}, 1.0)])
        space = enumerate_states(crn, crn.species.state_from({"W": 2}))
        assert space.states[2].tolist() == [1, 1, 0]
        with pytest.raises(NoAbsorptionError,
                           match="^state 2 cannot reach any absorbing state$"):
            absorption_probabilities(space, every_state(space))

    def test_non_finite_exit_rate_raises(self):
        # each propensity is finite, their merged sum is not
        crn = make_crn([({"X": 1}, {"Y": 1}, 1e308), ({"X": 1}, {"Y": 1}, 1.5e308),
                        ({"X": 1, "Y": 1}, {"Y": 2}, 1.0)])
        space = enumerate_states(crn, crn.species.state_from({"X": 1, "Y": 1}))
        with pytest.raises(NumericOverflowError, match="non-finite propensity sum"):
            absorption_probabilities(space, space.states[:, 1] > space.states[:, 0])

    def test_system_that_rounds_to_singular_raises(self):
        # each self-loop's probability rounds to 1.0, so I - P_tt keeps only
        # X = 2 -> X = 1's -1e-20 and has no nonzero pivot; no probability
        # comes back as nan
        table = SpeciesTable(["X", "Y"])
        crn = Crn(table, [Reaction({0: 1}, {1: 1}, 1.0),
                          unchecked_reaction({0: 1}, {0: 1}, 1e20)])
        space = enumerate_states(crn, crn.species.state_from({"X": 2}))
        with pytest.raises(CrnError, match="^absorption solve failed: .*singular"):
            absorption_probabilities(space, space.states[:, 1] > 0)


class TestSolve:
    def test_birth_death_chain_equals_gamblers_ruin(self):
        # r.crn on x + y = n: from 0 < x < n, X gains with probability
        # (x - 1)/(n - 2) and loses with (y - 1)/(n - 2), so the ratios
        # q_k / p_k multiply out to C(n - 3, j - 1) and the ruin formula
        # (Karlin & Taylor, 1975) gives P(X takes over from x) =
        # P(Binomial(n - 3, 1/2) <= x - 2), exactly, for every 0 <= x <= n
        n = 2000
        doc = load(data_path("r.crn"))
        space = enumerate_states(doc.crn, doc.crn.species.state_from(
            {"X": n // 2, "Y": n // 2}))
        assert len(space) == n + 1
        p = absorption_probabilities(space, space.states[:, 1] == 0)
        cdf = list(itertools.accumulate(math.comb(n - 3, i) for i in range(n - 2)))
        exact = {x: float(Fraction(cdf[x - 2], 2 ** (n - 3))) if x >= 2 else 0.0
                 for x in range(n)}
        exact[n] = 1.0
        assert max(abs(p[i] - exact[x]) for i, x in enumerate(space.states[:, 0])) <= 1e-12

    def test_one_way_crn(self):
        # each X independently becomes Y with probability 1/3, else Z, so
        # from (x, y, z) the final Y is y + Binomial(x, 1/3)
        crn = make_crn([({"X": 1}, {"Y": 1}, 1.0), ({"X": 1}, {"Z": 1}, 2.0)])
        space = enumerate_states(crn, crn.species.state_from({"X": 60}))
        p = absorption_probabilities(space, space.states[:, 1] > space.states[:, 2])

        def exact(x, y, z):
            return float(sum(Fraction(math.comb(x, k) * 2 ** (x - k), 3 ** x)
                             for k in range(x + 1) if y + k > z + x - k))

        assert max(abs(p[i] - exact(*state))
                   for i, state in enumerate(space.states.tolist())) <= 1e-12


def identity_minus_p_tt(space):
    """The first-step matrix as scipy's ``identity - p_tt`` builds it, in CSC."""
    from scipy.sparse import csr_matrix, identity

    src = np.repeat(np.arange(len(space)), np.diff(space.indptr))
    dst = space.successors
    exit_rates = np.bincount(src, weights=space.rates, minlength=len(space))
    t_pos = np.cumsum(~space.absorbing) - 1
    prob = space.rates / exit_rates[src]
    inner = ~space.absorbing[dst]
    size = int(np.count_nonzero(~space.absorbing))
    p_tt = csr_matrix((prob[inner], (t_pos[src[inner]], t_pos[dst[inner]])),
                      shape=(size, size))
    return (identity(size, format="csr") - p_tt).tocsc()


# the ordering and settings absorption_probabilities factors with
SUPERLU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "relax": 1, "panel_size": 4}


class TestFirstStepSystem:
    """SuperLU gets the matrix ``identity - p_tt`` gives, array for array."""

    class Solved(Exception):
        pass

    def system(self, monkeypatch, space):
        import scipy.sparse.linalg

        seen = []

        def splu(system, **options):
            assert options == SUPERLU_OPTIONS
            seen.append(system)
            raise self.Solved

        monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
        with pytest.raises(self.Solved):
            absorption_probabilities(space, every_state(space))
        return seen[0]

    def assert_same(self, monkeypatch, crn, counts):
        space = enumerate_states(crn, crn.species.state_from(counts))
        got, want = self.system(monkeypatch, space), identity_minus_p_tt(space)
        assert got.format == want.format == "csc"
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        return got

    def test_approximate_majority(self, monkeypatch):
        crn = make_crn([
            ({"X": 1, "Y": 1}, {"X": 1, "B": 1}, 1.0),
            ({"X": 1, "Y": 1}, {"Y": 1, "B": 1}, 1.0),
            ({"B": 1, "X": 1}, {"X": 2}, 1.0),
            ({"B": 1, "Y": 1}, {"Y": 2}, 1.0),
        ])
        self.assert_same(monkeypatch, crn, {"X": 31, "Y": 29})

    def test_self_loops_on_the_diagonal(self, monkeypatch):
        table = SpeciesTable(["X", "Y"])
        crn = Crn(table, [Reaction({0: 1}, {1: 1}, 1.0),
                          unchecked_reaction({0: 1}, {0: 1}, 2.0)])
        self.assert_same(monkeypatch, crn, {"X": 3})

    def test_diagonal_that_comes_to_zero_is_dropped(self, monkeypatch):
        # each self-loop's probability rounds to 1.0, so 1 - p is 0: of the
        # two transient states' entries only X = 2 -> X = 1's -1e-20 is left
        table = SpeciesTable(["X", "Y"])
        crn = Crn(table, [Reaction({0: 1}, {1: 1}, 1.0),
                          unchecked_reaction({0: 1}, {0: 1}, 1e20)])
        system = self.assert_same(monkeypatch, crn, {"X": 2})
        assert system.toarray().tolist() == [[0.0, -1e-20], [0.0, 0.0]]
        assert system.nnz == 1

    def test_underflowed_probability_is_dropped(self, monkeypatch):
        # 2e-320 / 2e10 underflows to 0.0: no entry for X = 2 -> X = 1, Y = 1
        crn = make_crn([({"X": 1}, {"Y": 1}, 1e-320), ({"X": 1}, {"W": 1}, 1e10),
                        ({"Y": 1}, {"W": 1}, 1.0)])
        system = self.assert_same(monkeypatch, crn, {"X": 2})
        # column 1 (X = 1, Y = 1) has no entry in row 0 (X = 2)
        assert system.indices[system.indptr[1]:system.indptr[2]].tolist() == [1]


class TestSolveMemory:
    """Only SuperLU's inputs are alive when it is called."""

    def test_per_transition_arrays_are_gone_at_the_solve(self, monkeypatch):
        import tracemalloc

        import scipy.sparse.linalg

        crn = make_crn([
            ({"X": 1, "Y": 1}, {"X": 1, "B": 1}, 1.0),
            ({"X": 1, "Y": 1}, {"Y": 1, "B": 1}, 1.0),
            ({"B": 1, "X": 1}, {"X": 2}, 1.0),
            ({"B": 1, "Y": 1}, {"Y": 2}, 1.0),
        ])
        space = enumerate_states(crn, crn.species.state_from({"X": 155, "Y": 145}))
        assert len(space) == 45450
        won = x_takeover(space)
        # the system and b, and at most four float64 arrays of one entry per
        # state (absorption_probabilities keeps two: hit and transient)
        per_state = 4 * 8 * len(space)
        seen = []

        def splu(system, **options):
            assert options == SUPERLU_OPTIONS
            seen.append((tracemalloc.get_traced_memory()[0], system))
            raise TestFirstStepSystem.Solved

        monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
        # an untraced first call imports whatever the solve loads
        with pytest.raises(TestFirstStepSystem.Solved):
            absorption_probabilities(space, won)
        tracemalloc.start()
        try:
            with pytest.raises(TestFirstStepSystem.Solved):
                absorption_probabilities(space, won)
        finally:
            tracemalloc.stop()
        held, system = seen[-1]
        b_bytes = 8 * system.shape[0]  # b: one float64 per transient state
        inputs = sum(a.nbytes for a in (system.data, system.indices, system.indptr)) + b_bytes
        assert held <= inputs + per_state


class TestAgreementWithSimulation:
    @pytest.mark.parametrize("x,y", [(3, 2), (2, 2), (4, 1), (5, 3)])
    def test_ssa_frequencies_match_exact(self, majority_crn, x, y):
        initial = majority_crn.species.state_from({"X": x, "Y": y})
        space = enumerate_states(majority_crn, initial)
        exact = absorption_probabilities(space, x_takeover(space))[0]
        trials = 4000
        seed = 1000 + x * 10 + y
        rng = XoshiroBatch([child_seed(seed, j) for j in range(trials)])
        finals = simulate_batch(majority_crn, np.tile(initial, (trials, 1)),
                                SimConfig(seed=seed), rng).final_states
        wins = int((finals[:, 0] > finals[:, 1]).sum())
        sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
        assert abs(wins / trials - exact) <= max(3 * sigma, 1e-9)


class TestShippedGameGate:
    """The lane pool's success counts on the shipped game agree with the exact
    takeover probabilities of both arms, at a scale the oracle solves."""

    # Declared before the run: each arm's success count must lie inside the
    # two-sided binomial tail of probability 1e-6 around the exact p.
    ALPHA = 1e-6
    TRIALS = 10_000

    def test_pool_agrees_with_the_exact_takeover_probability(self):
        from scipy.stats import binom

        main, nature = shipped_game(40, 4, 3, 1000.0)
        spec = main.utility
        exact = []
        for players in ((main, nature), (main,)):
            game = compose(players)
            table = game.crn.species
            start = sample_initial_state(game, Xoshiro256(0))  # all constants
            space = enumerate_states(game.crn, start, stop_when_zero=spec.stop_set(table))
            won = spec.succeeded(table, start, space.states)
            exact.append(absorption_probabilities(space, won)[0])
        # nature moves p by more than either arm's allowance, so a baseline
        # lane run with nature, or the other way round, would fail the gate
        assert exact[1] - exact[0] > 0.08

        condition = Condition("4", main.initial_distribution)
        [result] = estimate_conditions(main, [nature], [condition], self.TRIALS,
                                       SimConfig(seed=26), confidence=0.99, workers=1)
        for arm, p in zip((result.with_opponents, result.baseline), exact):
            assert arm.truncated == 0
            assert binom.cdf(arm.successes, self.TRIALS, p) > self.ALPHA / 2
            assert binom.sf(arm.successes - 1, self.TRIALS, p) > self.ALPHA / 2
