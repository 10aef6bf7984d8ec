import math

import numpy as np
import pytest

from crngame import (
    Crn,
    NoAbsorptionError,
    SimConfig,
    StateSpaceTooLargeError,
    absorption_probabilities,
    enumerate_states,
    make_crn,
    propensity,
    run_trials,
)
from crngame.oracle import SOLVE_RESIDUAL_BOUND
from crngame.ssa import constant_initial_state


def x_takeover(state):
    return state[0] > state[1]


def value_iteration(space, predicate, sweeps=20000, tol=1e-13):
    """Independent absorption oracle: iterate p <- P p to a fixed point."""
    n = len(space)
    p = np.array([1.0 if space.absorbing[i] and predicate(space.states[i])
                  else 0.0 for i in range(n)])
    for _ in range(sweeps):
        nxt = p.copy()
        for i in range(n):
            row = space.transitions[i]
            if row:
                total = sum(rate for _, rate in row)
                nxt[i] = sum(rate * p[j] for j, rate in row) / total
        if np.abs(nxt - p).max() < tol:
            return nxt
        p = nxt
    return p


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
        # each merged rate is the left-to-right sum of core.propensity over
        # the reactions that lead there
        crn = make_crn([
            ({"X": 2, "Y": 1}, {"X": 3}, 1.5),
            ({"X": 1, "Y": 1}, {"X": 2}, 0.7),
            ({"X": 1}, {"Y": 1}, 0.3),
        ])
        volume = 2.5
        space = enumerate_states(crn, crn.species.state_from({"X": 3, "Y": 4}),
                                 volume)
        assert len(space) == 8
        for state, row in zip(space.states, space.transitions):
            expected = {}
            for rxn in crn.reactions:
                rate = propensity(rxn, state, volume)
                if rate > 0.0:
                    succ = tuple(state + np.array(rxn.delta))
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
        p = absorption_probabilities(space, x_takeover)
        assert abs(p[0] - 0.75) <= SOLVE_RESIDUAL_BOUND
        # cross-check against an independent fixed-point iteration
        q = value_iteration(space, x_takeover)
        np.testing.assert_allclose(p, q, atol=1e-9)

    def test_symmetric_start_is_half(self, majority_crn):
        space = enumerate_states(majority_crn,
                                 majority_crn.species.state_from({"X": 2, "Y": 2}))
        p = absorption_probabilities(space, x_takeover)
        assert abs(p[0] - 0.5) <= SOLVE_RESIDUAL_BOUND

    def test_certain_takeover(self, majority_crn):
        space = enumerate_states(majority_crn,
                                 majority_crn.species.state_from({"X": 4, "Y": 1}))
        p = absorption_probabilities(space, x_takeover)
        assert abs(p[0] - 1.0) <= SOLVE_RESIDUAL_BOUND

    def test_predicate_and_complement_sum_to_one(self, majority_crn):
        space = enumerate_states(majority_crn,
                                 majority_crn.species.state_from({"X": 5, "Y": 4}))
        p = absorption_probabilities(space, x_takeover)
        q = absorption_probabilities(space, lambda s: not x_takeover(s))
        np.testing.assert_allclose(p + q, np.ones(len(space)), atol=1e-10)

    def test_swap_symmetry(self, majority_crn):
        table = majority_crn.species
        forward = absorption_probabilities(
            enumerate_states(majority_crn, table.state_from({"X": 3, "Y": 2})),
            x_takeover)
        swapped = absorption_probabilities(
            enumerate_states(majority_crn, table.state_from({"X": 2, "Y": 3})),
            lambda s: s[1] > s[0])
        assert forward[0] == pytest.approx(swapped[0], abs=1e-12)

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
            absorption_probabilities(space, lambda s: True)

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
            absorption_probabilities(space, lambda s: True)


class TestAgreementWithSimulation:
    @pytest.mark.parametrize("x,y", [(3, 2), (2, 2), (4, 1), (5, 3)])
    def test_ssa_frequencies_match_exact(self, majority_crn, x, y):
        table = majority_crn.species
        space = enumerate_states(majority_crn, table.state_from({"X": x, "Y": y}))
        exact = absorption_probabilities(space, x_takeover)[0]
        trials = 4000
        results = run_trials(majority_crn,
                             constant_initial_state(table.state_from({"X": x, "Y": y})),
                             SimConfig(seed=1000 + x * 10 + y), trials)
        wins = sum(1 for r in results
                   if r.final_state[0] > r.final_state[1])
        sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
        assert abs(wins / trials - exact) <= max(3 * sigma, 1e-9)
