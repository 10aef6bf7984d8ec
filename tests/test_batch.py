"""The batch engine must reproduce the scalar engine trial for trial."""

import pickle

import numpy as np
import pytest

from crngame import Crn, Reaction, SimConfig, StopReason, make_crn
from crngame.batch import simulate_batch
from crngame.core import CrnError, NumericOverflowError
from crngame.rng import Xoshiro256, XoshiroBatch, child_seed
from crngame.ssa import ZeroCountMonitor, _core_loop


def scalar_reference(crn, initial, config, seeds, watch=()):
    finals, reasons, events, elapsed = [], [], [], []
    observers = (ZeroCountMonitor(watch),) if watch else ()
    for seed in seeds:
        res = _core_loop(crn, initial, config, observers, Xoshiro256(seed))
        finals.append(res.final_state)
        reasons.append(res.stop_reason)
        events.append(res.events)
        elapsed.append(res.elapsed)
    return (np.array(finals), reasons, np.array(events), np.array(elapsed))


def assert_batch_matches_scalar(crn, initial, config, trials, watch=(),
                                rate_rows=None):
    """Batch lanes must equal scalar runs, trial for trial.

    ``rate_rows`` (default: the CRN's own constants) gives each arm of the
    batch its per-lane rates: trial j of arm a is lane ``a * trials + j``,
    and is checked against the scalar engine on the CRN with those rates,
    where a rate of 0 drops the reaction.
    """
    rows = rate_rows or [[r.rate_constant for r in crn.reactions]]
    seeds = [child_seed(config.seed, j) for j in range(trials)]
    rng = XoshiroBatch(np.array(seeds * len(rows), dtype=np.uint64))
    inits = np.tile(initial, (trials * len(rows), 1))
    rates = None if rate_rows is None else np.repeat(
        np.array(rate_rows, dtype=np.float64), trials, axis=0)
    out = simulate_batch(crn, inits, config, rng, stop_when_zero=watch,
                         rates=rates)
    for arm, row in enumerate(rows):
        kept = Crn(crn.species, [Reaction(r.reactants, r.products, k)
                                 for r, k in zip(crn.reactions, row) if k > 0])
        finals, reasons, events, elapsed = scalar_reference(
            kept, initial, config, seeds, watch)
        lanes = slice(arm * trials, (arm + 1) * trials)
        np.testing.assert_array_equal(out.final_states[lanes], finals)
        np.testing.assert_array_equal(out.events[lanes], events)
        assert out.stop_reasons[lanes] == reasons
        # times may differ in the last ulp (vector log vs libm)
        np.testing.assert_allclose(out.elapsed[lanes], elapsed, rtol=1e-9)


@pytest.fixture
def perturbed_game(catalyzed_crn, shuffler_crn):
    """Composed consensus-plus-shuffler CRN over (X, Y, A, B)."""
    return make_crn([
        ({"X": 2, "Y": 1, "A": 1}, {"X": 3, "A": 1}, 1.0),
        ({"X": 1, "Y": 2, "B": 1}, {"Y": 3, "B": 1}, 1.0),
        ({"A": 1}, {"B": 1}, 4.0),
        ({"B": 1}, {"A": 1}, 4.0),
    ])


class TestLockstepEquality:
    def test_consensus_to_termination(self, majority_crn):
        initial = majority_crn.species.state_from({"X": 30, "Y": 20})
        assert_batch_matches_scalar(majority_crn, initial, SimConfig(seed=17), 200)

    def test_perturbed_game_with_monitor(self, perturbed_game):
        initial = perturbed_game.species.state_from(
            {"X": 24, "Y": 16, "A": 5, "B": 5})
        assert_batch_matches_scalar(perturbed_game, initial, SimConfig(seed=99),
                                    250, watch=(0, 1))

    def test_baseline_lanes_in_the_union_batch(self, perturbed_game):
        # the shuffler's rates zeroed: the catalysed consensus alone
        initial = perturbed_game.species.state_from(
            {"X": 24, "Y": 16, "A": 5, "B": 5})
        assert_batch_matches_scalar(perturbed_game, initial, SimConfig(seed=41),
                                    150, watch=(0, 1),
                                    rate_rows=[[1.0, 1.0, 4.0, 4.0],
                                               [1.0, 1.0, 0.0, 0.0]])

    def test_zero_rate_anywhere_in_the_list(self, perturbed_game):
        initial = perturbed_game.species.state_from(
            {"X": 20, "Y": 20, "A": 3, "B": 6})
        assert_batch_matches_scalar(perturbed_game, initial,
                                    SimConfig(seed=43, max_events=300), 100,
                                    rate_rows=[[0.0, 1.0, 4.0, 4.0],
                                               [1.0, 0.0, 2.5, 4.0],
                                               [1.0, 1.0, 0.0, 4.0]])

    def test_event_ceiling(self, shuffler_crn):
        initial = shuffler_crn.species.state_from({"A": 4, "B": 1})
        assert_batch_matches_scalar(shuffler_crn, initial,
                                    SimConfig(seed=5, max_events=37), 100)

    def test_max_time(self, majority_crn):
        initial = majority_crn.species.state_from({"X": 30, "Y": 20})
        assert_batch_matches_scalar(majority_crn, initial,
                                    SimConfig(seed=23, max_time=0.001), 200)


class TestBatchBasics:
    def test_empty_crn_all_terminal(self):
        crn = Crn.empty()
        rng = XoshiroBatch(np.arange(5, dtype=np.uint64))
        out = simulate_batch(crn, np.zeros((5, 0), dtype=np.int64),
                             SimConfig(seed=0), rng)
        assert all(r is StopReason.TERMINAL for r in out.stop_reasons)
        assert out.events.tolist() == [0] * 5

    def test_monitor_trips_on_initial_state(self, majority_crn):
        rng = XoshiroBatch(np.arange(3, dtype=np.uint64))
        inits = np.array([[5, 0], [0, 5], [3, 2]], dtype=np.int64)
        out = simulate_batch(majority_crn, inits, SimConfig(seed=0), rng,
                             stop_when_zero=(0, 1))
        assert out.stop_reasons[0] is StopReason.EARLY_STOP
        assert out.stop_reasons[1] is StopReason.EARLY_STOP
        assert out.events[0] == 0 and out.events[1] == 0
        assert out.stop_reasons[2] is StopReason.EARLY_STOP
        assert out.events[2] > 0

    def test_mixed_termination_times(self, majority_crn):
        # trials absorb at different steps; compaction must keep lanes aligned
        rng = XoshiroBatch(np.arange(64, dtype=np.uint64))
        inits = np.tile(np.array([12, 9], dtype=np.int64), (64, 1))
        out = simulate_batch(majority_crn, inits, SimConfig(seed=0), rng)
        assert all(r is StopReason.TERMINAL for r in out.stop_reasons)
        totals = out.final_states.sum(axis=1)
        assert (totals == 21).all()
        assert (out.final_states.min(axis=1) == 0).all()

    def test_overflow_carries_reaction_index(self):
        crn = make_crn([
            ({"X": 1}, {"Y": 1}, 1.0),
            ({"X": 3}, {"Y": 3}, 1e308),
        ])
        rng = XoshiroBatch(np.arange(2, dtype=np.uint64))
        inits = np.tile(crn.species.state_from({"X": 10**6}), (2, 1))
        with pytest.raises(NumericOverflowError) as err:
            simulate_batch(crn, inits, SimConfig(seed=0), rng)
        assert err.value.reaction_index == 1

    def test_overflow_names_first_lane_and_reaction(self):
        # lane 1 of 3 overflows in reaction 1 only through its own rate
        crn = make_crn([
            ({"X": 1}, {"Y": 1}, 1.0),
            ({"X": 2}, {"Y": 2}, 1.0),
        ])
        rng = XoshiroBatch(np.arange(3, dtype=np.uint64))
        inits = np.tile(crn.species.state_from({"X": 10}), (3, 1))
        rates = np.array([[1.0, 1.0], [1.0, 1e308], [1.0, 0.0]])
        with pytest.raises(NumericOverflowError) as err:
            simulate_batch(crn, inits, SimConfig(seed=0), rng, rates=rates)
        assert err.value.reaction_index == 1
        assert err.value.lane == 1
        assert str(err.value) == "trial 1: non-finite propensity in reaction 1"

    def test_overflow_error_survives_pickling(self):
        # a worker process sends its error back pickled
        err = pickle.loads(pickle.dumps(NumericOverflowError(
            2, "trial 5: non-finite propensity in reaction 2", lane=5)))
        assert (err.reaction_index, err.lane) == (2, 5)
        assert str(err) == "trial 5: non-finite propensity in reaction 2"

    def test_rates_must_match_lanes_and_be_nonnegative(self, majority_crn):
        inits = np.tile(np.array([3, 2], dtype=np.int64), (2, 1))
        for rates in (np.ones((2, 3)), np.array([[1.0, 1.0], [1.0, -1.0]])):
            rng = XoshiroBatch(np.arange(2, dtype=np.uint64))
            with pytest.raises(CrnError):
                simulate_batch(majority_crn, inits, SimConfig(seed=0), rng,
                               rates=rates)

    def test_zero_trials_with_monitor(self, majority_crn):
        rng = XoshiroBatch(np.zeros(0, dtype=np.uint64))
        inits = np.zeros((0, 2), dtype=np.int64)
        out = simulate_batch(majority_crn, inits, SimConfig(seed=0), rng,
                             stop_when_zero=(0, 1))
        assert out.final_states.shape == (0, 2)
        assert out.stop_reasons == [] and out.events.size == 0

    def test_lane_count_must_match(self, majority_crn):
        rng = XoshiroBatch(np.arange(3, dtype=np.uint64))
        inits = np.tile(np.array([3, 2], dtype=np.int64), (4, 1))
        with pytest.raises(Exception):
            simulate_batch(majority_crn, inits, SimConfig(seed=0), rng)
