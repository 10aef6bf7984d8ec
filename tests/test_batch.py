"""The batch engine must reproduce the scalar engine trial for trial."""

import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crngame import Crn, SimConfig, StopReason, batch, make_crn
from crngame.batch import simulate_batch
from crngame.core import NumericOverflowError
from crngame.rng import Xoshiro256, XoshiroBatch, child_seed
from crngame.ssa import _core_loop


def scalar_reference(crn, initial, config, seeds, watch=()):
    finals, reasons, events, elapsed = [], [], [], []
    for seed in seeds:
        res = _core_loop(crn, initial, config, Xoshiro256(seed), watch)
        finals.append(res.final_state)
        reasons.append(res.stop_reason)
        events.append(res.events)
        elapsed.append(res.elapsed)
    return (np.array(finals), reasons, np.array(events), np.array(elapsed))


def assert_batch_matches_scalar(crn, initial, config, trials, watch=()):
    """Batch lanes must equal scalar runs, trial for trial."""
    seeds = [child_seed(config.seed, j) for j in range(trials)]
    rng = XoshiroBatch(np.array(seeds, dtype=np.uint64))
    inits = np.tile(initial, (trials, 1))
    out = simulate_batch(crn, inits, config, rng, stop_when_zero=watch)
    finals, reasons, events, elapsed = scalar_reference(crn, initial, config, seeds, watch)
    np.testing.assert_array_equal(out.final_states, finals)
    np.testing.assert_array_equal(out.events, events)
    assert out.stop_reasons == reasons
    np.testing.assert_array_equal(out.elapsed, elapsed)


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

    def test_event_ceiling(self, shuffler_crn):
        initial = shuffler_crn.species.state_from({"A": 4, "B": 1})
        assert_batch_matches_scalar(shuffler_crn, initial,
                                    SimConfig(seed=5, max_events=37), 100)

    def test_max_time(self, majority_crn):
        initial = majority_crn.species.state_from({"X": 30, "Y": 20})
        assert_batch_matches_scalar(majority_crn, initial,
                                    SimConfig(seed=23, max_time=0.001), 200)


def assert_untimed_matches_timed(crn, initial, config, trials, watch=()):
    """``times=False`` changes nothing but the elapsed times, which it drops."""
    seeds = np.array([child_seed(config.seed, j) for j in range(trials)],
                     dtype=np.uint64)
    runs = []
    for times in (True, False):
        rng = XoshiroBatch(seeds)
        runs.append((simulate_batch(crn, np.tile(initial, (trials, 1)), config, rng,
                                    stop_when_zero=watch, times=times), rng._state))
    (timed, timed_rng), (untimed, untimed_rng) = runs
    np.testing.assert_array_equal(untimed.final_states, timed.final_states)
    np.testing.assert_array_equal(untimed.events, timed.events)
    assert untimed.stop_reasons == timed.stop_reasons
    np.testing.assert_array_equal(untimed_rng, timed_rng)
    assert untimed.elapsed is None and timed.elapsed is not None
    return timed


class TestUntimed:
    def test_perturbed_game_with_monitor(self, perturbed_game):
        initial = perturbed_game.species.state_from(
            {"X": 24, "Y": 16, "A": 5, "B": 5})
        timed = assert_untimed_matches_timed(perturbed_game, initial,
                                             SimConfig(seed=99), 250, watch=(0, 1))
        assert set(timed.stop_reasons) == {StopReason.EARLY_STOP}

    def test_event_ceiling(self, shuffler_crn):
        initial = shuffler_crn.species.state_from({"A": 4, "B": 1})
        timed = assert_untimed_matches_timed(shuffler_crn, initial,
                                             SimConfig(seed=5, max_events=37), 100)
        assert set(timed.stop_reasons) == {StopReason.EVENT_CEILING}

    def test_terminal(self, majority_crn):
        initial = majority_crn.species.state_from({"X": 30, "Y": 20})
        timed = assert_untimed_matches_timed(majority_crn, initial,
                                             SimConfig(seed=17), 200)
        assert set(timed.stop_reasons) == {StopReason.TERMINAL}

    def test_max_time_still_stops_lanes(self, majority_crn):
        initial = majority_crn.species.state_from({"X": 30, "Y": 20})
        timed = assert_untimed_matches_timed(majority_crn, initial,
                                             SimConfig(seed=23, max_time=0.001), 200)
        assert set(timed.stop_reasons) == {StopReason.TIME_EXHAUSTED,
                                           StopReason.TERMINAL}

    def test_overflowing_lane(self):
        # the crn and lanes of test_overflow_names_the_earliest_event_then_the_lowest_lane
        crn = make_crn([({"X": 1}, {"Y": 1}, 1.0), ({"X": 3}, {"X": 4}, 1.7e308 / 1500)])
        inits = np.array([crn.species.state_from({"X": x}) for x in (10, 2, 13, 13)])
        for lanes, named in ((2, (0, 3, 1)), (4, (2, 0, 1))):
            for times in (True, False):
                with pytest.raises(NumericOverflowError) as err:
                    simulate_batch(crn, inits[:lanes], SimConfig(seed=0, max_events=50),
                                   XoshiroBatch(np.arange(lanes, dtype=np.uint64)),
                                   times=times)
                assert (err.value.lane, err.value.event, err.value.reaction_index) == named


_SPECIES = ("A", "B", "C", "Z")
_side = st.dictionaries(st.sampled_from(_SPECIES[:3]), st.integers(1, 2), max_size=2)
_rate = st.sampled_from([0.25, 1.0, 3.0, 7.5])
# Z starts at 0, so a reaction that needs Z has propensity 0 until one makes Z
_live = st.tuples(_side, _side, _rate).filter(lambda rxn: rxn[0] != rxn[1])
_dead = st.tuples(_side.map(lambda side: {**side, "Z": 1}), _side, _rate)


@st.composite
def _small_crns(draw):
    """A CRN of up to 6 reactions over (A, B, C, Z), at least one needing Z."""
    live = draw(st.lists(_live, min_size=1, max_size=4))
    dead = draw(st.lists(_dead, min_size=1, max_size=6 - len(live)))
    # a CRN lists no reaction twice
    unique = {(tuple(sorted(r.items())), tuple(sorted(p.items())), k): (r, p, k)
              for r, p, k in live + dead}
    return make_crn(draw(st.permutations(list(unique.values()))),
                    species_order=_SPECIES)


class TestRandomCrns:
    @settings(max_examples=100, deadline=None)
    @given(crn=_small_crns(),
           counts=st.lists(st.integers(0, 12), min_size=3, max_size=3),
           seed=st.integers(0, 2**64 - 1), max_events=st.integers(1, 150))
    def test_lanes_equal_scalar(self, crn, counts, seed, max_events):
        # zero propensities sit anywhere in the running sum, so it repeats
        # values where the fired reaction is chosen
        initial = np.array(counts + [0], dtype=np.int64)
        assert_batch_matches_scalar(crn, initial,
                                    SimConfig(seed=seed, max_events=max_events), 6)


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
        # trials absorb at different steps; each lane keeps its own row
        rng = XoshiroBatch(np.arange(64, dtype=np.uint64))
        inits = np.tile(np.array([12, 9], dtype=np.int64), (64, 1))
        out = simulate_batch(majority_crn, inits, SimConfig(seed=0), rng)
        assert all(r is StopReason.TERMINAL for r in out.stop_reasons)
        totals = out.final_states.sum(axis=1)
        assert (totals == 21).all()
        assert (out.final_states.min(axis=1) == 0).all()

    def test_symmetric_start_splits_evenly(self, majority_crn):
        # from X = Y = 2, X takes over in about half the trials
        trials = 10000
        rng = XoshiroBatch([child_seed(11, j) for j in range(trials)])
        inits = np.tile(majority_crn.species.state_from({"X": 2, "Y": 2}), (trials, 1))
        out = simulate_batch(majority_crn, inits, SimConfig(seed=11), rng)
        x_wins = int((out.final_states[:, 0] == 4).sum())
        sigma = math.sqrt(0.25 / trials)
        assert abs(x_wins / trials - 0.5) <= 3 * sigma

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
        # 2X -> 2Y at 1e308 overflows at X = 10, which only lane 1 starts with
        crn = make_crn([
            ({"X": 1}, {"Y": 1}, 1.0),
            ({"X": 2}, {"Y": 2}, 1e308),
        ])
        rng = XoshiroBatch(np.arange(3, dtype=np.uint64))
        inits = np.array([crn.species.state_from({"X": x}) for x in (1, 10, 1)])
        with pytest.raises(NumericOverflowError) as err:
            simulate_batch(crn, inits, SimConfig(seed=0), rng)
        assert err.value.reaction_index == 1
        assert (err.value.lane, err.value.event) == (1, 0)
        assert str(err.value) == "trial 1: non-finite propensity in reaction 1"

    def test_overflow_names_the_earliest_event_then_the_lowest_lane(self):
        # 3X -> 4X grows X by one per event; at rate k the exit rate is
        # finite at X = 10, 11, 12 and overflows at X = 13, so lane 0
        # overflows after three events, lane 1 (X = 2) never, and lanes 2
        # and 3 at event 0
        crn = make_crn([({"X": 1}, {"Y": 1}, 1.0), ({"X": 3}, {"X": 4}, 1.7e308 / 1500)])
        inits = np.array([crn.species.state_from({"X": x}) for x in (10, 2, 13, 13)])
        config = SimConfig(seed=0, max_events=50)
        with pytest.raises(NumericOverflowError) as alone:
            simulate_batch(crn, inits[:2], config,
                           XoshiroBatch(np.arange(2, dtype=np.uint64)))
        assert (alone.value.lane, alone.value.event) == (0, 3)
        with pytest.raises(NumericOverflowError) as err:
            simulate_batch(crn, inits, config,
                           XoshiroBatch(np.arange(4, dtype=np.uint64)))
        assert (err.value.lane, err.value.event, err.value.reaction_index) == (2, 0, 1)
        assert str(err.value) == "trial 2: non-finite propensity in reaction 1"

    def test_overflow_of_only_the_sum_says_so(self):
        # each propensity is 1e308, their sum is not finite
        crn = make_crn([({"X": 1}, {"Y": 1}, 1e308), ({"X": 1}, {"Z": 1}, 1e308)])
        inits = np.tile(crn.species.state_from({"X": 1}), (2, 1))
        with pytest.raises(NumericOverflowError) as err:
            simulate_batch(crn, inits, SimConfig(seed=0),
                           XoshiroBatch(np.arange(2, dtype=np.uint64)))
        assert (err.value.reaction_index, err.value.lane) == (-1, 0)
        assert str(err.value) == "trial 0: non-finite propensity sum"

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


@pytest.fixture
def source_copy(tmp_path, monkeypatch):
    """The kernel source copied into an empty directory, and made the one to load."""
    source = tmp_path / "_lanes.c"
    shutil.copy(batch._SOURCE, source)
    monkeypatch.setattr(batch, "_SOURCE", source)
    return source


class TestKernelBuild:
    def test_cache_name_follows_the_source(self, source_copy):
        first = Path(batch._load_kernel()._name)
        source_copy.write_text(source_copy.read_text() + "\n/* edited */\n")
        second = Path(batch._load_kernel()._name)
        assert first.parent == second.parent == source_copy.parent / "__pycache__"
        assert first.name.startswith("_lanes.") and first.suffix == ".so"
        assert first != second and first.exists() and second.exists()
        assert Path(batch._load_kernel()._name) == second

    def test_unwritable_cache_still_loads(self, source_copy, monkeypatch,
                                          majority_crn):
        # a file where the cache directory should be: nothing can be written there
        (source_copy.parent / "__pycache__").write_text("")
        lib = batch._load_kernel()
        assert not Path(lib._name).is_relative_to(source_copy.parent)
        inits = np.tile(np.array([12, 9], dtype=np.int64), (20, 1))
        runs = []
        for run_lanes in (batch._run_lanes, lib.crngame_run_lanes):
            monkeypatch.setattr(batch, "_run_lanes", run_lanes)
            runs.append(simulate_batch(majority_crn, inits, SimConfig(seed=0),
                                       XoshiroBatch(np.arange(20, dtype=np.uint64))))
        np.testing.assert_array_equal(runs[0].final_states, runs[1].final_states)
        np.testing.assert_array_equal(runs[0].elapsed, runs[1].elapsed)

    def test_failed_build_shows_command_and_compiler_output(self, source_copy):
        source_copy.write_text("this is not C\n")
        with pytest.raises(RuntimeError) as err:
            batch._load_kernel()
        assert str(source_copy) in str(err.value) and "-ffp-contract=off" in str(err.value)
        assert "error" in str(err.value).split("\n", 1)[1]

    def test_missing_compiler_is_an_error(self, source_copy, monkeypatch):
        monkeypatch.setattr(batch.sysconfig, "get_config_var",
                            lambda name: "no-such-compiler-cc")
        with pytest.raises(RuntimeError, match="no-such-compiler-cc"):
            batch._load_kernel()
        assert list((source_copy.parent / "__pycache__").iterdir()) == []
