"""The batch engine must reproduce the scalar engine trial for trial."""

import copy
import math
import os
import platform
import shlex
import shutil
import subprocess
import sysconfig
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crngame import (ConstantCount, Crn, Player, Reaction, SimConfig, SpeciesTable,
                     StopReason, TakeoverSuccess, batch, compose, make_crn)
from crngame.batch import simulate_batch
from crngame.config import load_config
from crngame.core import MAX_COUNT, CountOverflowError, NumericOverflowError
from crngame.data import path as data_path
from crngame.game import _Arm, _condition_arms, _run_pool, sample_initial_states
from crngame.rng import Xoshiro256, XoshiroBatch, child_seed
from crngame.ssa import _core_loop, simulate


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


def _terms(side):
    """A reaction side as species index -> count over ``_SPECIES``."""
    return {_SPECIES.index(name): c for name, c in side.items()}


@st.composite
def _small_crns(draw):
    """A CRN of up to 6 reactions over (A, B, C, Z), at least one needing Z."""
    live = draw(st.lists(_live, min_size=1, max_size=4))
    dead = draw(st.lists(_dead, min_size=1, max_size=6 - len(live)))
    # a CRN lists no reaction twice
    unique = {(tuple(sorted(r.items())), tuple(sorted(p.items())), k): (r, p, k)
              for r, p, k in live + dead}
    return Crn(SpeciesTable(_SPECIES),
               [Reaction(_terms(r), _terms(p), k)
                for r, p, k in draw(st.permutations(list(unique.values())))])


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


def assert_lanes_equal_scalar(crn, inits, config, seeds, watch=(), times=True):
    """Each lane must equal its scalar run, its stream after the call included."""
    rng = XoshiroBatch(np.array(seeds, dtype=np.uint64))
    out = simulate_batch(crn, inits, config, rng, stop_when_zero=watch, times=times)
    for j, seed in enumerate(seeds):
        stream = Xoshiro256(seed)
        res = _core_loop(crn, inits[j], config, stream, watch)
        np.testing.assert_array_equal(out.final_states[j], res.final_state)
        assert (out.stop_reasons[j], out.events[j]) == (res.stop_reason, res.events)
        if times:
            assert out.elapsed[j] == res.elapsed
        assert rng._state[:, j].tolist() == [stream._s0, stream._s1, stream._s2, stream._s3]
    return out


def _game_inits(game, lanes):
    """Initial states of the perturbed game that differ from lane to lane."""
    return np.array([game.species.state_from({"X": 30 + j % 7, "Y": 26 + j % 5,
                                              "A": 2 + j % 3, "B": 4})
                     for j in range(lanes)], dtype=np.int64).reshape(lanes, 4)


class TestKernelEdges:
    """Lane counts and stops around the kernel's slots, against scalar runs."""

    @pytest.mark.parametrize("lanes", [0, 1, 7, 8, 9, 19])
    @pytest.mark.parametrize("times", [True, False])
    def test_lane_counts(self, perturbed_game, lanes, times):
        out = assert_lanes_equal_scalar(
            perturbed_game, _game_inits(perturbed_game, lanes),
            SimConfig(seed=4, max_events=60), [child_seed(4, j) for j in range(lanes)],
            watch=(0, 1), times=times)
        if lanes == 19:
            assert set(out.stop_reasons) == {StopReason.EARLY_STOP,
                                             StopReason.EVENT_CEILING}

    def test_lanes_stopping_at_event_zero_among_long_lanes(self, perturbed_game):
        inits = _game_inits(perturbed_game, 19)
        at_start = [0, 3, 7, 8, 9, 10, 18]
        inits[at_start, 1] = 0
        out = assert_lanes_equal_scalar(perturbed_game, inits, SimConfig(seed=6),
                                        [child_seed(6, j) for j in range(19)],
                                        watch=(0, 1))
        assert out.events[at_start].tolist() == [0] * len(at_start)
        assert (np.delete(out.events, at_start) > 20).all()

    def test_terminal_lanes_free_their_slots(self, majority_crn):
        # X = 0 or Y = 0 is terminal at once; X = 1, Y = 1 within a few events
        xs = [0, 1, 30, 30, 30, 1, 30, 30, 30, 0, 30, 30, 1, 30, 30, 30, 30, 30, 0]
        ys = [5, 1, 20, 20, 20, 1, 20, 20, 20, 4, 20, 20, 1, 20, 20, 20, 20, 20, 3]
        inits = np.array([xs, ys], dtype=np.int64).T.copy()
        out = assert_lanes_equal_scalar(majority_crn, inits, SimConfig(seed=2),
                                        [child_seed(2, j) for j in range(19)])
        assert set(out.stop_reasons) == {StopReason.TERMINAL}
        assert out.events[0] == 0 and (out.events[[2, 3, 4]] > 20).all()

    def test_overflowing_lanes_free_their_slots(self):
        # 3X -> 4X overflows at X = 13: at event 0 from 13, after three events
        # from 10; from 2 only X -> Y can fire, so those lanes end terminal
        crn = make_crn([({"X": 1}, {"Y": 1}, 1.0), ({"X": 3}, {"X": 4}, 1.7e308 / 1500)])
        xs = [10, 2, 2, 2, 2, 2, 2, 2, 10, 13, 2, 2, 2, 2, 2, 2, 2, 13, 2]
        inits = np.array([crn.species.state_from({"X": x}) for x in xs])
        seeds = [child_seed(8, j) for j in range(len(xs))]
        rng = XoshiroBatch(np.array(seeds, dtype=np.uint64))
        with pytest.raises(NumericOverflowError) as err:
            simulate_batch(crn, inits, SimConfig(seed=8, max_events=50), rng)
        assert (err.value.lane, err.value.event) == (9, 0)
        overflowed = []
        for j, seed in enumerate(seeds):
            stream = Xoshiro256(seed)
            try:
                _core_loop(crn, inits[j], SimConfig(seed=8, max_events=50), stream)
            except NumericOverflowError:
                overflowed.append(j)
            assert rng._state[:, j].tolist() == [stream._s0, stream._s1, stream._s2,
                                                 stream._s3]
        assert overflowed == [0, 8, 9, 17]

    def test_count_overflow_stops_the_lane_before_its_event(self):
        # 0 -> X takes X from 2^63 - 2 to 2^63 - 1 at event 0; event 1 would
        # pass it, where scalar simulate raises. The lane must not wrap.
        crn = make_crn([({}, {"X": 1}, 1.0), ({"X": 1}, {}, 1e-30)])
        config = SimConfig(seed=7, max_events=3)
        initial = crn.species.state_from({"X": MAX_COUNT - 1})
        with pytest.raises(CountOverflowError) as scalar:
            simulate(crn, initial, config)
        with pytest.raises(CountOverflowError) as err:
            simulate_batch(crn, initial[None, :], config,
                           XoshiroBatch(np.array([7], dtype=np.uint64)))
        assert (err.value.lane, err.value.event, err.value.reaction_index,
                err.value.species) == (0, 1, 0, "X")
        assert str(err.value) == f"trial 0: {scalar.value}" == (
            "trial 0: reaction 0 takes the count of species 'X' above "
            "9223372036854775807")
        # among other lanes, in the wide slots and the width-1 drain: lanes
        # 3 and 12 fail at event 1, lane 5 at event 0, the others run on
        xs = [0] * 19
        xs[3] = xs[12] = MAX_COUNT - 1
        xs[5] = MAX_COUNT
        inits = np.array([[x] for x in xs], dtype=np.int64)
        seeds = [child_seed(7, j) for j in range(19)]
        failing = []
        for j, seed in enumerate(seeds):
            try:
                _core_loop(crn, inits[j], config, Xoshiro256(seed))
            except CountOverflowError:
                failing.append(j)
        assert failing == [3, 5, 12]
        with pytest.raises(CountOverflowError) as err:
            simulate_batch(crn, inits, config, XoshiroBatch(np.array(seeds, dtype=np.uint64)))
        assert (err.value.lane, err.value.event) == (5, 0)

    @pytest.mark.parametrize("times", [True, False])
    def test_lanes_out_of_time_among_other_stops(self, perturbed_game, times):
        inits = _game_inits(perturbed_game, 19)
        inits[[4, 11], 1] = 0
        out = assert_lanes_equal_scalar(perturbed_game, inits,
                                        SimConfig(seed=12, max_time=5e-4, max_events=60),
                                        [child_seed(12, j) for j in range(19)],
                                        watch=(0, 1), times=times)
        assert set(out.stop_reasons) >= {StopReason.TIME_EXHAUSTED,
                                         StopReason.EARLY_STOP}
        assert len(set(out.stop_reasons)) >= 3

    def test_scratch_of_a_large_crn_comes_from_the_caller(self):
        # 10,000 reactions need 640 kB of running sums for a call's eight
        # lanes abreast, more than the 512 KiB stacks of the pool threads
        # here: the kernel must take its scratch from the caller, not from
        # the stack
        n = 10_000
        crn = Crn(SpeciesTable(["X", "Y"]),
                  [Reaction({0: 1, 1: 1}, {0: 2}, 1.0 + i / n) for i in range(n)])
        spec = TakeoverSuccess("X", "Y")
        player = Player(crn, (ConstantCount(30), ConstantCount(20)), spec, "p")
        previous = threading.stack_size(512 * 1024)
        try:
            result = _run_pool([_Arm(compose([player]), 1)], spec, 16,
                               SimConfig(seed=0, max_events=3), workers=2)
        finally:
            threading.stack_size(previous)
        assert result == [(0, 16)]


def _builds_clones() -> bool:
    """Whether the kernel's compiler and platform are x86-64 glibc with GCC >= 12."""
    if platform.libc_ver()[0] != "glibc":
        return False
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    macros = subprocess.run([*compiler, "-dM", "-E", "-x", "c", os.devnull],
                            capture_output=True, text=True).stdout
    defined = dict(line.split()[1:3] for line in macros.splitlines()
                   if len(line.split()) >= 3)
    return ("__x86_64__" in defined and "__clang__" not in defined
            and int(defined.get("__GNUC__", 0)) >= 12)


# undefined behaviour, a signed overflow say, aborts the process
_UBSAN = ("-fsanitize=undefined", "-fno-sanitize-recover=all")


@pytest.fixture(scope="module")
def other_builds(tmp_path_factory):
    """The kernel built with one copy of the lane loop, without its v4 copy,
    and under the undefined-behaviour sanitizer.

    Where the shipped library has a copy per x86-64 level, the first runs
    the default copy and the second, on a host with AVX-512, the v3 copy.
    The sanitized build is left out where its runtime cannot be linked or
    loaded.
    """
    text = batch._SOURCE.read_text()
    assert "CLONES static void run_wide" in text and '"arch=x86-64-v4", ' in text
    builds = {}
    with pytest.MonkeyPatch.context() as patch:
        for name, edited, flags in (
                ("one copy", text.replace("CLONES static void run_wide",
                                          "static void run_wide"), batch._FLAGS),
                ("no v4 copy", text.replace('"arch=x86-64-v4", ', ""), batch._FLAGS),
                ("ubsan", text, batch._FLAGS + _UBSAN)):
            source = tmp_path_factory.mktemp("lanes") / "_lanes.c"
            source.write_text(edited)
            patch.setattr(batch, "_SOURCE", source)
            patch.setattr(batch, "_FLAGS", flags)
            try:
                builds[name] = batch._load_kernel().crngame_run_lanes
            except (RuntimeError, OSError):
                if name != "ubsan":
                    raise
    return builds


class TestKernelEdgesInOtherBuilds(TestKernelEdges):
    """The edge cases, each against scalar runs, in the other builds of the kernel."""

    @pytest.fixture(autouse=True, params=["one copy", "no v4 copy", "ubsan"])
    def build(self, request, other_builds, monkeypatch):
        if request.param not in other_builds:
            pytest.skip("the undefined-behaviour sanitizer's runtime is not available")
        monkeypatch.setattr(batch, "_run_lanes", other_builds[request.param])


class TestKernelCopies:
    """Each copy of the lane loop gives the same bits as the shipped library."""

    def assert_copies_agree(self, builds, monkeypatch, crn, inits, config, streams,
                            watch=()):
        runs = []
        for run_lanes in (batch._run_lanes, *builds.values()):
            monkeypatch.setattr(batch, "_run_lanes", run_lanes)
            rng = copy.deepcopy(streams)
            out = simulate_batch(crn, inits, config, rng, stop_when_zero=watch)
            runs.append((out.final_states.tobytes(), out.events.tobytes(),
                         out.stop_reasons, out.elapsed.tobytes(), rng._state.tobytes()))
        assert runs[1:] == runs[:1] * len(builds)

    def test_sweep_n1000_d0_arms(self, other_builds, monkeypatch):
        # both arms of the default sweep's d = 0 condition at n = 1000, most
        # of whose events are nature's shuffles
        config = load_config(data_path("default_sweep.ini"))
        spec = config.main_player().utility
        arms = _condition_arms(config.main_player(), tuple(config.opponent_players()),
                               config.conditions()[0], 0, config.sim_config())
        for arm in arms:
            rng = XoshiroBatch(np.array([child_seed(arm.seed, j) for j in range(500)],
                                        dtype=np.uint64))
            inits = sample_initial_states(arm.game, rng)
            watch = (arm.game.species_index(spec.x_species),
                     arm.game.species_index(spec.y_species))
            self.assert_copies_agree(other_builds, monkeypatch, arm.game.crn, inits,
                                     config.sim_config(), rng, watch)

    def test_shipped_library_has_the_v4_copy(self):
        if not _builds_clones():
            pytest.skip("one copy of the lane loop: not x86-64 glibc with GCC >= 12")
        assert b"run_wide.arch_x86_64_v4\0" in Path(batch._kernel._name).read_bytes()
