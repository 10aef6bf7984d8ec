import math

import numpy as np
import pytest

from crngame import (
    Crn,
    CrnError,
    NumericOverflowError,
    SimConfig,
    StopReason,
    make_crn,
    simulate,
)
from crngame.batch import simulate_batch
from crngame.cli import main
from crngame.core import MAX_COUNT, ConfigError
from crngame.rng import Xoshiro256, XoshiroBatch
from crngame.ssa import HARD_EVENT_GUARD, _core_loop


def state_of(crn, **counts):
    return crn.species.state_from(counts)


def recorded(crn, initial, config, stop_when_zero=()):
    """simulate's result and its events as (time, sojourn, index, state copy)."""
    events = []

    def on_event(t, sojourn, reaction_index, counts):
        events.append((t, sojourn, reaction_index, np.array(counts)))

    return simulate(crn, initial, config, stop_when_zero, on_event), events


def step(crn, state, volume, rng):
    """The one event of a ``max_events=1`` run on ``rng``, or None if it is terminal.

    Returns ``(sojourn, reaction_index, resulting_state)``.
    """
    fired = []
    result = _core_loop(crn, state, SimConfig(volume, max_events=1), rng,
                        on_event=lambda t, sojourn, j, counts: fired.append((sojourn, j)))
    return (*fired[0], result.final_state) if fired else None


class TestStep:
    def test_forced_jump(self, majority_crn):
        # at (2, 1) only 2X+Y->3X is applicable (rates 2 and 0)
        rng = Xoshiro256(5)
        sojourn, index, new_state = step(majority_crn,
                                         state_of(majority_crn, X=2, Y=1), 1.0, rng)
        assert index == 0
        assert new_state.tolist() == [3, 0]
        assert sojourn > 0.0

    def test_terminal_state_returns_none(self, majority_crn):
        rng = Xoshiro256(5)
        assert step(majority_crn, state_of(majority_crn, X=5, Y=0), 1.0, rng) is None

    def test_symmetric_choice_frequencies(self, majority_crn):
        # both reactions have rate 4 at (2, 2); selection should be ~50/50
        rng = Xoshiro256(13)
        s = state_of(majority_crn, X=2, Y=2)
        picks = [step(majority_crn, s, 1.0, rng)[1]
                 for _ in range(4000)]
        frac = sum(picks) / len(picks)
        assert abs(frac - 0.5) < 4 * 0.5 / math.sqrt(len(picks))

    def test_sojourn_scales_with_rate(self, majority_crn):
        # mean sojourn at total rate 18 should be near 1/18
        rng = Xoshiro256(3)
        s = state_of(majority_crn, X=3, Y=2)
        sojourns = [step(majority_crn, s, 1.0, rng)[0]
                    for _ in range(20000)]
        mean = sum(sojourns) / len(sojourns)
        assert abs(mean - 1 / 18) < 4 * (1 / 18) / math.sqrt(len(sojourns))

    @pytest.mark.parametrize("counts", [
        dict(X=4, Y=3, A=1, B=1), dict(X=2, Y=5, A=0, B=2),
        dict(X=4, Y=1, A=1, B=0), dict(X=5, Y=0, A=0, B=0),
    ], ids=lambda counts: "".join(f"{n}{c}" for n, c in counts.items()))
    @pytest.mark.parametrize("volume", [1.0, 2.5])
    def test_steps_are_the_events_of_simulate(self, counts, volume):
        # steps on one stream walk the trajectory simulate takes on its own
        # stream with that seed, and return None where simulate stops TERMINAL
        crn = make_crn([
            ({"X": 2, "Y": 1, "A": 1}, {"X": 3, "A": 1}, 1.0),
            ({"X": 1, "Y": 2, "B": 1}, {"Y": 3, "B": 1}, 1.0),
            ({"A": 1}, {"B": 1}, 0.5),
        ])
        start = crn.species.state_from(counts)
        for seed in range(6):
            result, events = recorded(crn, start,
                                      SimConfig(volume, max_events=25, seed=seed))
            rng = Xoshiro256(seed)
            state = start
            for _, sojourn, index, resulting in events:
                stepped_sojourn, stepped_index, state = step(crn, state, volume, rng)
                assert stepped_sojourn == sojourn
                assert stepped_index == index
                assert state.tolist() == resulting.tolist()
            if result.stop_reason is StopReason.TERMINAL:
                assert step(crn, state, volume, rng) is None


class TestSimulate:
    def test_certain_absorption_from_4_1(self, majority_crn):
        # only 2X+Y->3X applies at (4,1); (5,0) is terminal
        for seed in range(20):
            res = simulate(majority_crn, state_of(majority_crn, X=4, Y=1),
                           SimConfig(seed=seed))
            assert res.final_state.tolist() == [5, 0]
            assert res.stop_reason is StopReason.TERMINAL
            assert res.events == 1

    def test_empty_crn_is_immediately_terminal(self):
        res = simulate(Crn.empty(), np.zeros(0, dtype=np.int64), SimConfig(seed=1))
        assert res.events == 0
        assert res.stop_reason is StopReason.TERMINAL
        assert res.elapsed == 0.0

    def test_reproducible_for_fixed_seed(self, majority_crn):
        s = state_of(majority_crn, X=30, Y=25)
        a = simulate(majority_crn, s, SimConfig(seed=77))
        b = simulate(majority_crn, s, SimConfig(seed=77))
        assert a.final_state.tolist() == b.final_state.tolist()
        assert a.events == b.events
        assert a.elapsed == b.elapsed

    def test_max_time_stops_without_executing_pending_reaction(self, majority_crn):
        s = state_of(majority_crn, X=30, Y=25)
        full = simulate(majority_crn, s, SimConfig(seed=9))
        cutoff = full.elapsed / 2
        res = simulate(majority_crn, s, SimConfig(seed=9, max_time=cutoff))
        assert res.stop_reason is StopReason.TIME_EXHAUSTED
        assert res.elapsed == cutoff
        assert res.events < full.events
        # the trajectory prefix matches the unbounded run
        _, full_events = recorded(majority_crn, s, SimConfig(seed=9))
        _, cut_events = recorded(majority_crn, s, SimConfig(seed=9, max_time=cutoff))
        assert len(cut_events) == res.events
        for got, want in zip(cut_events, full_events):
            assert got[2] == want[2]  # reaction index
            assert got[1] == want[1]  # sojourn

    def test_event_ceiling_reported_not_raised(self, majority_crn):
        s = state_of(majority_crn, X=30, Y=25)
        res = simulate(majority_crn, s, SimConfig(seed=9, max_events=3))
        assert res.stop_reason is StopReason.EVENT_CEILING
        assert res.events == 3

    def test_hard_guard_for_nonterminating_crn(self):
        assert SimConfig(seed=1).event_ceiling == HARD_EVENT_GUARD
        assert SimConfig(seed=1, max_events=10).event_ceiling == 10

    def test_max_events_at_most_int64(self):
        # the lane kernel's event ceiling is an int64
        assert SimConfig(max_events=MAX_COUNT).event_ceiling == MAX_COUNT
        for too_many in (MAX_COUNT + 1, 2**64):
            with pytest.raises(CrnError) as err:
                SimConfig(max_events=too_many)
            assert str(err.value) == "max_events must be at most 9223372036854775807"

    def test_seed_is_a_64_bit_word(self):
        # a wider or negative seed would wrap onto another seed's streams
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            assert SimConfig(seed=seed).seed == seed
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError) as err:
                SimConfig(seed=seed)
            assert str(err.value) == "seed must be between 0 and 18446744073709551615"

    @pytest.mark.parametrize("kwargs", [dict(volume=0.0), dict(max_time=-1.0),
                                        dict(max_events=0), dict(seed=-1),
                                        dict(volume=float("inf"))])
    def test_every_bad_setting_is_a_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)

    def test_nonterminating_crn_truncates(self, shuffler_crn):
        s = state_of(shuffler_crn, A=3, B=2)
        res = simulate(shuffler_crn, s, SimConfig(seed=4, max_events=500))
        assert res.stop_reason is StopReason.EVENT_CEILING
        assert res.events == 500
        assert res.final_state.sum() == 5

    def test_zero_count_monitor_stops_early(self, majority_crn):
        s = state_of(majority_crn, X=6, Y=3)
        res = simulate(majority_crn, s, SimConfig(seed=8), stop_when_zero=(0, 1))
        assert res.stop_reason is StopReason.EARLY_STOP
        assert res.final_state.min() == 0

    def test_monitor_trips_on_initial_state(self, majority_crn):
        s = state_of(majority_crn, X=6, Y=0)
        res = simulate(majority_crn, s, SimConfig(seed=8), stop_when_zero=(0, 1))
        assert res.stop_reason is StopReason.EARLY_STOP
        assert res.events == 0

    @pytest.mark.parametrize("reactions, x, index, text", [
        # 3X -> 3Y overflows at X = 10
        ([({"X": 1}, {"Y": 1}, 1.0), ({"X": 3}, {"Y": 3}, 1e308)], 10, 1,
         "non-finite propensity in reaction 1"),
        # each propensity is 1e308 at X = 1; only their sum is not finite
        ([({"X": 1}, {"Y": 1}, 1e308), ({"X": 1}, {"Z": 1}, 1e308)], 1, -1,
         "non-finite propensity sum"),
    ], ids=["one-reaction", "only-the-sum"])
    def test_overflow_names_the_reaction(self, reactions, x, index, text):
        crn = make_crn(reactions)
        with pytest.raises(NumericOverflowError) as err:
            simulate(crn, state_of(crn, X=x), SimConfig(seed=1))
        assert err.value.reaction_index == index
        assert str(err.value) == text


class TestObservers:
    """The on_event callback, and the dump the simulate command writes with it."""

    def test_each_event_seen_exactly_once(self, majority_crn):
        s = state_of(majority_crn, X=12, Y=9)
        res, events = recorded(majority_crn, s, SimConfig(seed=2))
        assert len(events) == res.events
        times = [t for t, _, _, _ in events]
        assert times == sorted(set(times))
        # the last event is the one the run stopped on
        assert times[-1] == res.elapsed
        assert events[-1][3].tolist() == res.final_state.tolist()

    def test_recorder_conserves_population(self, majority_crn):
        s = state_of(majority_crn, X=12, Y=9)
        _, events = recorded(majority_crn, s, SimConfig(seed=2))
        assert events
        for _, _, _, state in events:
            assert state.sum() == 21

    def test_dump_format(self, majority_crn, capsys):
        # pkg:r.crn is majority_crn; the dump is one line per simulate event
        s = state_of(majority_crn, X=3, Y=2)
        res, events = recorded(majority_crn, s, SimConfig(seed=6))
        assert main(["simulate", "pkg:r.crn", "--init", "X=3", "--init", "Y=2",
                     "--seed", "6", "--dump", "-"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "#\tX\tY"
        assert len(lines) == 1 + res.events + 5  # the five summary lines
        previous_time = 0.0
        for line, (t, _, index, state) in zip(lines[1:], events):
            cells = line.split("\t")
            assert len(cells) == 2 + 2
            assert float(cells[0]) == t > previous_time
            previous_time = t
            assert int(cells[1]) == index in (0, 1)
            assert [int(c) for c in cells[2:]] == state.tolist()
            assert int(cells[2]) + int(cells[3]) == 5


@pytest.mark.parametrize("engine", ["scalar", "batch"])
@pytest.mark.parametrize("watch", [(2,), (-1,), (0, 7)])
def test_stop_when_zero_rejects_bad_indices(majority_crn, engine, watch):
    # a negative index must not wrap around to the last species
    initial = state_of(majority_crn, X=3, Y=2)
    config = SimConfig(seed=1)
    with pytest.raises(CrnError, match="stop_when_zero names a species index"):
        if engine == "scalar":
            simulate(majority_crn, initial, config, stop_when_zero=watch)
        else:
            simulate_batch(majority_crn, initial[None, :], config,
                           XoshiroBatch(np.array([1], dtype=np.uint64)),
                           stop_when_zero=watch)
