import copy
import math
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from crngame import (
    Condition,
    ConditionResult,
    ConstantCount,
    Crn,
    Indifferent,
    Player,
    Reaction,
    SimConfig,
    SpeciesTable,
    StopReason,
    TakeoverSuccess,
    UniformCount,
    catalytic_violations,
    compose,
    make_crn,
    sample_initial_state,
    simulate,
)
from crngame.core import MAX_COUNT, ConfigError, CountOverflowError, NumericOverflowError
import crngame.game as game_module
from crngame.game import (
    _CONCLUSIVE,
    _Arm,
    _condition_arms,
    _estimate,
    _run_pool,
    estimate_conditions,
    robustness_report,
    sample_initial_states,
)
from crngame.rng import Xoshiro256, XoshiroBatch, child_seed


def player_for(crn, counts=None, utility=None, name="p"):
    counts = counts or {}
    dist = tuple(ConstantCount(counts.get(n, 0)) for n in crn.species.names)
    return Player(crn, dist, utility or Indifferent(), name)


def pool_estimate(game, trials, config, workers=1):
    """Player 0's estimate on ``game`` as a one-arm lane pool seeded by ``config``."""
    [result] = _run_pool([_Arm(game, config.seed)], game.players[0].utility, trials,
                         config, workers)
    if isinstance(result, NumericOverflowError):
        raise result
    return _estimate(*result, trials, 0.99)


@pytest.fixture
def consensus_player(catalyzed_crn):
    return player_for(catalyzed_crn,
                      {"X": 5120, "Y": 4880, "A": 100, "B": 100},
                      TakeoverSuccess("X", "Y"), "main")


@pytest.fixture
def nature_player(shuffler_crn):
    return player_for(shuffler_crn, {}, Indifferent(), "nature")


def scalar_counts(game, trials, config):
    """(successes, truncations) of player 1, from scalar runs on child_seed streams."""
    spec = game.players[0].utility
    table = game.crn.species
    watched = (table.index_of(spec.x_species), table.index_of(spec.y_species))
    successes = truncated = 0
    for j in range(trials):
        stream = child_seed(config.seed, j)
        initial = sample_initial_state(game, Xoshiro256(stream))
        res = simulate(game.crn, initial, replace(config, seed=stream), watched)
        successes += bool(won(table, initial, res.final_state, res.stop_reason, spec))
        truncated += res.stop_reason not in (StopReason.TERMINAL,
                                             StopReason.EARLY_STOP)
    return successes, truncated


def won(table, initial, final, reason, spec=TakeoverSuccess("X", "Y")):
    """:meth:`TakeoverSuccess.succeeded` for one trial of a takeover utility."""
    return spec.succeeded(table, initial, final, reason in _CONCLUSIVE)


class TestCompose:
    def test_catalysts_couple_the_players(self, consensus_player, nature_player):
        game = compose([consensus_player, nature_player])
        assert game.crn.species.names == ("X", "Y", "A", "B")
        assert len(game.crn.reactions) == 4

    def test_union_with_trivial_is_identity(self, consensus_player):
        game = compose([consensus_player, Player.trivial()])
        assert game.crn == consensus_player.strategy

    def test_union_of_identical_crns_merges(self, consensus_player):
        clone = player_for(consensus_player.strategy, {}, Indifferent(), "clone")
        game = compose([consensus_player, clone])
        assert game.crn == consensus_player.strategy

    def test_commutative_up_to_table_order(self, consensus_player, nature_player):
        ab = compose([consensus_player, nature_player])
        ba = compose([nature_player, consensus_player])
        assert set(ab.crn.species.names) == set(ba.crn.species.names)

        def normalized(game):
            names = game.crn.species.names
            out = set()
            for rxn in game.crn.reactions:
                r = tuple(sorted((names[i], c) for i, c in rxn.reactants))
                p = tuple(sorted((names[i], c) for i, c in rxn.products))
                out.add((r, p, rxn.rate_constant))
            return out

        assert normalized(ab) == normalized(ba)

    def test_associative_up_to_table_order(self, consensus_player, nature_player):
        third = player_for(make_crn([({"C": 1}, {"D": 1}, 2.0)]), {}, Indifferent(), "t")
        left = compose([consensus_player, nature_player, third])
        right_inner = compose([nature_player, third])
        # flat composition of all three equals composing in any grouping:
        # species and reaction sets agree by name
        assert set(left.crn.species.names) == (
            set(consensus_player.strategy.species.names)
            | set(right_inner.crn.species.names))

    def test_unknown_utility_species_rejected_at_build(self, shuffler_crn):
        bad = player_for(shuffler_crn, {}, TakeoverSuccess("X", "Y"))
        with pytest.raises(ConfigError,
                           match="^utility species 'X' not in the composed game$"):
            compose([bad])

    def test_needs_a_player(self):
        with pytest.raises(ConfigError, match="^a game needs at least one player$"):
            compose([])


class TestSparseReactions:
    """A reaction holds only its terms, whatever the size of the species table."""

    def test_chain_holds_one_term_per_side(self, nature_player):
        n = 3000
        chain = make_crn([({f"S{i}": 1}, {f"S{i + 1}": 1}, 1.0) for i in range(n)])
        game = compose([player_for(chain, {"S0": 1}), nature_player])
        assert len(game.crn.species) == n + 3
        for crn in (chain, game.crn):
            assert [(r.reactants, r.products) for r in crn.reactions[:n]] \
                == [(((i, 1),), ((i + 1, 1),)) for i in range(n)]
        assert [(r.reactants, r.products) for r in game.crn.reactions[n:]] \
            == [(((n + 1, 1),), ((n + 2, 1),)), (((n + 2, 1),), ((n + 1, 1),))]

        start = sample_initial_state(game, Xoshiro256(0))
        result = simulate(game.crn, start, SimConfig(seed=1, max_events=3))
        assert result.events == 3
        assert result.stop_reason is StopReason.EVENT_CEILING
        assert np.flatnonzero(start).tolist() == [0]
        assert np.flatnonzero(result.final_state).tolist() == [3]
        assert result.final_state[3] == 1


class TestInitialStates:
    def test_embedded_sum(self, consensus_player, nature_player):
        game = compose([consensus_player, nature_player])
        state = sample_initial_state(game, Xoshiro256(1))
        assert dict(zip(game.crn.species.names, state.tolist())) == {
            "X": 5120, "Y": 4880, "A": 100, "B": 100}

    def test_shared_species_add(self, catalyzed_crn, shuffler_crn):
        a = player_for(catalyzed_crn, {"A": 50}, name="a")
        b = player_for(shuffler_crn, {"A": 50}, name="b")
        game = compose([a, b])
        state = sample_initial_state(game, Xoshiro256(1))
        assert state[game.species_index("A")] == 100

    def test_all_trivial_players_give_zero_vector(self):
        game = compose([Player.trivial("a"), Player.trivial("b")])
        state = sample_initial_state(game, Xoshiro256(1))
        assert state.size == 0

    def test_deterministic_distribution_consumes_no_randomness(self, consensus_player):
        game = compose([consensus_player])
        rng = Xoshiro256(9)
        sample_initial_state(game, rng)
        untouched = Xoshiro256(9)
        assert rng.next_u64() == untouched.next_u64()

    def test_uniform_entries_sample_batch_identically(self, catalyzed_crn):
        dist = (UniformCount(10, 20), ConstantCount(3),
                UniformCount(0, 5), ConstantCount(0))
        player = Player(catalyzed_crn, dist, Indifferent(), "u")
        game = compose([player])
        seeds = np.arange(40, dtype=np.uint64)
        batch = sample_initial_states(game, XoshiroBatch(seeds))
        for j, seed in enumerate(seeds):
            single = sample_initial_state(game, Xoshiro256(int(seed)))
            assert batch[j].tolist() == single.tolist()
        assert batch[:, 0].min() >= 10 and batch[:, 0].max() <= 20
        assert (batch[:, 1] == 3).all()

    def test_shared_species_sums_to_the_largest_count(self, majority_crn):
        # X starts as the sum of both players' counts: MAX_COUNT fits, one more
        # is a composition error, not a wrapped int64
        drain = make_crn([({"X": 1}, {"Z": 1}, 1.0)])
        a = player_for(majority_crn, {"X": MAX_COUNT - 5}, name="a")
        game = compose([a, player_for(drain, {"X": 5}, name="b")])
        x = game.species_index("X")
        assert sample_initial_state(game, Xoshiro256(3))[x] == MAX_COUNT
        batch = sample_initial_states(game, XoshiroBatch(np.arange(4, dtype=np.uint64)))
        assert batch[:, x].tolist() == [MAX_COUNT] * 4
        with pytest.raises(ConfigError, match="^species 'X': .* initial counts must "
                                              "be at most 9223372036854775807$"):
            compose([a, player_for(drain, {"X": 6}, name="b")])

    def test_a_range_counts_at_its_upper_end(self, majority_crn):
        # 2^62 + a draw from [2^62 - 2^52, 2^62] can reach 2^63, past the
        # largest count
        low = 2**62 - 2**52
        wide = Player(majority_crn, (UniformCount(low, 2**62), ConstantCount(0)),
                      name="a")
        fixed = player_for(make_crn([({"X": 1}, {"Z": 1}, 1.0)]), {"X": 2**62}, name="b")
        with pytest.raises(ConfigError, match="^species 'X': .* initial counts must "
                                              "be at most 9223372036854775807$"):
            compose([wide, fixed])
        narrower = replace(wide, initial_distribution=(UniformCount(low, 2**62 - 1),
                                                       ConstantCount(0)))
        assert compose([narrower, fixed]).start == ((0, UniformCount(low, 2**62 - 1)),
                                                    (1, ConstantCount(0)),
                                                    (0, ConstantCount(2**62)),
                                                    (2, ConstantCount(0)))

    def test_a_range_holds_at_most_2_to_the_53_values(self):
        # a draw scales one 53-bit uniform: a wider range would skip values
        with pytest.raises(ConfigError, match=r"^a range may hold at most 2\*\*53 = "
                                              r"9007199254740992 values$"):
            UniformCount(0, 2**53)
        assert UniformCount(0, 2**53 - 1).high == 2**53 - 1


class TestCatalyticValidation:
    def test_consensus_with_shuffler_is_catalytic(self, consensus_player,
                                                  nature_player):
        players = [consensus_player, nature_player]
        assert catalytic_violations(players) == []

    def test_opponent_consuming_shared_species_is_violation(self, majority_crn):
        eater = player_for(make_crn([({"X": 1}, {"W": 1}, 1.0)]), name="eater")
        players = [player_for(majority_crn, name="main"), eater]
        assert catalytic_violations(players) == [
            "species X owned by both player main and player eater"]

    def test_single_player_valid_when_catalysts_conserved(self, catalyzed_crn):
        players = [player_for(catalyzed_crn, name="solo")]
        assert catalytic_violations(players) == []


class TestUtility:
    def test_majority_takeover_scores_one(self, catalyzed_crn):
        table = catalyzed_crn.species
        initial = table.state_from({"X": 5120, "Y": 4880, "A": 100, "B": 100})
        final = table.state_from({"X": 10000, "Y": 0, "A": 100, "B": 100})
        assert won(table, initial, final, StopReason.TERMINAL)

    def test_minority_takeover_scores_zero(self, catalyzed_crn):
        table = catalyzed_crn.species
        initial = table.state_from({"X": 5120, "Y": 4880, "A": 100, "B": 100})
        final = table.state_from({"X": 0, "Y": 10000, "A": 100, "B": 100})
        assert not won(table, initial, final, StopReason.TERMINAL)

    def test_tie_accepts_either_takeover(self, majority_crn):
        table = majority_crn.species
        initial = table.state_from({"X": 5000, "Y": 5000})
        for final_counts in ({"X": 10000}, {"Y": 10000}):
            final = table.state_from(final_counts)
            assert won(table, initial, final, StopReason.TERMINAL)

    def test_truncated_runs_score_zero(self, majority_crn):
        table = majority_crn.species
        initial = table.state_from({"X": 5120, "Y": 4880})
        final = table.state_from({"X": 10000})
        for reason in (StopReason.TIME_EXHAUSTED, StopReason.EVENT_CEILING):
            assert not won(table, initial, final, reason)

    def test_early_stop_counts_as_conclusive(self, majority_crn):
        table = majority_crn.species
        initial = table.state_from({"X": 5120, "Y": 4880})
        final = table.state_from({"X": 10000})
        assert won(table, initial, final, StopReason.EARLY_STOP)

    def test_both_counts_positive_scores_zero(self, majority_crn):
        # a CRN that does not conserve x + y can stop with the winner at the
        # pair's whole start and the loser still positive: no takeover
        table = majority_crn.species
        initial = table.state_from({"X": 5120, "Y": 4880})
        final = table.state_from({"X": 10000, "Y": 5})
        assert not won(table, initial, final, StopReason.TERMINAL)

    def test_loser_at_zero_wins_below_the_whole_start(self, majority_crn):
        table = majority_crn.species
        initial = table.state_from({"X": 3, "Y": 2})
        final = table.state_from({"X": 1})
        assert won(table, initial, final, StopReason.EARLY_STOP)

    def test_start_at_zero_and_zero_scores_zero(self, majority_crn):
        # the tie at 0 and 0 stops at once, and nothing took over
        table = majority_crn.species
        zero = table.state_from({})
        assert not won(table, zero, zero, StopReason.EARLY_STOP)
        player = player_for(majority_crn, {}, TakeoverSuccess("X", "Y"))
        est = pool_estimate(compose([player]), 20, SimConfig(seed=2))
        assert (est.successes, est.truncated) == (0, 0)

    def test_rule_broadcasts_one_start_over_many_states(self, majority_crn):
        table = majority_crn.species
        finals = np.array([[5, 0], [0, 5], [3, 2], [0, 0]])
        spec = TakeoverSuccess("Y", "X")
        assert spec.succeeded(table, table.state_from({"X": 3, "Y": 2}),
                              finals).tolist() == [True, False, False, False]
        assert spec.succeeded(table, table.state_from({"X": 2, "Y": 2}),
                              finals).tolist() == [True, True, False, False]

    def test_stop_set_is_the_pair_in_the_table(self, catalyzed_crn):
        table = catalyzed_crn.species  # X, Y, A, B
        assert TakeoverSuccess("B", "X").stop_set(table) == (3, 0)
        with pytest.raises(ConfigError,
                           match="^utility species 'Z' not in the composed game$"):
            TakeoverSuccess("X", "Z").stop_set(table)

    def test_indifferent_always_zero(self, majority_crn):
        # both arms of every condition score exactly 0, so no ratio exists
        player = player_for(majority_crn, {"X": 1, "Y": 1}, Indifferent())
        conditions = [Condition(f"x{x}", (ConstantCount(x), ConstantCount(5 - x)))
                      for x in (1, 4)]
        report = robustness_report(
            estimate_conditions(player, [], conditions, 50, SimConfig(seed=1),
                                confidence=0.99, workers=1), None)
        for result in report.conditions:
            for arm in (result.with_opponents, result.baseline):
                assert (arm.mean, arm.lower, arm.upper, arm.successes) == (0, 0, 0, 0)
            assert result.ratio is None and result.verdict(None) == "undefined"


class TestEstimation:
    def test_certain_takeover_estimates_to_one(self, majority_crn):
        player = player_for(majority_crn, {"X": 4, "Y": 1},
                            TakeoverSuccess("X", "Y"))
        game = compose([player])
        est = pool_estimate(game, 300, SimConfig(seed=4))
        assert est.mean == 1.0
        assert est.successes == 300

    def test_tie_start_always_takes_over(self, majority_crn):
        player = player_for(majority_crn, {"X": 2, "Y": 2},
                            TakeoverSuccess("X", "Y"))
        game = compose([player])
        est = pool_estimate(game, 500, SimConfig(seed=5))
        assert est.mean == 1.0

    def test_pool_counts_equal_scalar_runs(self, consensus_player):
        # the scalar engine, trial by trial on child_seed(seed, j), against
        # a one-arm pool and against both arms of a condition's pool; the
        # shuffler is fast enough to change most trajectories, so a baseline
        # lane that ran with it would count differently
        nature = player_for(make_crn([({"A": 1}, {"B": 1}, 5e3),
                                      ({"B": 1}, {"A": 1}, 5e3)]), name="nature")
        small = consensus_player.with_counts({"X": 30, "Y": 20, "A": 4, "B": 4})
        config = SimConfig(seed=7, max_events=80)
        game = compose([small, nature])
        est = pool_estimate(game, 150, config)
        assert (est.successes, est.truncated) == scalar_counts(game, 150, config)
        assert 0 < est.truncated and 0 < est.successes < 150 - est.truncated

        # the fourth condition, whose seeds come from condition index 3
        result = estimate_conditions(
            small, [nature], [Condition("d10", small.initial_distribution)] * 4,
            150, config, confidence=0.99, workers=1)[3]
        seed = child_seed(7, 3)
        base = compose([small, Player.trivial("trivial-0")])
        for arm, g, s in ((result.with_opponents, game, child_seed(seed, 0)),
                          (result.baseline, base, child_seed(seed, 1))):
            assert (arm.successes, arm.truncated) == scalar_counts(
                g, 150, replace(config, seed=s))
            assert arm.truncated > 0

    def test_worker_count_does_not_change_estimate(self, consensus_player):
        small = consensus_player.with_counts({"X": 30, "Y": 20, "A": 4, "B": 4})
        game = compose([small])
        one = pool_estimate(game, 200, SimConfig(seed=8), workers=1)
        four = pool_estimate(game, 200, SimConfig(seed=8), workers=4)
        assert one == four

    def test_more_workers_than_trials(self, consensus_player, nature_player):
        # three trials give three one-lane chunks, fewer than the eight workers
        small = consensus_player.with_counts({"X": 30, "Y": 20, "A": 4, "B": 4})
        game = compose([small, nature_player])
        one = pool_estimate(game, 3, SimConfig(seed=9), workers=1)
        eight = pool_estimate(game, 3, SimConfig(seed=9), workers=8)
        assert one == eight

    def test_pool_runs_without_fork(self, consensus_player, nature_player, monkeypatch):
        # spawn-only platforms have no fork; the pool must not need one
        def no_fork():
            raise OSError("fork is unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        small = consensus_player.with_counts({"X": 30, "Y": 20, "A": 4, "B": 4})
        arms = [_Arm(compose([small, nature_player]), 10),
                _Arm(compose([small, Player.trivial()]), 11)]
        assert (_run_pool(arms, small.utility, 40, SimConfig(seed=0), 2)
                == _run_pool(arms, small.utility, 40, SimConfig(seed=0), 1))
        game = arms[0].game
        assert (pool_estimate(game, 40, SimConfig(seed=4), workers=2)
                == pool_estimate(game, 40, SimConfig(seed=4), workers=1))

    def test_a_failing_chunk_stops_the_queued_chunks(self, consensus_player,
                                                     monkeypatch):
        # an error (or Ctrl-C) in one chunk must not run the rest of the sweep
        started = []
        lock = threading.Lock()
        original = game_module.simulate_batch

        def flaky(*args, **kwargs):
            with lock:
                started.append(1)
                first = len(started) == 1
            if first:
                raise RuntimeError("first chunk fails")
            time.sleep(0.05)
            return original(*args, **kwargs)

        monkeypatch.setattr(game_module, "simulate_batch", flaky)
        monkeypatch.setattr(game_module, "_SLICE_LANES", 1)
        game = compose([consensus_player.with_counts({"X": 30, "Y": 20, "A": 4, "B": 4})])
        with pytest.raises(RuntimeError, match="first chunk fails"):
            pool_estimate(game, 40, SimConfig(seed=5), workers=2)
        assert 1 <= len(started) < 10

    def test_slices_do_not_change_the_counts(self, consensus_player, nature_player,
                                             monkeypatch):
        # chunks of at most 7 lanes cut each arm's 40 trials at several
        # offsets; each arm must still count as it does alone
        small = consensus_player.with_counts({"X": 30, "Y": 20, "A": 4, "B": 4})
        arms = [_Arm(compose([small, nature_player]), 10),
                _Arm(compose([small, Player.trivial()]), 11)]
        whole = _run_pool(arms, small.utility, 40, SimConfig(seed=0), 1)
        monkeypatch.setattr(game_module, "_SLICE_LANES", 7)
        for workers in (1, 2, 3):
            assert _run_pool(arms, small.utility, 40, SimConfig(seed=0),
                             workers) == whole
        for arm, (successes, truncated) in zip(arms, whole):
            alone = pool_estimate(arm.game, 40, SimConfig(seed=arm.seed))
            assert (alone.successes, alone.truncated) == (successes, truncated)

    def test_overflow_names_the_same_trial_for_any_slicing(self, monkeypatch):
        # 3X -> 4X overflows once X reaches 13: at event 0 in trials that
        # start at 13, later in the others; every worker count and slice
        # size must name the lowest trial at the earliest event, trial 1
        crn = Crn(SpeciesTable(["X", "Y"]), [Reaction({0: 3}, {0: 4}, 1.7e308 / 1500)])
        player = Player(crn, (UniformCount(10, 13), ConstantCount(5)),
                        TakeoverSuccess("X", "Y"), "p")
        game = compose([player])
        for slice_lanes in (game_module._SLICE_LANES, 7):
            monkeypatch.setattr(game_module, "_SLICE_LANES", slice_lanes)
            for workers in (1, 2, 3):
                with pytest.raises(NumericOverflowError) as err:
                    pool_estimate(game, 12, SimConfig(seed=3), workers=workers)
                assert (err.value.lane, err.value.event) == (1, 0)
                assert str(err.value) == "trial 1: non-finite propensity in reaction 0"

    def test_an_overflowing_arm_leaves_the_others_counted(self, consensus_player):
        # every lane of the second arm overflows at once (two A at 1e308);
        # the first and third arms count as they do alone
        nature = player_for(make_crn([({"A": 1}, {"B": 1}, 1e308)]), name="nature")
        calm, wild = (compose([consensus_player.with_counts(
            {"X": 30, "Y": 20, "A": a, "B": 4}), nature]) for a in (1, 2))
        arms = [_Arm(calm, 1), _Arm(wild, 2), _Arm(calm, 3)]
        one = _run_pool(arms, calm.players[0].utility, 10, SimConfig(seed=0), 1)
        assert one[1].lane == 0
        assert str(one[1]) == "trial 0: non-finite propensity in reaction 2"
        for arm, counts in zip(arms[::2], one[::2]):
            alone = pool_estimate(calm, 10, SimConfig(seed=arm.seed))
            assert counts == (alone.successes, alone.truncated)
        two = _run_pool(arms, calm.players[0].utility, 10, SimConfig(seed=0), 2)
        assert [str(r) for r in two] == [str(r) for r in one]

    def test_pool_threads_never_exceed_the_cpus(self, consensus_player, monkeypatch):
        # two arms of 8 trials at workers=10**6 are 16 one-lane chunks,
        # which would run on 16 threads; with 2 CPUs at most 2 may run
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        ran = set()
        original = game_module.simulate_batch

        def recorded(*args, **kwargs):
            ran.add(threading.get_ident())
            time.sleep(0.02)  # so that chunks overlap
            return original(*args, **kwargs)

        monkeypatch.setattr(game_module, "simulate_batch", recorded)
        small = consensus_player.with_counts({"X": 30, "Y": 20, "A": 4, "B": 4})
        arms = [_Arm(compose([small]), 1), _Arm(compose([small]), 2)]
        many = _run_pool(arms, small.utility, 8, SimConfig(seed=0), 10**6)
        assert 1 <= len(ran) <= 2
        assert many == _run_pool(arms, small.utility, 8, SimConfig(seed=0), 1)

    def test_count_overflow_fails_only_its_condition(self, monkeypatch):
        # 0 -> X takes X past 2^63 - 1 after k events from 2^63 - 1 - k; Y
        # never falls to 0 first. Every trial of the first condition fails,
        # and its error names the lowest trial that starts at 2^63 - 2, at
        # event 1, numbered by arm trial for any thread count and chunk
        # size; the second condition runs to its event ceiling
        crn = make_crn([({}, {"X": 1}, 1.0), ({"Y": 1}, {}, 1e-30)])
        player = Player(crn, (ConstantCount(10), ConstantCount(5)),
                        TakeoverSuccess("X", "Y"), "p")
        near = (UniformCount(MAX_COUNT - 8, MAX_COUNT - 1), ConstantCount(5))
        conditions = [Condition("near", near),
                      Condition("far", player.initial_distribution)]
        config = SimConfig(seed=9, max_events=40)
        with_arm, _ = _condition_arms(player, (), conditions[0], 0, config)
        rng = XoshiroBatch(np.array([child_seed(with_arm.seed, j) for j in range(40)],
                                    dtype=np.uint64))
        starts = sample_initial_states(with_arm.game, rng)[:, 0]
        first = int(np.flatnonzero(starts == MAX_COUNT - 1)[0])
        assert first >= 1  # so that one-lane chunks renumber it
        for slice_lanes in (game_module._SLICE_LANES, 1, 7):
            monkeypatch.setattr(game_module, "_SLICE_LANES", slice_lanes)
            for workers in (1, 2):
                failed, ran = estimate_conditions(player, [], conditions, 40, config,
                                                  confidence=0.99, workers=workers)
                assert isinstance(failed.error, CountOverflowError)
                assert (failed.error.lane, failed.error.event) == (first, 1)
                assert str(failed.error) == (
                    f"trial {first}: reaction 0 takes the count of species 'X' "
                    f"above 9223372036854775807")
                assert ran.error is None
                assert ran.with_opponents.truncated == ran.baseline.truncated == 40

    def test_random_initial_counts_redrawn_per_trial(self, majority_crn):
        dist = (UniformCount(1, 40), ConstantCount(1))
        player = Player(majority_crn, dist, TakeoverSuccess("X", "Y"), "p")
        game = compose([player])
        states = sample_initial_states(
            game, XoshiroBatch(np.arange(200, dtype=np.uint64)))
        assert len(np.unique(states[:, 0])) > 10


class TestRobustness:
    def test_an_empty_opponent_changes_nothing(self, consensus_player):
        # the with-arm beside an empty opponent counts what the baseline game,
        # the player alone, counts from the with-arm's seed
        small = consensus_player.with_counts({"X": 24, "Y": 16, "A": 3, "B": 3})
        config = SimConfig(seed=12)
        [cond] = estimate_conditions(small, [Player.trivial()],
                                     [Condition("d8", small.initial_distribution)],
                                     200, config, confidence=0.99, workers=1)
        alone = _Arm(compose([small]), child_seed(child_seed(12, 0), 0))
        [counts] = _run_pool([alone], small.utility, 200, config, 1)
        assert (cond.with_opponents.successes, cond.with_opponents.truncated) == counts
        assert 0 < counts[0] < 200

    def test_pooled_arms_equal_arms_run_alone(self, consensus_player):
        # every condition and arm in one pool (baseline lanes on the union
        # CRN with the opponent's rate zeroed) against each arm on its own;
        # the opponent turns Y into X, so the two arms differ sharply
        pusher = player_for(make_crn([({"Y": 1}, {"X": 1}, 1e4)]), name="pusher")
        player = consensus_player.with_counts({"A": 4, "B": 4})
        conditions = [
            Condition(f"d{d}", player.with_counts(
                {"X": 25 + d // 2, "Y": 25 - d // 2}).initial_distribution)
            for d in (-6, 0, 6)]
        report = robustness_report(
            estimate_conditions(player, [pusher], conditions, 60,
                                SimConfig(seed=21), confidence=0.99, workers=2), None)
        for ci, (cond, result) in enumerate(zip(conditions, report.conditions)):
            p1 = replace(player, initial_distribution=cond.distribution)
            seed = child_seed(21, ci)
            alone_with = pool_estimate(
                compose([p1, pusher]), 60, SimConfig(seed=child_seed(seed, 0)))
            alone_base = pool_estimate(
                compose([p1, Player.trivial("trivial-0")]), 60,
                SimConfig(seed=child_seed(seed, 1)))
            assert result.with_opponents == alone_with
            assert result.baseline == alone_base
        assert report.conditions[0].with_opponents.successes == 0
        assert report.conditions[0].baseline.successes > 30

    def test_baseline_identity_shared_seed_trajectories(self, consensus_player):
        # composing with the trivial player changes nothing, trajectory by
        # trajectory, under a shared seed
        alone = compose([consensus_player])
        padded = compose([consensus_player, Player.trivial()])
        initial = sample_initial_state(alone, Xoshiro256(0))
        events_a, events_b = [], []
        res_a = simulate(alone.crn, initial, SimConfig(seed=55, max_events=2000),
                         on_event=lambda t, soj, j, counts: events_a.append((j, soj)))
        res_b = simulate(padded.crn, initial, SimConfig(seed=55, max_events=2000),
                         on_event=lambda t, soj, j, counts: events_b.append((j, soj)))
        assert res_a.final_state.tolist() == res_b.final_state.tolist()
        assert len(events_a) == len(events_b)
        # same reaction index and sojourn at every event
        assert events_a == events_b

    def test_opponent_order_does_not_change_utilities(self, consensus_player,
                                                      shuffler_crn):
        slow = player_for(make_crn([
            ({"A": 1}, {"B": 1}, 0.5),
            ({"B": 1}, {"A": 1}, 0.5),
        ]), name="slow")
        fast = player_for(shuffler_crn, name="fast")
        small = consensus_player.with_counts({"X": 24, "Y": 16, "A": 4, "B": 4})
        games = [compose([small, slow, fast]), compose([small, fast, slow])]
        estimates = [pool_estimate(g, 3000, SimConfig(seed=31)) for g in games]
        # same distribution, independent draws: agree within joint 3 sigma
        p = (estimates[0].mean + estimates[1].mean) / 2
        sigma = math.sqrt(2 * p * (1 - p) / 3000)
        assert abs(estimates[0].mean - estimates[1].mean) <= 3 * sigma + 1e-9

    def test_undefined_ratio_flagged(self, majority_crn):
        # (1, 1) is already terminal and is not a takeover of either
        # species, so the baseline scores zero on every trial
        player = player_for(majority_crn, {"X": 1, "Y": 1},
                            TakeoverSuccess("X", "Y"))
        conditions = [Condition("c", player.initial_distribution)]
        report = robustness_report(
            estimate_conditions(player, [Player.trivial()], conditions, 50,
                                SimConfig(seed=2), confidence=0.99, workers=1),
            alpha=0.5)
        [cond] = report.conditions
        assert cond.ratio is None
        assert cond.verdict(report.alpha) == "undefined"
        assert report.verdict == "INCONCLUSIVE"
        assert report.min_ratio is None

    def test_conditions_must_be_nonempty(self, consensus_player):
        with pytest.raises(ConfigError, match="^conditions must be nonempty$"):
            robustness_report(
                estimate_conditions(consensus_player, [], [], 10, SimConfig(seed=1),
                                    confidence=0.99, workers=1),
                None)


def test_baseline_arm_is_the_player_alone(consensus_player, nature_player):
    # the same CRN as the player beside one empty opponent, which draws nothing
    condition = Condition("d", consensus_player.initial_distribution)
    with_arm, base = _condition_arms(consensus_player, (nature_player,), condition, 0,
                                     SimConfig(seed=3))
    assert base.game.players == (consensus_player,)
    assert base.game.crn == compose([consensus_player, Player.trivial()]).crn
    assert with_arm.game.players == (consensus_player, nature_player)


def test_condition_result_holding_an_overflow_deep_copies():
    result = ConditionResult("d", error=CountOverflowError("X", 0, lane=3, event=1))
    clone = copy.deepcopy(result)
    assert type(clone.error) is CountOverflowError
    assert str(clone.error) == str(result.error)
    assert vars(clone.error) == vars(result.error)
