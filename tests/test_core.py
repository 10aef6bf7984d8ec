import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crngame import (
    ConfigError,
    CountOverflowError,
    Crn,
    CrnError,
    NumericOverflowError,
    ParseError,
    Reaction,
    StateSpaceTooLargeError,
    SimConfig,
    SpeciesTable,
    enumerate_states,
    make_crn,
    simulate,
)
from crngame.batch import simulate_batch
from crngame.core import MAX_COEFFICIENT, MAX_COUNT, CompiledCrn
from crngame.rng import XoshiroBatch
import crngame.config


def state(*counts):
    return np.array(counts, dtype=np.int64)


def propensity(rxn, s, volume=1.0):
    """``rxn``'s propensity at ``s``, as every engine computes it."""
    return CompiledCrn((rxn,), volume).propensity(0, s.tolist())


class TestSpeciesTable:
    def test_roundtrip_index(self):
        table = SpeciesTable(("X", "Y", "A"))
        for i, name in enumerate(table.names):
            assert table.index_of(name) == i

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(CrnError):
            SpeciesTable(("X", "X"))
        with pytest.raises(CrnError):
            SpeciesTable(("X", ""))

    def test_unknown_species(self):
        with pytest.raises(CrnError):
            SpeciesTable(("X",)).index_of("Y")


class TestReaction:
    def test_arity_and_delta(self):
        rxn = Reaction({0: 2, 1: 1}, {0: 3}, 1.0)
        assert rxn.arity == 3
        assert rxn.delta == ((0, 1), (1, -1))

    def test_rejects_equal_sides(self):
        with pytest.raises(CrnError):
            Reaction({0: 1, 1: 1}, {0: 1, 1: 1}, 1.0)

    @pytest.mark.parametrize("k", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_rate(self, k):
        with pytest.raises(CrnError):
            Reaction({0: 1}, {1: 1}, k)

    def test_rejects_negative_counts(self):
        with pytest.raises(CrnError):
            Reaction({0: -1}, {1: 1}, 1.0)

    def test_coefficient_bound(self):
        # the bound holds for every constructor, not only the .crn reader
        assert Reaction({0: MAX_COEFFICIENT}, {1: MAX_COEFFICIENT}, 1.0).arity == 10**6
        for reactants, products in [({"X": 10**20}, {"Y": 1}), ({"X": 1}, {"Y": 10**6 + 1})]:
            with pytest.raises(CrnError, match="stoichiometric coefficient must be at most 1000000"):
                make_crn([(reactants, products, 1.0)])


class TestCrn:
    def test_rejects_duplicate_reactions(self):
        rxn = Reaction({0: 1}, {1: 1}, 1.0)
        with pytest.raises(CrnError):
            Crn(SpeciesTable(("X", "Y")), (rxn, Reaction({0: 1}, {1: 1}, 1.0)))

    def test_parallel_reactions_with_distinct_rates_allowed(self):
        crn = Crn(SpeciesTable(("X", "Y")),
                  (Reaction({0: 1}, {1: 1}, 1.0), Reaction({0: 1}, {1: 1}, 2.0)))
        assert len(crn.reactions) == 2

    def test_empty_crn(self):
        crn = Crn.empty()
        assert crn == Crn(SpeciesTable(()), ())
        assert len(crn.species) == 0 and crn.reactions == ()
        assert crn != make_crn([({"X": 1}, {}, 1.0)])


class TestPropensity:
    def test_trimolecular_worked_value(self):
        # 3Y + Z with k=1, V=1 at y=5, z=2: 5*4*3*2
        rxn = Reaction({0: 3, 1: 1}, {1: 2}, 1.0)
        assert propensity(rxn, state(5, 2)) == 120.0

    def test_inapplicable_gives_zero(self):
        # 2X + Y at x=1: the falling factorial hits zero
        rxn = Reaction({0: 2, 1: 1}, {0: 3}, 1.0)
        assert propensity(rxn, state(1, 9)) == 0.0

    def test_catalyzed_rate_formula(self):
        # 2X + Y + A -> 3X + A at (x, y, a) = (3, 2, 10): a*x*(x-1)*y
        rxn = Reaction({0: 2, 1: 1, 2: 1}, {0: 3, 2: 1}, 1.0)
        assert propensity(rxn, state(3, 2, 10)) == 10 * 3 * 2 * 2

    def test_volume_scaling(self):
        rxn = Reaction({0: 3, 1: 1}, {1: 2}, 1.0)
        v = 2.0
        assert propensity(rxn, state(5, 2), v) == 120.0 / v**3

    def test_zero_arity_rate_is_k_times_volume(self):
        rxn = Reaction({}, {0: 1}, 2.5)
        assert propensity(rxn, state(0, 0), 3.0) == 2.5 * 3.0

    def test_rate_constant_scales_linearly(self):
        slow = Reaction({0: 1}, {1: 1}, 1.0)
        fast = Reaction({0: 1}, {1: 1}, 1e9)
        s = state(100, 0)
        assert propensity(fast, s) == 1e9 * propensity(slow, s)

    def test_volume_that_stops_a_reaction_is_rejected(self):
        # V**-2 underflows at V = 1e200 and is 0 at V = inf, so reaction 1
        # could never fire; at V = 1e-200 it overflows. The error names it
        reactions = (Reaction({0: 1}, {1: 1}, 1.0), Reaction({0: 2, 1: 1}, {0: 3}, 1.0))
        assert CompiledCrn(reactions, 1e150).kv[1] > 0.0
        assert CompiledCrn(reactions, 1e-150).kv[1] < math.inf
        with pytest.raises(ConfigError, match=r"^reaction 1: .* underflows to 0$"):
            CompiledCrn(reactions, 1e200)
        with pytest.raises(ConfigError, match=r"^reaction 1: .* overflows$"):
            CompiledCrn(reactions, 1e-200)
        with pytest.raises(ConfigError, match="volume must be positive and finite"):
            CompiledCrn(reactions, float("inf"))

    def test_dimension_mismatch_is_an_error(self):
        # a propensity is only taken of a CRN's reactions at its states, and
        # both are checked against its species table
        rxn = Reaction({0: 3, 1: 1}, {2: 1}, 1.0)
        with pytest.raises(CrnError, match="reaction dimension does not match"):
            Crn(SpeciesTable(("Y", "Z")), [rxn])
        crn = Crn(SpeciesTable(("Y", "Z", "W")), [rxn])
        with pytest.raises(CrnError, match="initial state dimension does not match"):
            simulate(crn, state(2, 5), SimConfig())


class TestStartState:
    """Every engine and ``state_from`` check a start state alike."""

    @pytest.mark.parametrize("counts, message", [
        ([-1, 0], "initial counts must be nonnegative"),
        ([2**63, 0], "initial counts must be at most 9223372036854775807"),
        ([1, 0, 0], "initial state dimension does not match CRN"),
        ([float("nan"), 0], "initial counts must be integers"),
        ([1.5, 0], "initial counts must be integers"),
    ])
    def test_one_error_everywhere(self, counts, message):
        crn = make_crn([({"X": 1}, {"Y": 1}, 1.0)])
        config = SimConfig(max_events=3)
        starts = [lambda: simulate(crn, counts, config),
                  lambda: simulate_batch(crn, [counts], config, XoshiroBatch([0])),
                  lambda: enumerate_states(crn, counts)]
        if len(counts) == len(crn.species):
            starts.append(lambda: crn.species.state_from(dict(zip(("X", "Y"), counts))))
        for start in starts:
            with pytest.raises(CrnError) as error:
                start()
            assert (type(error.value), str(error.value)) == (CrnError, message)

    def test_largest_count_is_kept(self):
        # counts are compared as numbers, not as float64s, which round
        # 2**63 - 1 up to 2**63
        crn = make_crn([({"X": 1}, {"Y": 1}, 1.0)])
        for counts in ([0, MAX_COUNT], np.array([0, MAX_COUNT], dtype=np.uint64),
                       np.array([0, MAX_COUNT], dtype=object)):
            result = simulate(crn, counts, SimConfig(max_events=1))
            assert result.final_state.tolist() == [0, MAX_COUNT]
        assert crn.species.state_from({"Y": MAX_COUNT}).tolist() == [0, MAX_COUNT]


# property strategies: small random reactions and states over <= 4 species

def reactions(dim):
    vec = st.tuples(*[st.integers(0, 3)] * dim)
    return st.tuples(vec, vec, st.floats(0.001, 1e6)).filter(
        lambda t: t[0] != t[1]).map(
        lambda t: Reaction(dict(enumerate(t[0])), dict(enumerate(t[1])), t[2]))


def states(dim):
    return st.tuples(*[st.integers(0, 30)] * dim).map(lambda t: state(*t))


def applicable(rxn, s):
    """Every reactant count is available in ``s``."""
    return all(s[i] >= need for i, need in rxn.reactants)


def applied(rxn, s):
    """``s`` after one firing of ``rxn``."""
    out = s.copy()
    for i, d in rxn.delta:
        out[i] += d
    return out


@given(rxn=reactions(3), s=states(3))
def test_zero_propensity_iff_inapplicable(rxn, s):
    assert (propensity(rxn, s) == 0.0) == (not applicable(rxn, s))


@given(rxn=reactions(3), s=states(3))
def test_apply_keeps_counts_nonnegative(rxn, s):
    if applicable(rxn, s):
        assert (applied(rxn, s) >= 0).all()


@given(rxn=reactions(3), s=states(3), species=st.integers(0, 2))
def test_propensity_monotone_in_reactant_counts(rxn, s, species):
    bumped = s.copy()
    bumped[species] += 1
    assert propensity(rxn, bumped) >= propensity(rxn, s)


@given(rxn=reactions(3), s=states(3))
def test_catalyst_counts_preserved(rxn, s):
    if not applicable(rxn, s):
        return
    out = applied(rxn, s)
    reactants, products = dict(rxn.reactants), dict(rxn.products)
    for i in range(3):
        # a catalyst: equal positive counts on both sides
        if i in reactants and reactants[i] == products.get(i):
            assert out[i] == s[i]


@given(rxn=reactions(3), s=states(3))
def test_unit_volume_removes_arity_correction(rxn, s):
    # at V = 1 the propensity is the bare k times the falling factorials
    expect = rxn.rate_constant
    for i, need in rxn.reactants:
        for m in range(need):
            expect *= float(s[i]) - m
    assert propensity(rxn, s, 1.0) == expect


class TestErrors:
    def test_bad_input_is_one_class(self):
        # a .crn file fails as ParseError, a ConfigError; a game and a config
        # raise ConfigError itself, which crngame.config still exports
        assert issubclass(ParseError, ConfigError)
        assert not hasattr(crngame, "GameConfigError")
        assert crngame.config.ConfigError is ConfigError
        assert issubclass(ConfigError, CrnError)

    @pytest.mark.parametrize("error", [
        NumericOverflowError(2, lane=3, event=7),
        NumericOverflowError(-1),
        CountOverflowError("X", 1, lane=0, event=4),
        CountOverflowError("Y", 0),
        ParseError(2, 10, "initial count must be at most 9", "10"),
        ParseError(1, 1, "not valid UTF-8 (invalid start byte)"),
        StateSpaceTooLargeError(5),
    ], ids=lambda error: type(error).__name__)
    def test_copy_and_pickle_keep_message_and_fields(self, error):
        for clone in (copy.copy(error), copy.deepcopy(error),
                      pickle.loads(pickle.dumps(error))):
            assert type(clone) is type(error)
            assert str(clone) == str(error)
            assert clone.args == error.args
            assert vars(clone) == vars(error)
