"""Core chemical-reaction-network types and stochastic mass-action kinetics.

A CRN is a finite species table plus a set of reactions. Each reaction is a
triple (reactant terms, product terms, rate constant), a term being a
``(species index, count)`` pair with a nonzero count, so a reaction's size
is its number of terms, not the table's. States are count vectors over the
species table. The propensity of a reaction in a state is the pure
falling-factorial form

    k * V**(1 - arity) * prod_Y x(Y) * (x(Y) - 1) * ... * (x(Y) - r(Y) + 1)

with no division by stoichiometry factorials, e.g. 3Y + Z at rate k has
propensity k*y*(y-1)*(y-2)*z / V**3. Counts are 64-bit integers; rates and
propensities are 64-bit floats.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

CountVector = np.ndarray  # 1-D int64, one entry per species index
MAX_COUNT = 2**63 - 1  # the largest count an int64 holds
MAX_SEED = 2**64 - 1  # seeds are 64-bit words
# Each unit of a reactant's coefficient is one falling factor of the
# reaction's propensity, so this caps the work of compiling and evaluating it.
MAX_COEFFICIENT = 10**6


def bounded_count(digits: str, bound: int = MAX_COUNT) -> int | None:
    """``int(digits)`` for decimal digits of any script, or None above ``bound``.

    The digits after the leading zeros are counted first, so a number of any
    length is judged here, not at ``int``'s 4,300-digit limit.
    """
    lead = 0
    while lead < len(digits) - 1 and unicodedata.decimal(digits[lead]) == 0:
        lead += 1
    digits = digits[lead:]
    if len(digits) > len(str(bound)):
        return None
    count = int(digits)
    return count if count <= bound else None


class CrnError(Exception):
    """Base class for CRN construction and evaluation errors."""

    def __reduce__(self):
        # copy and pickle rebuild from args and fields, not through __init__
        return (CrnError.__new__, (type(self), *self.args), self.__dict__)


class ConfigError(CrnError):
    """Bad input: a config, a ``.crn`` file, a flag or a setting out of range."""


class _TrialError(CrnError):
    """An error that one trial met.

    ``lane``, when set, is the index of that trial in the batch or lane pool
    that raised the error, and the message then starts ``trial <lane>: ``;
    ``event`` is the index of the event the trial could not take.
    """

    def __init__(self, message: str, lane: int | None, event: int | None):
        self.lane = lane
        self.event = event
        super().__init__(message)

    def __str__(self) -> str:
        text = super().__str__()
        return text if self.lane is None else f"trial {self.lane}: {text}"


class NumericOverflowError(_TrialError):
    """A propensity or rate sum left the finite float64 range.

    ``reaction_index`` is the first reaction whose propensity is not finite,
    or -1 when only their sum is not.
    """

    def __init__(self, reaction_index: int, lane: int | None = None,
                 event: int | None = None):
        self.reaction_index = reaction_index
        text = (f"non-finite propensity in reaction {reaction_index}"
                if reaction_index >= 0 else "non-finite propensity sum")
        super().__init__(text, lane, event)


class CountOverflowError(_TrialError):
    """A reaction would take a species count above ``MAX_COUNT``."""

    def __init__(self, species: str, reaction_index: int, lane: int | None = None,
                 event: int | None = None):
        self.species = species
        self.reaction_index = reaction_index
        super().__init__(f"reaction {reaction_index} takes the count of species "
                         f"{species!r} above {MAX_COUNT}", lane, event)


class SpeciesTable(object):
    """Ordered, de-duplicated registry of species identifiers."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        index: dict[str, int] = {}
        for i, name in enumerate(names):
            if not name:
                raise CrnError("species identifiers must be nonempty")
            if name in index:
                raise CrnError(f"duplicate species identifier {name!r}")
            index[name] = i
        self.names = names
        self._index = index

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SpeciesTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"SpeciesTable({list(self.names)!r})"

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise CrnError(f"unknown species {name!r}") from None

    def state_from(self, counts: Mapping[str, int]) -> CountVector:
        """Build a count vector from a name -> count mapping."""
        state = [0] * len(self.names)
        for name, count in counts.items():
            state[self.index_of(name)] = count
        return start_state(state, len(self.names))


def start_state(states, nspecies: int, ndim: int = 1) -> np.ndarray:
    """``states`` as int64 counts: ``ndim`` axes, the last one per species.

    Every engine checks its start here. A count must be an integer in
    ``[0, MAX_COUNT]``, and is checked before it is converted, so 2**63 or
    NaN is a :class:`CrnError`, not an ``OverflowError`` or a wrapped count.
    """
    states = np.asarray(states)
    if states.ndim != ndim or states.shape[-1] != nspecies:
        raise CrnError("initial state dimension does not match CRN")
    if (states < 0).any():
        raise CrnError("initial counts must be nonnegative")
    if states.dtype != np.int64:
        # as Python numbers: numpy would compare MAX_COUNT as the float 2**63
        values = states.ravel().tolist()
        if any(v % 1 for v in values):  # NaN % 1 is NaN, which is true
            raise CrnError("initial counts must be integers")
        if any(v > MAX_COUNT for v in values):
            raise CrnError(f"initial counts must be at most {MAX_COUNT}")
    return states.astype(np.int64, copy=False)


@dataclass(frozen=True)
class Reaction:
    """One stoichiometric reaction: reactant terms, product terms, rate.

    Each side is given as a species-index -> count mapping, or as the pairs
    it stores: ``reactants`` and ``products`` are the ``(species, count)``
    pairs with a nonzero count, sorted by species, with counts at most
    ``MAX_COEFFICIENT``. The two sides must differ and the rate constant
    must be positive and finite. ``arity`` (total reactant count) and
    ``delta`` (the sorted ``(species, change)`` pairs with a nonzero change)
    are derived once.
    """

    reactants: tuple[tuple[int, int], ...]
    products: tuple[tuple[int, int], ...]
    rate_constant: float
    arity: int = field(init=False, compare=False)
    delta: tuple[tuple[int, int], ...] = field(init=False, compare=False)

    def __post_init__(self):
        r, p = (tuple(sorted((i, c) for i, c in dict(side).items() if c))
                for side in (self.reactants, self.products))
        if any(c < 0 for _, c in r + p):
            raise CrnError("stoichiometric counts must be nonnegative")
        if any(c > MAX_COEFFICIENT for _, c in r + p):
            raise CrnError(f"stoichiometric coefficient must be at most {MAX_COEFFICIENT}")
        if r == p:
            raise CrnError("reactant and product vectors are equal")
        k = self.rate_constant
        if not (k > 0.0) or k != k or k == float("inf"):
            raise CrnError(f"rate constant must be positive and finite, got {k!r}")
        change = {i: -c for i, c in r}
        for i, c in p:
            change[i] = change.get(i, 0) + c
        object.__setattr__(self, "reactants", r)
        object.__setattr__(self, "products", p)
        object.__setattr__(self, "rate_constant", float(k))
        object.__setattr__(self, "arity", sum(c for _, c in r))
        object.__setattr__(self, "delta", tuple(sorted(
            (i, d) for i, d in change.items() if d)))


class Crn(object):
    """A species table plus an ordered, duplicate-free tuple of reactions.

    Reaction order is the insertion order; it fixes the reaction indices used
    by the simulators and by trajectory dumps. Equality treats the reaction
    list as a set, per the definition of a CRN.
    """

    __slots__ = ("species", "reactions")

    def __init__(self, species: SpeciesTable, reactions: Iterable[Reaction]):
        reactions = tuple(reactions)
        dim = len(species)
        seen: set[Reaction] = set()
        for rxn in reactions:
            if any(not 0 <= i < dim for i, _ in rxn.reactants + rxn.products):
                raise CrnError("reaction dimension does not match species table")
            if rxn in seen:
                raise CrnError("duplicate reaction (the reaction list is a set)")
            seen.add(rxn)
        self.species = species
        self.reactions = reactions

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Crn)
            and self.species == other.species
            and frozenset(self.reactions) == frozenset(other.reactions)
        )

    def __hash__(self) -> int:
        return hash((self.species, frozenset(self.reactions)))

    def __repr__(self) -> str:
        return f"Crn(species={list(self.species.names)!r}, reactions={len(self.reactions)})"

    @classmethod
    def empty(cls) -> "Crn":
        return cls(SpeciesTable(()), ())


class CompiledCrn(object):
    """The mass-action kinetics of a reaction list at one volume.

    This is the one place the propensity formula lives; every engine and the
    oracle read it from here. ``kv[j]`` is ``k * V**(1 - arity)``.
    ``factors[j]`` lists reaction ``j``'s falling factors ``x(species) - m``
    as ``(species, m)`` pairs, in species order and then by ``m``; a
    propensity is ``kv[j]`` times them, multiplied left to right, and
    engines that keep this order agree bit for bit.
    ``deltas[j]`` holds ``(species, change)`` for each species that reaction
    ``j`` changes. Both simulators recompute every propensity at every
    event. The volume must be positive and finite, and so must every
    ``kv[j]``: for a reaction of arity 2 or more, ``V**(1 - arity)``
    underflows to 0 at a large volume, and the reaction would silently
    never fire, or overflows at a small one.
    """

    __slots__ = ("size", "kv", "factors", "deltas")

    def __init__(self, reactions: Sequence[Reaction], volume: float = 1.0):
        if not 0.0 < volume < math.inf:
            raise ConfigError(f"volume must be positive and finite, got {volume!r}")
        reactions = tuple(reactions)
        self.size = len(reactions)
        self.kv = []
        for j, r in enumerate(reactions):
            power = 1 - r.arity
            try:
                kv = r.rate_constant * volume ** power
            except OverflowError:  # float ** raises where float * gives inf
                kv = math.inf
            if not 0.0 < kv < math.inf:
                raise ConfigError(
                    f"reaction {j}: k * V**{power} = {r.rate_constant!r} * {volume!r}"
                    f"**{power} {'underflows to 0' if kv == 0.0 else 'overflows'}")
            self.kv.append(kv)
        self.factors = [tuple((i, m) for i, need in r.reactants for m in range(need))
                        for r in reactions]
        self.deltas = [r.delta for r in reactions]

    def propensity(self, j: int, counts: Sequence) -> float:
        """Reaction ``j``'s propensity at ``counts``.

        For integer counts the product is exactly zero (possibly ``-0.0``)
        whenever the reaction is not applicable, since some factor is 0.
        """
        p = self.kv[j]
        for si, m in self.factors[j]:
            p *= counts[si] - m
        return p

    def first_nonfinite(self, counts: Sequence) -> int:
        """Index of the first reaction whose propensity is not finite, or -1."""
        for j in range(self.size):
            if not math.isfinite(self.propensity(j, counts)):
                return j
        return -1


def make_crn(reaction_specs: Sequence[tuple[Mapping[str, int], Mapping[str, int], float]]
             ) -> Crn:
    """Convenience constructor from sparse name -> count mappings.

    Species are registered in first-appearance order (reactants before
    products, reaction by reaction).
    """
    table = SpeciesTable(dict.fromkeys(name for reactants, products, _ in reaction_specs
                                       for name in (*reactants, *products)))
    return Crn(table, [
        Reaction({table.index_of(name): c for name, c in reactants.items()},
                 {table.index_of(name): c for name, c in products.items()}, k)
        for reactants, products, k in reaction_specs])
