"""Core chemical-reaction-network types and stochastic mass-action kinetics.

A CRN is a finite species table plus a set of reactions. Each reaction is a
triple (reactant vector, product vector, rate constant); states are count
vectors over the species table. The propensity of a reaction in a state is
the pure falling-factorial form

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


class NumericOverflowError(CrnError):
    """A propensity or rate sum left the finite float64 range.

    ``reaction_index`` is the first reaction whose propensity is not finite,
    or -1 when only their sum is not. ``lane``, when set, is the index of the
    overflowing trial in the batch that raised the error, and ``event`` the
    index of the event it could not take.
    """

    def __init__(self, reaction_index: int, message: str | None = None,
                 lane: int | None = None, event: int | None = None):
        self.reaction_index = reaction_index
        self.lane = lane
        self.event = event
        super().__init__(message or _overflow_text(reaction_index))

    @classmethod
    def in_trial(cls, trial: int, reaction_index: int, lane: int | None = None,
                 event: int | None = None) -> "NumericOverflowError":
        """The error of trial ``trial``, whose message names that trial."""
        return cls(reaction_index, f"trial {trial}: {_overflow_text(reaction_index)}",
                   lane, event)


def _overflow_text(reaction_index: int) -> str:
    if reaction_index < 0:
        return "non-finite propensity sum"
    return f"non-finite propensity in reaction {reaction_index}"


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

    def zero_state(self) -> CountVector:
        return np.zeros(len(self.names), dtype=np.int64)

    def state_from(self, counts: Mapping[str, int]) -> CountVector:
        """Build a count vector from a name -> count mapping."""
        state = self.zero_state()
        for name, count in counts.items():
            if count < 0:
                raise CrnError(f"negative count for species {name!r}")
            state[self.index_of(name)] = count
        return state


@dataclass(frozen=True)
class Reaction:
    """One stoichiometric reaction: reactant counts, product counts, rate.

    ``reactants`` and ``products`` are dense tuples over the owning species
    table, with counts at most ``MAX_COEFFICIENT``. The reactant and product
    vectors must differ and the rate constant must be positive and finite.
    ``arity`` (total reactant count) and ``delta`` (product minus reactant
    vector) are derived once.
    """

    reactants: tuple[int, ...]
    products: tuple[int, ...]
    rate_constant: float
    arity: int = field(init=False, compare=False)
    delta: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        r, p = self.reactants, self.products
        if len(r) != len(p):
            raise CrnError("reactant/product vectors differ in dimension")
        if any(c < 0 for c in r) or any(c < 0 for c in p):
            raise CrnError("stoichiometric counts must be nonnegative")
        if max(r + p, default=0) > MAX_COEFFICIENT:
            raise CrnError(f"stoichiometric coefficient must be at most {MAX_COEFFICIENT}")
        if r == p:
            raise CrnError("reactant and product vectors are equal")
        k = self.rate_constant
        if not (k > 0.0) or k != k or k == float("inf"):
            raise CrnError(f"rate constant must be positive and finite, got {k!r}")
        object.__setattr__(self, "rate_constant", float(k))
        object.__setattr__(self, "arity", sum(r))
        object.__setattr__(self, "delta", tuple(pj - rj for rj, pj in zip(r, p)))

    def changed_species(self) -> tuple[int, ...]:
        """Species indices whose count this reaction changes."""
        return tuple(i for i, d in enumerate(self.delta) if d != 0)

    def is_catalyst(self, species_index: int) -> bool:
        """True iff the species appears with equal positive count on both sides."""
        r = self.reactants[species_index]
        return r > 0 and r == self.products[species_index]


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
            if len(rxn.reactants) != dim:
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

    def is_empty(self) -> bool:
        return not self.species.names and not self.reactions


class CompiledCrn(object):
    """The mass-action kinetics of a reaction list at one volume.

    This is the one place the propensity formula lives; every engine and the
    oracle read it from here. ``kv[j]`` is ``k * V**(1 - arity)``.
    ``factors[j]`` lists reaction ``j``'s falling factors ``x(species) - m``
    as ``(species, m)`` pairs, in species order and then by ``m``; a
    propensity is ``kv[j]`` times them, multiplied left to right, and
    engines that keep this order agree bit for bit.
    ``deltas[j]`` holds ``(species, change)`` for each species that reaction
    ``j`` changes. ``dependents()`` maps each reaction to the reactions whose
    propensity its firing can change; only the scalar engine needs it, so it
    is built on request.
    """

    __slots__ = ("size", "kv", "factors", "deltas")

    def __init__(self, reactions: Sequence[Reaction], volume: float = 1.0):
        if not volume > 0.0:
            raise CrnError(f"volume must be positive, got {volume!r}")
        reactions = tuple(reactions)
        self.size = len(reactions)
        self.kv = [r.rate_constant * volume ** (1 - r.arity) for r in reactions]
        self.factors = [
            tuple((i, m) for i, need in enumerate(r.reactants) for m in range(need))
            for r in reactions
        ]
        self.deltas = [tuple((i, d) for i, d in enumerate(r.delta) if d)
                       for r in reactions]

    def dependents(self) -> list[tuple[int, ...]]:
        """For each reaction ``j``, the reactions whose propensity can change
        when ``j`` fires, in index order: those with a reactant ``j`` changes.
        """
        readers: dict[int, list[int]] = {}
        for j, factors in enumerate(self.factors):
            for si in dict.fromkeys(si for si, _ in factors):
                readers.setdefault(si, []).append(j)
        return [tuple(sorted({j for si, _ in delta for j in readers.get(si, ())}))
                for delta in self.deltas]

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


def propensity(reaction: Reaction, state: CountVector, volume: float = 1.0) -> float:
    """Stochastic mass-action rate of ``reaction`` in ``state``.

    Computes k * V**(1-arity) * prod of per-species falling factorials, as
    :class:`CompiledCrn` does. For integer states the product is exactly 0
    whenever the reaction is not applicable (some factor hits 0), so no
    applicability branch is needed. Raises :class:`NumericOverflowError` if
    the product leaves the finite range.
    """
    if len(reaction.reactants) != len(state):
        raise CrnError("reaction and state dimensions differ")
    p = CompiledCrn((reaction,), volume).propensity(0, [int(c) for c in state])
    if not math.isfinite(p):
        raise NumericOverflowError(-1, "non-finite propensity")
    # A state with fewer counts than required yields a zero factor; never negative.
    return p if p > 0.0 else 0.0


def make_crn(reaction_specs: Sequence[tuple[Mapping[str, int], Mapping[str, int], float]],
             species_order: Sequence[str] | None = None) -> Crn:
    """Convenience constructor from sparse name -> count mappings.

    Species are registered in first-appearance order (reactants before
    products, reaction by reaction) unless ``species_order`` pins the table.
    """
    if species_order is None:
        names: list[str] = []
        seen: set[str] = set()
        for reactants, products, _ in reaction_specs:
            for name in list(reactants) + list(products):
                if name not in seen:
                    seen.add(name)
                    names.append(name)
    else:
        names = list(species_order)
    table = SpeciesTable(names)
    dim = len(table)
    reactions = []
    for reactants, products, k in reaction_specs:
        r = [0] * dim
        p = [0] * dim
        for name, c in reactants.items():
            r[table.index_of(name)] = c
        for name, c in products.items():
            p[table.index_of(name)] = c
        reactions.append(Reaction(tuple(r), tuple(p), k))
    return Crn(table, reactions)
