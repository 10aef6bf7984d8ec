"""Exact ground truth for small systems: reachable-state enumeration and
absorption probabilities of the embedded jump chain.

The reachable states are found by a breadth-first search in C
(``_search.c``, built into the library of :mod:`crngame.batch`), one state
at a time, with an open-addressing hash of the count vectors. It gives
the states, numbered in order of discovery, and their transitions as CSR
arrays, with the propensities of :class:`~crngame.core.CompiledCrn`. It
takes the simulators' stop contract, ``stop_when_zero``: a state where a
listed species is zero is absorbing, as a trial stops there.

Working on the embedded chain (transition probabilities = rate ratios)
rather than the generator keeps the numbers well scaled even when rate
constants span many orders of magnitude; absorption probabilities do not
depend on sojourn times. The reachability check is a second C function of
``_search.c``, a breadth-first search of the reversed transitions from the
absorbing states; like the search, it releases the GIL and needs no scipy.
The first-step system is built straight from the search's CSR arrays. scipy
is imported at its first use, where the system becomes a scipy matrix and
where SuperLU is called, not with this module; ``crngame oracle`` starts
that import on another thread just before the search, so it runs while the
search, the reachability check and the numpy work of the system do. Only
SuperLU's inputs are alive while it factorises: the CSC of the system
(I − P_tt without a mirror), the right-hand side and two arrays of one
entry per state, three with a mirror. Every per-transition array built on
the way is freed before the call, so none of them adds to the peak the
factor sets.

The first-step system is solved by SuperLU with its columns ordered by
minimum degree on Aᵀ+A. Reversible CRNs give diagonally dominant, nearly
structurally symmetric systems, the case for which the SuperLU user's guide
(Demmel, Eisenstat, Gilbert, Li & Liu, 1999) recommends that ordering; on
approximate majority at n = 600 it holds half the LU nonzeros of SuperLU's
default COLAMD. The factorisation relaxes no supernodes and works in panels
of four columns (``SUPERLU_RELAX``, ``SUPERLU_PANEL_SIZE``); SuperLU's
defaults are 10 and 20. On a one-way CRN, whose system has no mirrored
entries, minimum degree had measured several times slower than COLAMD, but
the cost came from the relaxed supernodes, not from the ordering: from 600
molecules of ``X -> Y``, ``Y -> Z``, ``X -> Z``, minimum degree took 2.98 s
and COLAMD 0.66 s at SuperLU's defaults, and 0.84 s and 0.42 s with these
settings.

When a species involution σ that swaps the winner and the loser maps every
reaction onto one of the same rate constant and the stop set onto itself
(:func:`exchange_symmetry`), the chain is symmetric: p(σs) = 1 − p(s) for
every reached pair and p = ½ where s = σs (symmetry reduction of Markov
chains: Buchholz, *J. Appl. Probab.* 31, 1994; Kwiatkowska, Norman & Parker,
CAV 2006). The search then records each state's mirror, and the first-step
system keeps one unknown per mirrored pair. On approximate majority at
n = 600 that is 90,299 unknowns of 180,898, and LU nonzeros fall from 11.0M
to 5.0M (``BENCH_symmetry.json``).
"""

from __future__ import annotations

import ctypes
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .batch import _Space, _flat, _kernel
from .core import (
    MAX_COUNT,
    CompiledCrn,
    CountOverflowError,
    Crn,
    CountVector,
    CrnError,
    NumericOverflowError,
    start_state,
)
from .ssa import watched_species

SOLVE_RESIDUAL_BOUND = 1e-10
# SuperLU's supernode relaxation and panel width for the first-step solve;
# its defaults, which spsolve runs, are 10 and 20. Factor + solve time and
# process peak RSS, defaults -> these (2-vCPU Xeon with AVX-512, scipy
# 1.17.1, medians of three fresh processes): approximate majority n = 600,
# 0.91 s 275 MB -> 0.74 s 230 MB; the shipped with-arm at n = 10000, 12.7 s
# 2.52 GB -> 10.7 s 2.03 GB; one-way X -> Y, Y -> Z, X -> Z from 600, 2.90 s
# 293 MB -> 0.94 s 188 MB. Relax 1 saves the time. SuperLU's work arrays
# are n x panel, so a narrow panel saves memory; panels of 1, 2 and 4 took
# about the same time. The grid and the per-shape table: BENCH_superlu.json.
SUPERLU_RELAX = 1
SUPERLU_PANEL_SIZE = 4
STATE_CAP = 10**6  # enumerate_states' default bound on the states it finds

# the SEARCH_ status codes of _search.c
_SEARCH_DONE, _SEARCH_CAP, _SEARCH_NONFINITE, _SEARCH_COUNT = range(4)
# crngame_stranded's codes besides a state number (STRANDED_ in _search.c)
_STRANDED_NONE, _STRANDED_MEMORY = -1, -2


class StateSpaceTooLargeError(CrnError):
    """Enumeration exceeded the state cap; use stochastic simulation instead."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"reachable state space exceeds cap of {cap} states")


class NoAbsorptionError(CrnError):
    """Some state cannot reach any absorbing state."""


@dataclass
class StateSpace:
    """Reachable states with merged transition rates, stored as CSR arrays.

    ``states[0]`` is the initial state. The transitions of state ``i`` are
    ``successors[k]`` at ``rates[k]`` for ``k`` in
    ``indptr[i]:indptr[i + 1]``, in the order the breadth-first search
    found them, with parallel reactions to one successor merged by summing
    their propensities in reaction order. A state is absorbing iff it has
    no transitions. ``transitions`` is a convenience view of the same data
    as ``(successor, rate)`` rows, built on each access. ``pair`` and
    ``mirror`` are set by :func:`enumerate_states` when swapping the pair
    it was given is a symmetry of the CRN.
    """

    states: np.ndarray  # (n_states, n_species) int64
    indptr: np.ndarray  # (n_states + 1,) int64
    successors: np.ndarray  # (n_transitions,) int64
    rates: np.ndarray  # (n_transitions,) float64
    # the (winner, loser) pair a symmetry of the CRN swaps, and each state's
    # image under it (its number, or -1 if not reached); None without one
    pair: tuple[int, int] | None = None
    mirror: np.ndarray | None = None  # (n_states,) int64
    absorbing: np.ndarray = field(init=False)  # (n_states,) bool

    def __post_init__(self):
        self.absorbing = self.indptr[1:] == self.indptr[:-1]

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def transitions(self) -> list[list[tuple[int, float]]]:
        """Row ``i`` lists state ``i``'s ``(successor, rate)`` pairs."""
        pairs = list(zip(self.successors.tolist(), self.rates.tolist()))
        bounds = self.indptr.tolist()
        return [pairs[a:b] for a, b in zip(bounds, bounds[1:])]


def enumerate_states(crn: Crn, initial_state: CountVector, volume: float = 1.0,
                     state_cap: int = STATE_CAP,
                     stop_when_zero: Sequence[int] = (),
                     pair: tuple[int, int] | None = None) -> StateSpace:
    """Breadth-first closure of ``initial_state`` under applicable reactions.

    The search is the C function ``crngame_search`` (``_search.c``, in the
    library :mod:`crngame.batch` builds). It takes one state at a time and
    each state's reactions in order, so a state's number is its order of
    first discovery; propensities are :class:`CompiledCrn`'s, multiplied
    left to right. ``stop_when_zero`` is the simulators' stop contract: a
    state where a listed species is zero is absorbing, and none of its
    propensities or successors is computed. Raises, at whichever comes first
    in that order, :class:`NumericOverflowError` at a non-finite propensity,
    :class:`CountOverflowError` at a count above ``MAX_COUNT``, or
    :class:`StateSpaceTooLargeError` once more than ``state_cap`` states
    have been found (the initial state never counts).

    ``pair`` is a (winner, loser) pair of species indices. If
    :func:`exchange_symmetry` finds a symmetry that swaps them, the search
    also looks up each state's image under it, and the space keeps the pair
    and those mirrors, which :func:`absorption_probabilities` uses to halve
    its system. The states, transitions and rates are the same either way.
    """
    nspecies = len(crn.species)
    initial = start_state(initial_state, nspecies)
    watch = np.array(watched_species(stop_when_zero, nspecies), dtype=np.int64)
    if pair is not None:
        pair = tuple(int(i) for i in pair)
        if len(pair) != 2 or not all(0 <= i < nspecies for i in pair):
            raise CrnError("pair must name two species indices in range")
    image = np.array(() if pair is None
                     else exchange_symmetry(crn, *pair, stop_when_zero) or (),
                     dtype=np.int64)

    kin = CompiledCrn(crn.reactions, volume)
    # reactions with the same change lead from any state to one successor
    first_with: dict[tuple[tuple[int, int], ...], int] = {}
    group = np.array([first_with.setdefault(d, j) for j, d in enumerate(kin.deltas)],
                     dtype=np.int64)
    found = _Space()
    status = _kernel.crngame_search(
        initial.size, kin.size,
        *_flat(kin.factors, (np.int64, np.int64)),
        *_flat(kin.deltas, (np.int64, np.int64)),
        group, np.array(kin.kv, dtype=np.float64), watch, watch.size,
        image, image.size,
        np.ascontiguousarray(initial), min(state_cap, MAX_COUNT), ctypes.byref(found))
    try:
        if status == _SEARCH_CAP:
            raise StateSpaceTooLargeError(state_cap)
        if status == _SEARCH_NONFINITE:
            raise NumericOverflowError(found.reaction)
        if status == _SEARCH_COUNT:
            raise CountOverflowError(crn.species.names[found.species], found.reaction)
        if status != _SEARCH_DONE:
            raise MemoryError("no memory left for the state search")
        n, m = found.nstates, found.ntransitions
        mirrored = image.size > 0
        return StateSpace(_copied(found.states, (n, initial.size), np.int64),
                          _copied(found.indptr, (n + 1,), np.int64),
                          _copied(found.successors, (m,), np.int64),
                          _copied(found.rates, (m,), np.float64),
                          pair if mirrored else None,
                          _copied(found.mirror, (n,), np.int64) if mirrored else None)
    finally:
        _kernel.crngame_free_space(ctypes.byref(found))


def exchange_symmetry(crn: Crn, winner: int, loser: int,
                      stop_when_zero: Sequence[int] = ()) -> tuple[int, ...] | None:
    """A species involution σ swapping ``winner`` and ``loser`` that is a
    symmetry of ``crn``, as each species' image; None if there is none.

    σ is a symmetry when it maps every reaction onto a reaction with the same
    rate constant, as many times as each occurs, and maps the stop set
    ``stop_when_zero`` onto itself. Then the chain from state s, with every
    species renamed by σ, is the chain from σs: a state's probability of
    absorbing in a set equals its mirror's of the mirrored set.

    The search is a backtracking one over the species linked to the pair
    through reactions, in breadth-first order from it; σ fixes every other
    species. A species can only map to one that shares a reaction with its
    predecessor's image and has the same stop-set membership and the same
    part in reactions of the same shapes and rates, and each reaction is
    checked as soon as σ is known on all its species.
    """
    nspecies = len(crn.species)
    watch = set(watched_species(stop_when_zero, nspecies))
    if winner == loser:
        return None
    keys = [(r.reactants, r.products, r.rate_constant) for r in crn.reactions]
    occurs = Counter(keys)
    touching: list[list[int]] = [[] for _ in range(nspecies)]
    for j, (reactants, products, _) in enumerate(keys):
        for s in dict(reactants + products):
            touching[s].append(j)

    def part(s: int, key) -> tuple:
        reactants, products, rate = key
        return (dict(reactants).get(s, 0), dict(products).get(s, 0), rate,
                sorted(c for _, c in reactants), sorted(c for _, c in products))

    shape = [(s in watch, sorted(part(s, keys[j]) for j in touching[s]))
             for s in range(nspecies)]
    sigma = list(range(nspecies))  # -1 where not yet chosen
    order, before = [winner, loser], {winner: winner, loser: loser}
    for s in order:  # the species linked to the pair, breadth first
        for j in touching[s]:
            for t, _ in keys[j][0] + keys[j][1]:
                if t not in before:
                    before[t] = s
                    order.append(t)
    for s in order:
        sigma[s] = -1

    def image(key) -> tuple:
        reactants, products, rate = key
        return (tuple(sorted((sigma[s], c) for s, c in reactants)),
                tuple(sorted((sigma[s], c) for s, c in products)), rate)

    def choose(s: int, t: int) -> bool:
        """Set σ(s) = t and σ(t) = s unless that breaks a reaction."""
        if sigma[t] >= 0 or shape[s] != shape[t]:
            return False
        sigma[s], sigma[t] = t, s
        for j in touching[s] + touching[t]:
            key = keys[j]
            if (all(sigma[u] >= 0 for u, _ in key[0] + key[1])
                    and occurs.get(image(key)) != occurs[key]):
                sigma[s] = sigma[t] = -1
                return False
        return True

    if not choose(winner, loser):
        return None
    choices: list[tuple[int, Iterator[int]]] = []  # (position, untried images)
    at = 2
    while at < len(order):
        s = order[at]
        if sigma[s] >= 0:  # the image of a species chosen earlier
            at += 1
            continue
        near = sigma[before[s]]
        untried = iter(sorted({t for j in touching[near]
                               for t, _ in keys[j][0] + keys[j][1]}))
        while not any(choose(s, t) for t in untried):
            if not choices:
                return None
            at, untried = choices.pop()
            s = order[at]
            sigma[sigma[s]] = sigma[s] = -1
        choices.append((at, untried))
        at += 1
    return tuple(sigma)


def _copied(address: int | None, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A new array of ``shape`` holding the C buffer at ``address``."""
    out = np.empty(shape, dtype)
    ctypes.memmove(out.ctypes.data, address, out.nbytes)
    return out


def absorption_probabilities(space: StateSpace, won: np.ndarray) -> np.ndarray:
    """Probability, per state, of eventually absorbing in a state marked ``won``.

    ``won`` holds one boolean per state (any other shape is a
    :class:`CrnError`); only the absorbing states' entries are read. Solves
    the first-step equations of the embedded jump chain by SuperLU's sparse
    LU with partial pivoting, columns ordered by minimum degree on Aᵀ+A, no
    relaxed supernodes (``SUPERLU_RELAX`` = 1) and panels of
    ``SUPERLU_PANEL_SIZE`` = 4 columns, and verifies the residual is at most
    ``SOLVE_RESIDUAL_BOUND``. Raises
    :class:`NoAbsorptionError` if any state cannot reach an absorbing state
    (as then no absorption probability is well defined),
    :class:`NumericOverflowError` if a state's exit rate is not finite, and
    :class:`CrnError` if rounding left the system exactly singular (a zero
    pivot) or the residual exceeds the bound.

    If the space has mirrors (:func:`enumerate_states` with a ``pair``
    that a symmetry σ swaps) and ``won`` is complementary on them, every
    absorbing state's mirror being another absorbing state with the other
    mark, then p(σs) = 1 − p(s) wherever both are reached and p = ½ where
    s = σs. Only one state of each mirrored pair is solved for: the one with
    fewer winner molecules, or on a tie the lower-numbered one, so the
    smaller probability is solved directly and the larger is 1 − it. Then
    the system is about half the size, and its LU factor less than half.
    Otherwise every transient state is solved for.

    When SuperLU is called, the system, its right-hand side and the arrays
    of one entry per state of :func:`_unknowns` (two, or three with a
    mirror) are all this function holds; the returned array is the first of
    them, filled in.
    """
    won = np.asarray(won, dtype=bool)
    if won.shape != (len(space),):
        raise CrnError(f"won must hold one entry per state ({len(space)}), "
                       f"got shape {won.shape}")
    absorbing_idx = np.flatnonzero(space.absorbing)
    if absorbing_idx.size == 0:
        raise NoAbsorptionError("no absorbing state is reachable")

    _check_reachable(space)
    value, column, flipped, size = _unknowns(space, won, absorbing_idx)
    del absorbing_idx
    if size == 0:
        return value
    system, b = _first_step_system(space, value, column, flipped, size)
    from scipy.sparse.linalg import splu  # at first use, as in _first_step_system

    try:
        x = splu(system, permc_spec="MMD_AT_PLUS_A", relax=SUPERLU_RELAX,
                 panel_size=SUPERLU_PANEL_SIZE).solve(b)
    except RuntimeError as exc:  # a zero pivot: rounding made the system singular
        raise CrnError(f"absorption solve failed: {exc}") from None
    residual = np.abs(system @ x - b).max()
    if residual > SOLVE_RESIDUAL_BOUND:
        raise CrnError(f"absorption solve residual {residual:.3e} exceeds bound")

    # now every state's probability
    solved = column >= 0
    if flipped is not None:
        value[flipped] -= x[column[flipped]]
        solved &= ~flipped
    value[solved] = x
    return value


def _unknowns(space: StateSpace, won: np.ndarray, absorbing_idx: np.ndarray):
    """How each state's probability is read from the first-step solution x.

    Returns ``(value, column, flipped, size)``: state i's probability is
    ``value[i] + x[column[i]]``, or ``value[i] - x[column[i]]`` where
    ``flipped[i]``, or ``value[i]`` alone where ``column[i]`` is −1; x has
    ``size`` entries. An absorbing state's value is 1.0 if it is won, else
    0.0. Without a mirror that :func:`absorption_probabilities` can use,
    every transient state has a column of its own, in state order, and
    ``flipped`` is None. With one, a state that is its own mirror has value
    ½; of each other mirrored pair, the state solved for has a column of its
    own, and its mirror has value 1 and the same column, flipped.
    """
    n = len(space)
    value = np.zeros(n)  # pages that stay untouched cost no memory
    value[absorbing_idx[won[absorbing_idx]]] = 1.0
    mirror = space.mirror
    if mirror is not None:
        image = mirror[absorbing_idx]
        paired = image >= 0
        state, image = absorbing_idx[paired], image[paired]
        if not (space.absorbing[image] & (image != state)
                & (won[state] != won[image])).all():
            mirror = None
        del image, paired, state
    if mirror is None:
        column = np.cumsum(~space.absorbing) - 1
        column[space.absorbing] = -1
        return value, column, None, n - absorbing_idx.size

    winner, loser = space.pair
    number = np.arange(n)
    transient = ~space.absorbing
    fixed = transient & (mirror == number)
    wins, loses = space.states[:, winner], space.states[:, loser]
    flipped = (transient & (mirror >= 0) & ~fixed
               & ((wins > loses) | ((wins == loses) & (mirror < number))))
    solved = transient & ~fixed & ~flipped
    del transient, wins, loses, number
    column = np.cumsum(solved) - 1
    column[flipped] = column[mirror[flipped]]
    column[~solved & ~flipped] = -1
    value[fixed] = 0.5
    value[flipped] = 1.0
    return value, column, flipped, int(np.count_nonzero(solved))


def _check_reachable(space: StateSpace) -> None:
    """Raise :class:`NoAbsorptionError` unless every state reaches an absorbing one.

    The check is ``crngame_stranded`` of ``_search.c``: a breadth-first
    search of the reversed transitions from every absorbing state, which
    names the lowest state it does not reach. It releases the GIL and needs
    no scipy. Raises :class:`CrnError` if the CSR arrays are not a graph on
    the space's states, as the C code would read out of bounds.
    """
    n = len(space)
    indptr = np.ascontiguousarray(space.indptr, dtype=np.int64)
    successors = np.ascontiguousarray(space.successors, dtype=np.int64)
    if not (indptr.shape == (n + 1,) and indptr[0] == 0
            and indptr[-1] == successors.size and (np.diff(indptr) >= 0).all()
            and ((successors >= 0) & (successors < n)).all()):
        raise CrnError("the space's CSR arrays do not describe its states' transitions")
    stranded = _kernel.crngame_stranded(n, indptr, successors)
    if stranded == _STRANDED_MEMORY:
        raise MemoryError("no memory left for the reachability check")
    if stranded != _STRANDED_NONE:
        raise NoAbsorptionError(f"state {stranded} cannot reach any absorbing state")


def _first_step_system(space: StateSpace, value: np.ndarray, column: np.ndarray,
                       flipped: np.ndarray | None, size: int):
    """The first-step equations A x = b of the ``size`` unknowns of :func:`_unknowns`.

    Row k is the equation of the state whose probability is x[k]: each of
    its transitions has probability P, its rate over the state's exit rate,
    and into state j it adds P·value[j] to b[k], and −P (+P if j is flipped)
    to A at column[j] unless that is −1. A is in CSC, each entry as scipy's
    ``identity - p_tt`` computes it when nothing is flipped: ``1.0 - p`` on
    the diagonal and ``-p`` off it, and one that comes to zero (a
    probability that underflowed) is dropped. Entries that share a place
    (a successor and its mirror) are summed, and ``b`` sums each row's terms
    in transition order. Raises :class:`NumericOverflowError` if a state's
    exit rate is not finite.

    Only the system and ``b`` outlive the call. Each per-transition array
    is deleted after its last use, and positions are int32 while every
    count fits, the index type scipy keeps; so the CSR arrays are the
    matrix's own, not copies, and the CSR is gone once ``tocsc`` returns.
    """
    n, dst = len(space), space.successors
    index = np.int32 if n + dst.size <= np.iinfo(np.int32).max else np.int64
    src = np.repeat(np.arange(n, dtype=index), np.diff(space.indptr))
    exit_rates = np.bincount(src, weights=space.rates, minlength=n)
    if not np.isfinite(exit_rates).all():
        raise NumericOverflowError(-1)
    prob = exit_rates[src]
    np.divide(space.rates, prob, out=prob)
    del exit_rates
    column = column.astype(index, copy=False)
    if flipped is not None:  # only the states solved for have rows
        kept = (column >= 0)[src] & ~flipped[src]
        src, dst, prob = src[kept], dst[kept], prob[kept]
        del kept
    row = column[src]  # each transition's row
    del src
    b = np.bincount(row, weights=prob * value[dst], minlength=size)
    col = column[dst]
    entry = np.negative(prob, out=prob)
    if flipped is not None:
        np.negative(entry, out=entry, where=flipped[dst])
    del prob, dst, column
    inner = col >= 0

    loop = inner & (row == col)
    diagonal = 1.0 + np.bincount(row[loop], weights=entry[loop], minlength=size)
    off = inner & ~loop
    del inner, loop
    row, col, entry = row[off], col[off], entry[off]
    del off
    # row i is its diagonal entry, then its other entries in transition
    # order; the CSC form sorts each column
    indptr = np.zeros(size + 1, dtype=index)
    np.cumsum(np.bincount(row, minlength=size) + 1, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=index)
    data = np.empty(indptr[-1])
    indices[indptr[:-1]] = np.arange(size, dtype=index)
    data[indptr[:-1]] = diagonal
    del diagonal
    row += np.arange(1, row.size + 1, dtype=index)  # each entry's place
    indices[row] = col
    data[row] = entry
    del row, col, entry
    # scipy is imported at its first use, not with the module: the CLI
    # imports this module for every command, and only the oracle needs scipy
    # (about 0.2 s and 26 MB). ``crngame oracle`` starts the import on
    # another thread during the state search, so the solve runs up to here
    # while the import finishes.
    from scipy.sparse import csr_matrix

    matrix = csr_matrix((data, indices, indptr), shape=(size, size)).tocsc()
    del data, indices, indptr
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    return matrix, b
