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
depend on sojourn times. The reachability check and the first-step system
are built straight from the search's CSR arrays. Only SuperLU's inputs are
alive while it factorises: the CSC of I − P_tt, the right-hand side and two
arrays of one entry per state. Every per-transition array built on the way
is freed before the call, so none of them adds to the peak the factor sets.

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
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from typing import Sequence

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
    as ``(successor, rate)`` rows, built on each access.
    """

    states: np.ndarray  # (n_states, n_species) int64
    indptr: np.ndarray  # (n_states + 1,) int64
    successors: np.ndarray  # (n_transitions,) int64
    rates: np.ndarray  # (n_transitions,) float64
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
                     stop_when_zero: Sequence[int] = ()) -> StateSpace:
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
    """
    initial = start_state(initial_state, len(crn.species))
    watch = np.array(watched_species(stop_when_zero, len(crn.species)), dtype=np.int64)

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
        return StateSpace(_copied(found.states, (n, initial.size), np.int64),
                          _copied(found.indptr, (n + 1,), np.int64),
                          _copied(found.successors, (m,), np.int64),
                          _copied(found.rates, (m,), np.float64))
    finally:
        _kernel.crngame_free_space(ctypes.byref(found))


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
    When SuperLU is called, the system, its right-hand side, the absorbing
    states' values and the transient states' numbers are all this function
    holds; the returned array is the absorbing states' values, filled in.
    """
    won = np.asarray(won, dtype=bool)
    if won.shape != (len(space),):
        raise CrnError(f"won must hold one entry per state ({len(space)}), "
                       f"got shape {won.shape}")
    absorbing_idx = np.flatnonzero(space.absorbing)
    if absorbing_idx.size == 0:
        raise NoAbsorptionError("no absorbing state is reachable")

    # scipy is imported in the functions that use it, not with the module:
    # the CLI imports this module for every command, and only the oracle
    # needs scipy (loading it after the CLI's imports adds about 0.16 s and
    # 26 MB to a command's start-up)
    from scipy.sparse.linalg import splu

    _check_reachable(space, absorbing_idx)
    hit = np.zeros(len(space))  # pages that stay untouched cost no memory
    hit[absorbing_idx[won[absorbing_idx]]] = 1.0
    del absorbing_idx

    transient = np.flatnonzero(~space.absorbing)
    if transient.size == 0:
        return hit
    system, b = _first_step_system(space, hit, transient.size)
    try:
        x = splu(system, permc_spec="MMD_AT_PLUS_A", relax=SUPERLU_RELAX,
                 panel_size=SUPERLU_PANEL_SIZE).solve(b)
    except RuntimeError as exc:  # a zero pivot: rounding made the system singular
        raise CrnError(f"absorption solve failed: {exc}") from None
    residual = np.abs(system @ x - b).max()
    if residual > SOLVE_RESIDUAL_BOUND:
        raise CrnError(f"absorption solve residual {residual:.3e} exceeds bound")

    hit[transient] = x  # now every state's probability
    return hit


def _check_reachable(space: StateSpace, absorbing_idx: np.ndarray) -> None:
    """Raise :class:`NoAbsorptionError` unless every state reaches an absorbing one.

    Searches the reversed graph from a super-source (node n) linked to every
    absorbing state. Its column i is state i's row of the CSR arrays; an
    absorbing state's column, empty there, gets the super-source's edge.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.csgraph import breadth_first_order

    n = len(space)
    before = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(space.absorbing, out=before[1:])
    colptr = np.append(space.indptr + before, space.indptr[-1] + before[-1])
    rows = np.insert(space.successors, space.indptr[absorbing_idx], n)
    reverse = csc_matrix((np.ones(rows.size, dtype=np.int8), rows, colptr),
                         shape=(n + 1, n + 1))
    reached = np.zeros(n + 1, dtype=bool)
    reached[breadth_first_order(reverse, n, return_predecessors=False)] = True
    if not reached.all():
        stranded = int(np.flatnonzero(~reached)[0])
        raise NoAbsorptionError(
            f"state {stranded} cannot reach any absorbing state")


def _first_step_system(space: StateSpace, hit: np.ndarray, size: int):
    """The first-step equations (I − P_tt) x = b of the ``size`` transient states.

    Each transition's probability is its rate over its source's exit rate.
    I − P_tt is in CSC, each entry as scipy's ``identity - p_tt`` computes
    it: ``1.0 - p`` on the diagonal and ``-p`` off it, and one that comes to
    zero (a probability that underflowed) is dropped. ``b`` sums, per
    transient state and in transition order, the probabilities of its
    transitions into absorbing states, times their ``hit`` value. Raises
    :class:`NumericOverflowError` if a state's exit rate is not finite.

    Only the system and ``b`` outlive the call. Each per-transition array
    is deleted after its last use, and positions are int32 while every
    count fits, the index type scipy keeps; so the CSR arrays are the
    matrix's own, not copies, and the CSR is gone once ``tocsc`` returns.
    """
    from scipy.sparse import csr_matrix

    n, dst = len(space), space.successors
    index = np.int32 if n + dst.size <= np.iinfo(np.int32).max else np.int64
    src = np.repeat(np.arange(n, dtype=index), np.diff(space.indptr))
    exit_rates = np.bincount(src, weights=space.rates, minlength=n)
    if not np.isfinite(exit_rates).all():
        raise NumericOverflowError(-1)
    prob = exit_rates[src]
    np.divide(space.rates, prob, out=prob)
    del exit_rates
    t_pos = np.cumsum(~space.absorbing, dtype=index) - 1
    row = t_pos[src]  # each transition's source among the transient states
    del src
    into_absorbing = space.absorbing[dst]
    b = np.bincount(row[into_absorbing],
                    weights=prob[into_absorbing] * hit[dst[into_absorbing]],
                    minlength=size)
    inner = ~into_absorbing
    del into_absorbing
    col = t_pos[dst]  # read only where the successor is transient
    del t_pos

    loop = inner & (row == col)
    diagonal = np.ones(size)
    diagonal[row[loop]] = 1.0 - prob[loop]
    off = inner & ~loop
    del inner, loop
    row, col, prob = row[off], col[off], prob[off]
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
    data[row] = np.negative(prob, out=prob)
    del row, col, prob
    matrix = csr_matrix((data, indices, indptr), shape=(size, size))
    del data, indices, indptr
    matrix.eliminate_zeros()
    return matrix.tocsc(), b
