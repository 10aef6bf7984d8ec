"""Exact ground truth for small systems: reachable-state enumeration and
absorption probabilities of the embedded jump chain.

Working on the embedded chain (transition probabilities = rate ratios)
rather than the generator keeps the numbers well scaled even when rate
constants span many orders of magnitude; absorption probabilities do not
depend on sojourn times.

The first-step system is solved by SuperLU with its columns ordered by
minimum degree on Aᵀ+A. Reversible CRNs give diagonally dominant, nearly
structurally symmetric systems, the case for which the SuperLU user's guide
(Demmel, Eisenstat, Gilbert, Li & Liu, 1999) recommends that ordering; on
approximate majority at n = 600 it holds half the LU nonzeros of SuperLU's
default COLAMD. On a one-way CRN, whose system has no mirrored entries,
minimum degree was measured several times slower than COLAMD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import CompiledCrn, Crn, CountVector, CrnError, NumericOverflowError

SOLVE_RESIDUAL_BOUND = 1e-10


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

    def sources(self) -> np.ndarray:
        """The source state of each transition."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def exit_rates(self) -> np.ndarray:
        """Each state's total outgoing rate, summed in transition order."""
        return np.bincount(self.sources(), weights=self.rates, minlength=len(self))


def enumerate_states(crn: Crn, initial_state: CountVector, volume: float = 1.0,
                     state_cap: int = 10**6) -> StateSpace:
    """Breadth-first closure of ``initial_state`` under applicable reactions.

    The search takes one level at a time: every (state, reaction)
    propensity of the frontier at once, then the successors in row-major
    order, which numbers the states as a one-state-at-a-time search would.
    Raises :class:`StateSpaceTooLargeError` once more than ``state_cap``
    states have been discovered, or :class:`NumericOverflowError` at the
    first non-finite propensity, whichever comes first in that order.
    """
    initial = np.asarray(initial_state, dtype=np.int64)
    if initial.ndim != 1 or initial.size != len(crn.species):
        raise CrnError("initial state dimension does not match CRN")
    if (initial < 0).any():
        raise CrnError("initial counts must be nonnegative")

    kin = CompiledCrn(crn.reactions, volume)
    delta = np.array([r.delta for r in crn.reactions],
                     dtype=np.int64).reshape(kin.size, initial.size)
    # reactions with the same change lead from any state to one successor
    same_change: dict[tuple[int, ...], list[int]] = {}
    for j, rxn in enumerate(crn.reactions):
        same_change.setdefault(rxn.delta, []).append(j)
    parallel_groups = [g for g in same_change.values() if len(g) > 1]
    row_key = np.dtype((np.void, delta.itemsize * initial.size))

    index_of = {initial.tobytes(): 0}
    frontier = initial[None, :]
    levels, degrees, successors, rates = [frontier], [], [], []
    while frontier.shape[0]:
        prop = np.empty((frontier.shape[0], kin.size))
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(kin.size):
                col = np.full(frontier.shape[0], kin.kv[j])
                for si, m in kin.factors[j]:
                    col *= frontier[:, si] - m
                prop[:, j] = col
            nonfinite = np.flatnonzero(~np.isfinite(prop))
            for group in parallel_groups:
                _merge_parallel(prop, group)
        src, rxn = np.nonzero(prop)
        if nonfinite.size:
            # the states found before the first non-finite propensity may
            # still cross the cap first
            before = src * kin.size + rxn < nonfinite[0]
            src, rxn = src[before], rxn[before]
        succ = frontier[src] + delta[rxn]
        known = len(index_of)
        target = np.array([index_of.setdefault(key, len(index_of))
                           for key in succ.view(row_key).ravel().tolist()],
                          dtype=np.int64)
        # the initial state never counts against the cap
        if len(index_of) > max(state_cap, known):
            raise StateSpaceTooLargeError(state_cap)
        if nonfinite.size:
            raise NumericOverflowError(int(nonfinite[0] % kin.size))
        found, first = np.unique(target, return_index=True)
        frontier = succ[first[found >= known]]
        levels.append(frontier)
        degrees.append(np.bincount(src, minlength=prop.shape[0]))
        successors.append(target)
        rates.append(prop[src, rxn])

    indptr = np.zeros(len(index_of) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(degrees), out=indptr[1:])
    return StateSpace(np.concatenate(levels), indptr, np.concatenate(successors),
                      np.concatenate(rates))


def _merge_parallel(prop: np.ndarray, group: list[int]) -> None:
    """Sum the columns of reactions with the same change into one entry per row.

    The sum runs in reaction order and lands in the row's first nonzero
    column of the group, where a search in reaction order first meets it.
    """
    block = prop[:, group]
    total = np.zeros(prop.shape[0])
    for col in block.T:
        total += col
    first = (block != 0.0).argmax(axis=1)
    block[:] = 0.0
    block[np.arange(prop.shape[0]), first] = total
    prop[:, group] = block


def absorption_probabilities(space: StateSpace,
                             predicate: Callable[[CountVector], bool]) -> np.ndarray:
    """Probability, per state, of eventually absorbing where ``predicate`` holds.

    Solves the first-step equations of the embedded jump chain by sparse LU
    with partial pivoting, columns ordered by minimum degree on Aᵀ+A, and
    verifies the residual is at most ``SOLVE_RESIDUAL_BOUND``. Raises
    :class:`NoAbsorptionError` if any state cannot reach an absorbing state
    (as then no absorption probability is well defined), and
    :class:`NumericOverflowError` if a state's exit rate is not finite.
    """
    n = len(space)
    absorbing_idx = np.flatnonzero(space.absorbing)
    if absorbing_idx.size == 0:
        raise NoAbsorptionError("no absorbing state is reachable")

    # imported here, not with the module: the CLI imports this module for
    # every command, and only the oracle needs scipy (loading it adds about
    # 0.4 s and 30 MB to a command's start-up)
    from scipy.sparse import csr_matrix, identity
    from scipy.sparse.csgraph import breadth_first_order
    from scipy.sparse.linalg import spsolve

    # Every transient state must reach some absorbing state: search the
    # reversed graph from a super-source (node n) linked to every absorbing state.
    src, dst = space.sources(), space.successors
    reverse = csr_matrix(
        (np.ones(dst.size + absorbing_idx.size, dtype=np.int8),
         (np.concatenate([dst, np.full(absorbing_idx.size, n)]),
          np.concatenate([src, absorbing_idx]))),
        shape=(n + 1, n + 1))
    reached = np.zeros(n + 1, dtype=bool)
    reached[breadth_first_order(reverse, n, return_predecessors=False)] = True
    if not reached.all():
        stranded = int(np.flatnonzero(~reached)[0])
        raise NoAbsorptionError(
            f"state {stranded} cannot reach any absorbing state")

    hit = np.zeros(n)
    for ai in absorbing_idx:
        if predicate(space.states[ai]):
            hit[ai] = 1.0

    transient = np.flatnonzero(~space.absorbing)
    if transient.size == 0:
        return hit

    exit_rates = space.exit_rates()
    if not np.isfinite(exit_rates).all():
        raise NumericOverflowError(-1)
    t_pos = np.cumsum(~space.absorbing) - 1
    prob = space.rates / exit_rates[src]
    into_absorbing = space.absorbing[dst]
    b = np.bincount(t_pos[src[into_absorbing]],
                    weights=prob[into_absorbing] * hit[dst[into_absorbing]],
                    minlength=transient.size)
    inner = ~into_absorbing
    p_tt = csr_matrix((prob[inner], (t_pos[src[inner]], t_pos[dst[inner]])),
                      shape=(transient.size, transient.size))
    system = (identity(transient.size, format="csr") - p_tt).tocsc()
    x = spsolve(system, b, permc_spec="MMD_AT_PLUS_A")
    x = np.atleast_1d(x)
    residual = np.abs(system @ x - b).max()
    if residual > SOLVE_RESIDUAL_BOUND:
        raise CrnError(f"absorption solve residual {residual:.3e} exceeds bound")

    out = hit.copy()
    out[transient] = x
    return out

