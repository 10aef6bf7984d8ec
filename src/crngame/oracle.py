"""Exact ground truth for small systems: reachable-state enumeration and
absorption probabilities of the embedded jump chain.

Working on the embedded chain (transition probabilities = rate ratios)
rather than the generator keeps the numbers well scaled even when rate
constants span many orders of magnitude; absorption probabilities do not
depend on sojourn times.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import spsolve

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
    """Reachable states with merged transition rates.

    ``states[0]`` is the initial state. ``transitions[i]`` lists
    ``(successor_index, rate)`` pairs with parallel reactions merged by
    summing their propensities; a state is absorbing iff its list is empty.
    """

    states: np.ndarray  # (n_states, n_species) int64
    transitions: list[list[tuple[int, float]]]
    absorbing: np.ndarray  # (n_states,) bool

    def __len__(self) -> int:
        return self.states.shape[0]

    def exit_rates(self) -> np.ndarray:
        return np.array([sum(r for _, r in row) for row in self.transitions])


def enumerate_states(crn: Crn, initial_state: CountVector, volume: float = 1.0,
                     state_cap: int = 10**6) -> StateSpace:
    """Breadth-first closure of ``initial_state`` under applicable reactions.

    Raises :class:`StateSpaceTooLargeError` as soon as more than
    ``state_cap`` states have been discovered.
    """
    initial = np.asarray(initial_state, dtype=np.int64)
    if initial.ndim != 1 or initial.size != len(crn.species):
        raise CrnError("initial state dimension does not match CRN")
    if (initial < 0).any():
        raise CrnError("initial counts must be nonnegative")

    kin = CompiledCrn(crn.reactions, volume)
    start = tuple(int(c) for c in initial)
    index_of: dict[tuple[int, ...], int] = {start: 0}
    states: list[tuple[int, ...]] = [start]
    transitions: list[list[tuple[int, float]]] = []
    queue = deque([0])
    while queue:
        state = states[queue.popleft()]
        merged: dict[int, float] = {}
        for ri in range(kin.size):
            rate = kin.propensity(ri, state)
            if rate == 0.0:
                continue
            if not math.isfinite(rate):
                raise NumericOverflowError(ri)
            succ = list(state)
            for si, d in kin.deltas[ri]:
                succ[si] += d
            succ = tuple(succ)
            ti = index_of.get(succ)
            if ti is None:
                ti = len(states)
                if ti >= state_cap:
                    raise StateSpaceTooLargeError(state_cap)
                index_of[succ] = ti
                states.append(succ)
                queue.append(ti)
            merged[ti] = merged.get(ti, 0.0) + rate
        transitions.append(list(merged.items()))

    absorbing = np.array([not row for row in transitions], dtype=bool)
    return StateSpace(np.array(states, dtype=np.int64), transitions, absorbing)


def absorption_probabilities(space: StateSpace,
                             predicate: Callable[[CountVector], bool]) -> np.ndarray:
    """Probability, per state, of eventually absorbing where ``predicate`` holds.

    Solves the first-step equations of the embedded jump chain by sparse LU
    with partial pivoting and verifies the residual is at most
    ``SOLVE_RESIDUAL_BOUND``. Raises :class:`NoAbsorptionError` if any state
    cannot reach an absorbing state (as then no absorption probability is
    well defined).
    """
    n = len(space)
    absorbing_idx = np.flatnonzero(space.absorbing)
    if absorbing_idx.size == 0:
        raise NoAbsorptionError("no absorbing state is reachable")

    # Every transient state must reach some absorbing state: reverse BFS.
    reverse: list[list[int]] = [[] for _ in range(n)]
    for si, row in enumerate(space.transitions):
        for ti, _ in row:
            reverse[ti].append(si)
    reached = np.zeros(n, dtype=bool)
    stack = list(absorbing_idx)
    reached[absorbing_idx] = True
    while stack:
        ti = stack.pop()
        for si in reverse[ti]:
            if not reached[si]:
                reached[si] = True
                stack.append(si)
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

    t_pos = {int(si): j for j, si in enumerate(transient)}
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    b = np.zeros(transient.size)
    for j, si in enumerate(transient):
        row = space.transitions[si]
        total = sum(rate for _, rate in row)
        for ti, rate in row:
            prob = rate / total
            if space.absorbing[ti]:
                b[j] += prob * hit[ti]
            else:
                rows.append(j)
                cols.append(t_pos[ti])
                vals.append(prob)

    p_tt = csr_matrix((vals, (rows, cols)), shape=(transient.size, transient.size))
    system = (identity(transient.size, format="csr") - p_tt).tocsc()
    x = spsolve(system, b)
    x = np.atleast_1d(x)
    residual = np.abs(system @ x - b).max()
    if residual > SOLVE_RESIDUAL_BOUND:
        raise CrnError(f"absorption solve residual {residual:.3e} exceeds bound")

    out = hit.copy()
    out[transient] = x
    return out
