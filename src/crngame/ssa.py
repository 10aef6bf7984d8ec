"""Exact stochastic simulation of a CRN as a continuous-time Markov chain.

This is the scalar direct-method engine, and the reference the batch
engine (:mod:`crngame.batch`) is tested against: in each state the exit
rate is the sum of all reaction propensities (see
:class:`~crngame.core.CompiledCrn`), the sojourn time is exponential with
that rate, and the fired reaction is selected by inverse-CDF over the
propensities. After a firing, only the propensities of reactions whose
reactant support intersects the fired reaction's changed species are
recomputed; the exit rate is always re-summed left to right over the full
propensity array so that batched and scalar runs agree bit for bit.

The stop contract is the batch engine's: ``stop_when_zero`` lists species
indices, and a run stops with EARLY_STOP as soon as any listed count is
zero. One optional ``on_event`` callback sees each executed event; the
``simulate`` command writes its trajectory dump with it. Estimators run
many trials at once on the batch engine, whose lanes reproduce this loop
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .core import CompiledCrn, Crn, CountVector, CrnError, NumericOverflowError
from .rng import Xoshiro256

# Guard against nonterminating CRNs when the caller sets no limits at all.
HARD_EVENT_GUARD = 10**8


class StopReason(Enum):
    """Why a simulation stopped."""

    TERMINAL = "terminal"  # exit rate 0: no reaction applicable
    TIME_EXHAUSTED = "time-exhausted"
    EVENT_CEILING = "event-ceiling"
    EARLY_STOP = "early-stop"  # a watched species count is zero


@dataclass(frozen=True)
class SimConfig:
    """Simulation limits and determinism inputs.

    ``max_time``/``max_events`` of None mean unbounded, but an unbounded
    event count is still capped by :data:`HARD_EVENT_GUARD` so a
    nonterminating CRN surfaces as an EVENT_CEILING truncation instead of a
    hang.
    """

    volume: float = 1.0
    max_time: float | None = None
    max_events: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.volume > 0.0:
            raise CrnError(f"volume must be positive, got {self.volume!r}")
        if self.max_time is not None and not self.max_time > 0.0:
            raise CrnError("max_time must be positive or None")
        if self.max_events is not None and self.max_events < 1:
            raise CrnError("max_events must be >= 1 or None")

    @property
    def event_ceiling(self) -> int:
        return self.max_events if self.max_events is not None else HARD_EVENT_GUARD


@dataclass
class SimResult:
    final_state: CountVector
    stop_reason: StopReason
    events: int
    elapsed: float


def watched_species(stop_when_zero: Sequence[int], nspecies: int) -> tuple[int, ...]:
    """``stop_when_zero`` as a tuple of ints; each must index a species."""
    watched = tuple(int(i) for i in stop_when_zero)
    if any(not 0 <= i < nspecies for i in watched):
        raise CrnError("stop_when_zero names a species index out of range")
    return watched


def step(crn: Crn, state: CountVector, volume: float,
         rng: Xoshiro256) -> tuple[float, int, CountVector] | None:
    """Execute one event of :func:`simulate`'s loop on ``rng``; None if terminal.

    Returns ``(sojourn, reaction_index, resulting_state)``. The stream
    advances exactly as in the first event of :func:`simulate`: one uniform
    for the sojourn, then one for the reaction choice.
    """
    fired = []
    result = _core_loop(crn, state, SimConfig(volume, max_events=1), rng,
                        on_event=lambda t, soj, j, counts: fired.append((soj, j)))
    if not fired:
        return None
    return (*fired[0], result.final_state)


def simulate(crn: Crn, initial_state: CountVector, config: SimConfig,
             stop_when_zero: Sequence[int] = (),
             on_event: Callable[[float, float, int, Sequence[int]], object]
             | None = None) -> SimResult:
    """Run one trajectory from ``initial_state`` until a stop condition.

    Stop conditions, checked in this order: a species listed in
    ``stop_when_zero`` has count zero (EARLY_STOP; checked on the initial
    state and after every event); the exit rate is 0 (TERMINAL); the next
    sojourn would pass ``max_time`` (TIME_EXHAUSTED, reported at
    ``max_time`` with the pending reaction not executed); the event ceiling
    is reached (EVENT_CEILING). ``on_event(time, sojourn, reaction_index,
    counts)`` is called once per executed event, in order, before the stop
    checks; ``counts`` is the live state, to be read within the call. With a
    fixed seed, config, CRN, and initial state the trajectory is
    reproducible.
    """
    return _core_loop(crn, initial_state, config, Xoshiro256(config.seed),
                      stop_when_zero, on_event)


def _core_loop(crn, initial_state, config, rng, stop_when_zero=(), on_event=None):
    """Direct-method loop on a caller-provided, possibly pre-advanced stream."""
    if len(initial_state) != len(crn.species):
        raise CrnError("initial state dimension does not match CRN")
    if (np.asarray(initial_state) < 0).any():
        raise CrnError("initial counts must be nonnegative")
    watched = watched_species(stop_when_zero, len(crn.species))
    compiled = CompiledCrn(crn.reactions, config.volume)
    nrxn = compiled.size
    counts = [int(c) for c in initial_state]
    max_time = config.max_time if config.max_time is not None else float("inf")
    ceiling = config.event_ceiling

    def finish(reason, t, events):
        return SimResult(np.array(counts, dtype=np.int64), reason, events, t)

    for i in watched:
        if counts[i] == 0:
            return finish(StopReason.EARLY_STOP, 0.0, 0)

    props = [compiled.propensity(j, counts) for j in range(nrxn)]
    deltas = compiled.deltas
    dependents = compiled.dependents()
    prop_of = compiled.propensity
    log = math.log
    u01 = rng.next_u01
    t = 0.0
    events = 0
    while True:
        total = 0.0
        for p in props:
            total += p
        if total != total or total == float("inf"):
            raise NumericOverflowError(compiled.first_nonfinite(counts))
        if total == 0.0:
            return finish(StopReason.TERMINAL, t, events)
        sojourn = -log(u01()) / total
        if t + sojourn > max_time:
            return finish(StopReason.TIME_EXHAUSTED, max_time, events)
        t += sojourn
        threshold = u01() * total
        cum = 0.0
        chosen = nrxn - 1
        for j in range(nrxn):
            cum += props[j]
            if threshold <= cum:
                chosen = j
                break
        for si, d in deltas[chosen]:
            counts[si] += d
        events += 1
        for j in dependents[chosen]:
            props[j] = prop_of(j, counts)
        if on_event is not None:
            on_event(t, sojourn, chosen, counts)
        # a plain loop: a generator expression here makes every event slower
        for i in watched:
            if counts[i] == 0:
                return finish(StopReason.EARLY_STOP, t, events)
        if events >= ceiling:
            return finish(StopReason.EVENT_CEILING, t, events)
