"""Exact stochastic simulation of a CRN as a continuous-time Markov chain.

This is the scalar direct-method engine, and the reference the batch
engine (:mod:`crngame.batch`) is tested against, and the lane kernel's
algorithm line for line. At every event each propensity is computed afresh
(see :class:`~crngame.core.CompiledCrn`) and added to a left-to-right
running sum, whose last value is the exit rate; the sojourn time is
exponential with that rate, and the fired reaction is the first whose
running sum reaches a uniform fraction of it. Both engines do these float
operations in the same order, so batched and scalar runs agree bit for bit.

The stop contract is the batch engine's and the oracle's state search's:
``stop_when_zero`` lists species indices, and a run stops with EARLY_STOP
as soon as any listed count is zero (the search makes such a state
absorbing). One optional ``on_event`` callback sees each executed event; the
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

from .core import (
    MAX_COUNT,
    MAX_SEED,
    CompiledCrn,
    ConfigError,
    CountOverflowError,
    Crn,
    CountVector,
    CrnError,
    NumericOverflowError,
    start_state,
)
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
    hang. ``volume`` is positive and finite; ``seed`` is a 64-bit word. A bad
    value is a ``ConfigError``.
    """

    volume: float = 1.0
    max_time: float | None = None
    max_events: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.volume < math.inf:
            raise ConfigError(f"volume must be positive and finite, got {self.volume!r}")
        if self.max_time is not None and not self.max_time > 0.0:
            raise ConfigError("max_time must be positive or None")
        if self.max_events is not None and self.max_events < 1:
            raise ConfigError("max_events must be >= 1 or None")
        if self.max_events is not None and self.max_events > MAX_COUNT:
            raise ConfigError(f"max_events must be at most {MAX_COUNT}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigError(f"seed must be between 0 and {MAX_SEED}")

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
    checks; ``counts`` is the live state, to be read within the call. An
    event that would take a count above ``MAX_COUNT`` raises
    :class:`~crngame.core.CountOverflowError` instead, before
    ``on_event``. With a fixed seed, config, CRN, and initial state the
    trajectory is reproducible.
    """
    return _core_loop(crn, initial_state, config, Xoshiro256(config.seed),
                      stop_when_zero, on_event)


def _core_loop(crn, initial_state, config, rng, stop_when_zero=(), on_event=None):
    """Direct-method loop on a caller-provided, possibly pre-advanced stream."""
    counts = start_state(initial_state, len(crn.species)).tolist()
    watched = watched_species(stop_when_zero, len(crn.species))
    compiled = CompiledCrn(crn.reactions, config.volume)
    max_time = config.max_time if config.max_time is not None else float("inf")
    ceiling = config.event_ceiling

    def finish(reason, t, events):
        return SimResult(np.array(counts, dtype=np.int64), reason, events, t)

    for i in watched:
        if counts[i] == 0:
            return finish(StopReason.EARLY_STOP, 0.0, 0)

    rows = list(zip(compiled.kv, compiled.factors))
    deltas = compiled.deltas
    log = math.log
    max_count = MAX_COUNT
    u01 = rng.next_u01
    t = 0.0
    events = 0
    while True:
        cum = []
        total = 0.0
        for p, factors in rows:  # CompiledCrn.propensity, inlined
            for si, m in factors:
                p *= counts[si] - m
            total += p
            cum.append(total)
        if total != total or total == float("inf"):
            raise NumericOverflowError(compiled.first_nonfinite(counts))
        if total == 0.0:
            return finish(StopReason.TERMINAL, t, events)
        sojourn = -log(u01()) / total
        if t + sojourn > max_time:
            return finish(StopReason.TIME_EXHAUSTED, max_time, events)
        t += sojourn
        threshold = u01() * total
        # the first reaction whose running sum reaches the threshold; if
        # none does, the loop leaves the last one
        for chosen, partial in enumerate(cum):
            if threshold <= partial:
                break
        for si, d in deltas[chosen]:
            c = counts[si] + d
            if c > max_count:
                raise CountOverflowError(crn.species.names[si], chosen)
            counts[si] = c
        events += 1
        if on_event is not None:
            on_event(t, sojourn, chosen, counts)
        # a plain loop: a generator expression here makes every event slower
        for i in watched:
            if counts[i] == 0:
                return finish(StopReason.EARLY_STOP, t, events)
        if events >= ceiling:
            return finish(StopReason.EVENT_CEILING, t, events)
