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

Observers consume the event stream incrementally and may request an early
stop (see :class:`Observer`). Estimators run many trials at once on the
batch engine, whose lanes reproduce this loop bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

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
    EARLY_STOP = "early-stop"  # an observer requested the stop


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


@dataclass(frozen=True)
class TrajectoryEvent:
    """One executed reaction: its sojourn time and index.

    ``resulting_state`` is filled only when an observer asks to retain
    states; the live engine hands observers a view they must not keep.
    """

    sojourn: float
    reaction_index: int
    resulting_state: CountVector | None = None


class Observer(object):
    """Streaming consumer of a trajectory.

    Subclasses override any of the hooks. ``on_start``/``on_event`` may
    return True to request an early stop; the engine then reports
    ``StopReason.EARLY_STOP`` without executing further reactions.
    ``counts`` arguments are live engine state: read within the call,
    copy if you need to keep them.
    """

    def on_start(self, counts: Sequence[int]) -> bool | None:
        return None

    def on_event(self, time: float, sojourn: float, reaction_index: int,
                 counts: Sequence[int]) -> bool | None:
        return None

    def on_stop(self, reason: StopReason, counts: Sequence[int], time: float,
                events: int) -> None:
        return None


class TrajectoryRecorder(Observer):
    """Keeps the full event list; intended for tests and small runs."""

    def __init__(self):
        self.events: list[TrajectoryEvent] = []

    def on_event(self, time, sojourn, reaction_index, counts):
        state = np.array(counts, dtype=np.int64)
        self.events.append(TrajectoryEvent(sojourn, reaction_index, state))


class TrajectoryDumpObserver(Observer):
    """Writes the tab-separated trajectory dump format.

    Header line: ``#`` followed by the species names. Event lines:
    cumulative time, reaction index, then all species counts in table order.
    """

    def __init__(self, stream, species_names: Sequence[str]):
        self._stream = stream
        self._names = tuple(species_names)

    def on_start(self, counts):
        self._stream.write("#\t" + "\t".join(self._names) + "\n")

    def on_event(self, time, sojourn, reaction_index, counts):
        row = [repr(time), str(reaction_index)]
        row.extend(str(c) for c in counts)
        self._stream.write("\t".join(row) + "\n")


class ZeroCountMonitor(Observer):
    """Requests a stop as soon as any watched species count is zero.

    Used to end runs whose remaining dynamics cannot matter anymore, e.g.
    a consensus pair where one side has died out. Mirrors the
    ``stop_when_zero`` hook of the batch engine.
    """

    def __init__(self, species_indices: Sequence[int]):
        self._watched = tuple(species_indices)

    def _tripped(self, counts: Sequence[int]) -> bool:
        for i in self._watched:
            if counts[i] == 0:
                return True
        return False

    def on_start(self, counts):
        return self._tripped(counts)

    def on_event(self, time, sojourn, reaction_index, counts):
        return self._tripped(counts)


@dataclass
class SimResult:
    final_state: CountVector
    stop_reason: StopReason
    events: int
    elapsed: float


def step(crn: Crn, state: CountVector, volume: float,
         rng: Xoshiro256) -> tuple[TrajectoryEvent, CountVector] | None:
    """Execute one event of :func:`simulate`'s loop on ``rng``; None if terminal.

    The stream advances exactly as in the first event of :func:`simulate`:
    one uniform for the sojourn, then one for the reaction choice.
    """
    recorder = TrajectoryRecorder()
    result = _core_loop(crn, state, SimConfig(volume, max_events=1), (recorder,), rng)
    if not recorder.events:
        return None
    return recorder.events[0], result.final_state


def simulate(crn: Crn, initial_state: CountVector, config: SimConfig,
             observers: Iterable[Observer] = ()) -> SimResult:
    """Run one trajectory from ``initial_state`` until a stop condition.

    Stop conditions, checked in this order: an observer requests a stop
    (EARLY_STOP); the exit rate is 0 (TERMINAL); the next sojourn would pass
    ``max_time`` (TIME_EXHAUSTED, reported at ``max_time`` with the pending
    reaction not executed); the event ceiling is reached (EVENT_CEILING).
    Observers see each executed event exactly once, in order. With a fixed
    seed, config, CRN, and initial state the trajectory is reproducible.
    """
    return _core_loop(crn, initial_state, config, tuple(observers),
                      Xoshiro256(config.seed))


def _core_loop(crn, initial_state, config, observers, rng):
    """Direct-method loop on a caller-provided, possibly pre-advanced stream."""
    if len(initial_state) != len(crn.species):
        raise CrnError("initial state dimension does not match CRN")
    if (np.asarray(initial_state) < 0).any():
        raise CrnError("initial counts must be nonnegative")
    compiled = CompiledCrn(crn.reactions, config.volume)
    nrxn = compiled.size
    counts = [int(c) for c in initial_state]
    max_time = config.max_time if config.max_time is not None else float("inf")
    ceiling = config.event_ceiling

    def finish(reason, t, events):
        final = np.array(counts, dtype=np.int64)
        for obs in observers:
            obs.on_stop(reason, final, t, events)
        return SimResult(final, reason, events, t)

    stop = False
    for obs in observers:
        if obs.on_start(counts):
            stop = True
    if stop:
        return finish(StopReason.EARLY_STOP, 0.0, 0)

    props = [compiled.propensity(j, counts) for j in range(nrxn)]
    deltas = compiled.deltas
    dependents = compiled.dependents
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
        if observers:
            stop = False
            for obs in observers:
                if obs.on_event(t, sojourn, chosen, counts):
                    stop = True
            if stop:
                return finish(StopReason.EARLY_STOP, t, events)
        if events >= ceiling:
            return finish(StopReason.EVENT_CEILING, t, events)

