"""Lockstep vectorized twin of the scalar simulation engine.

Runs many independent trials simultaneously, one numpy lane per trial. Each
lane consumes its own xoshiro256** stream in exactly the per-step order used
by :func:`crngame.ssa.simulate` (one uniform for the sojourn, one for the
reaction choice, none once stopped), propensities multiply factors in the
same order, and the exit rate is the same left-to-right sum, so a lane
reproduces the scalar engine's integer trajectory bit for bit. Elapsed
times can differ from the scalar engine in the last ulp because numpy's
vector log and libm may round differently; counts, event counts, and stop
reasons never differ.

Lanes may carry their own rate constants (``rates``). A lane whose rate for
a reaction is 0 follows, draw for draw, the trajectory of the CRN without
that reaction: the reaction's propensity is 0, so the left-to-right exit
rate gains only ``+0.0``, and since the choice threshold ``u * total`` never
exceeds ``total`` the reaction is never picked once the running sum has
reached it. This is what lets one batch hold the lanes of a game and of its
baseline with the opponents removed (see :mod:`crngame.game`).

The step works in place on per-species rows: counts are stored as
(species, lanes), propensities go into preallocated rows that are then
turned into their running sum, and the fired reaction's change is applied
to every species at once. Every live lane fires once per step, so one step
counter stands for every live lane's event count.

The batch engine supports no general observers; its one stop hook is
"a watched species count reached zero", which is what final-state
utilities need. Anything richer belongs on the scalar engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CompiledCrn, Crn, CrnError, NumericOverflowError
from .rng import XoshiroBatch
from .ssa import SimConfig, StopReason

_REASON_CODES = (
    StopReason.TERMINAL,
    StopReason.TIME_EXHAUSTED,
    StopReason.EVENT_CEILING,
    StopReason.EARLY_STOP,
)
_TERMINAL, _TIME, _CEILING, _EARLY = range(4)


@dataclass
class BatchOutcome:
    """Per-trial outputs, indexed in trial order."""

    final_states: np.ndarray  # (trials, species) int64
    stop_reasons: list[StopReason]
    events: np.ndarray  # (trials,) int64
    elapsed: np.ndarray  # (trials,) float64


class _StepRows(object):
    """Preallocated rows for one set of live lanes, and the propensity
    computation over them as a flat list of in-place ufunc calls.

    Reaction ``r``'s row is ``kv * f0 * f1 * ...`` over its falling factors
    in :class:`~crngame.core.CompiledCrn` order. A factor ``c - m`` with
    ``m >= 1`` is computed once per step into a ``shifted`` row.
    """

    def __init__(self, kin: CompiledCrn, counts: np.ndarray, kv: np.ndarray):
        width = counts.shape[1]
        self.counts = counts
        self.props = props = np.empty((kin.size, width))
        pairs = sorted({f for factors in kin.factors for f in factors if f[1]})
        shifted = {pair: np.empty(width) for pair in pairs}
        # row 0 is constant 1; rows r >= 1 hold "running sum r-1 < threshold"
        self.below = np.ones((kin.size, width))
        self.change = np.empty((counts.shape[0], width))
        self.low = np.empty(width)
        ops = [(np.subtract, counts[si], float(m), shifted[si, m]) for si, m in pairs]
        for ri, factors in enumerate(kin.factors):
            rows = [shifted[f] if f[1] else counts[f[0]] for f in factors]
            ops.append((np.multiply, kv[ri], rows[0] if rows else 1.0, props[ri]))
            ops.extend((np.multiply, props[ri], row, props[ri]) for row in rows[1:])
        # the left-to-right running sum, in place; the last row is the exit rate
        ops.extend((np.add, props[ri - 1], props[ri], props[ri])
                   for ri in range(1, kin.size))
        self.ops = ops

    def propensities(self) -> np.ndarray:
        """Running sums of the propensities; the last row is the exit rate."""
        for ufunc, a, b, out in self.ops:
            ufunc(a, b, out)
        return self.props


def _change_rows(crn: Crn) -> np.ndarray:
    """(species, reactions) map from "running sum below threshold" rows to counts.

    Column 0 is reaction 0's change and column r the difference between the
    changes of reactions r and r - 1, so summing the columns of the rows a
    lane's threshold still exceeded gives the change of its chosen reaction.
    """
    deltas = np.array([r.delta for r in crn.reactions], dtype=np.float64) \
        .reshape(len(crn.reactions), len(crn.species))
    steps = deltas.copy()
    steps[1:] -= deltas[:-1]
    return np.ascontiguousarray(steps.T)


def simulate_batch(crn: Crn, initial_states: np.ndarray, config: SimConfig,
                   rng: XoshiroBatch,
                   stop_when_zero: tuple[int, ...] = (),
                   rates: np.ndarray | None = None) -> BatchOutcome:
    """Simulate one trial per row of ``initial_states``.

    ``rng`` carries one stream per trial, already advanced past any
    initial-state sampling. ``stop_when_zero`` lists species indices; a
    trial stops with EARLY_STOP as soon as any listed count is zero
    (checked on the initial state and after every event), mirroring a
    zero-count monitor observer on the scalar engine. ``rates``, a
    (trials, reactions) array, replaces the CRN's rate constants lane by
    lane; a rate of 0 removes the reaction from that lane. A non-finite
    exit rate raises :class:`NumericOverflowError` naming the first trial
    that has one at the first step where any does (its ``lane``).
    """
    initial_states = np.asarray(initial_states, dtype=np.int64)
    if initial_states.ndim != 2 or initial_states.shape[1] != len(crn.species):
        raise CrnError("initial_states must be (trials, species)")
    if (initial_states < 0).any():
        raise CrnError("initial counts must be nonnegative")
    trials = initial_states.shape[0]
    if rng.size != trials:
        raise CrnError("rng lane count does not match trial count")
    nrxn = len(crn.reactions)
    if rates is None:
        rates = np.tile([r.rate_constant for r in crn.reactions], (trials, 1))
    rates = np.asarray(rates, dtype=np.float64)
    if rates.shape != (trials, nrxn):
        raise CrnError("rates must be (trials, reactions)")
    if not (rates >= 0.0).all():
        raise CrnError("rates must be nonnegative")

    kin = CompiledCrn(crn.reactions, config.volume)
    change = _change_rows(crn)
    max_time = config.max_time if config.max_time is not None else float("inf")
    ceiling = config.event_ceiling
    watch = tuple(stop_when_zero)

    out_states = np.empty_like(initial_states)
    out_reasons = np.empty(trials, dtype=np.int64)
    out_events = np.zeros(trials, dtype=np.int64)
    out_elapsed = np.zeros(trials, dtype=np.float64)

    # Live arrays hold only still-running trials; idx maps lanes back to
    # trial indices. Counts are exact small integers stored as float64.
    idx = np.arange(trials)
    counts = np.ascontiguousarray(initial_states.T, dtype=np.float64)
    kv = np.ascontiguousarray(rates.T * np.array(kin.scale)[:, None])
    t = np.zeros(trials)
    step = 0  # events fired so far by every live lane

    def retire(mask: np.ndarray, reason_code: int, elapsed=None) -> None:
        done = mask.nonzero()[0]
        orig = idx[done]
        out_states[orig] = counts[:, done].T
        out_reasons[orig] = reason_code
        out_events[orig] = step
        out_elapsed[orig] = t[done] if elapsed is None else elapsed

    def compact(keep_mask: np.ndarray) -> None:
        nonlocal idx, counts, kv, t, rng
        keep = keep_mask.nonzero()[0]
        idx = idx[keep]
        counts = np.ascontiguousarray(counts[:, keep])
        kv = np.ascontiguousarray(kv[:, keep])
        t = t[keep]
        rng = rng.take(keep)

    def zero_watched() -> np.ndarray | None:
        """Mask of lanes with a watched count at zero, or None if there are none."""
        if not watch or not idx.size:
            return None
        low = counts[watch[0]]
        if len(watch) > 1:
            low = np.minimum(low, counts[watch[1]], out=rows.low)
            for zi in watch[2:]:
                np.minimum(low, counts[zi], out=low)
        return low == 0.0 if low.min() == 0.0 else None

    if not nrxn:
        retire(np.ones(trials, dtype=bool), _TERMINAL)
        compact(np.zeros(trials, dtype=bool))

    rows = _StepRows(kin, counts, kv)
    tripped = zero_watched()
    if tripped is not None:
        retire(tripped, _EARLY)
        compact(~tripped)

    # numpy would warn on float overflow; it is detected by the finiteness
    # check below and raised as NumericOverflowError, so silence the warning
    with np.errstate(over="ignore", invalid="ignore"):
        while idx.size:
            if rows.counts is not counts:
                rows = _StepRows(kin, counts, kv)
            props = rows.propensities()
            total = props[-1]
            if not total.max() < np.inf:
                _raise_overflow(kin, kv, counts, total, idx)
            if total.min() == 0.0:
                terminal = total == 0.0
                retire(terminal, _TERMINAL)
                compact(~terminal)
                continue

            # Both draws of the step in one pass. A lane that runs out of
            # time fires too, after it was retired; its stream is discarded.
            sojourn, threshold = rng.next_u01(count=2)
            np.log(sojourn, sojourn)
            np.divide(sojourn, total, sojourn)  # -dt
            done = None
            if max_time != np.inf:
                late = t - sojourn > max_time
                if late.any():
                    retire(late, _TIME, elapsed=max_time)
                    done = late
            np.subtract(t, sojourn, t)
            np.multiply(threshold, total, threshold)
            np.less(props[:-1], threshold, rows.below[1:])
            np.matmul(change, rows.below, rows.change)
            np.add(counts, rows.change, counts)
            step += 1

            stopped = zero_watched()
            if stopped is not None:
                if done is not None:
                    stopped &= ~done
                retire(stopped, _EARLY)
                done = stopped if done is None else done | stopped
            if step >= ceiling:
                retire(np.ones(idx.size, dtype=bool) if done is None else ~done,
                       _CEILING)
                break
            if done is not None:
                compact(~done)

    return BatchOutcome(
        final_states=out_states,
        stop_reasons=[_REASON_CODES[c] for c in out_reasons],
        events=out_events,
        elapsed=out_elapsed,
    )


def _raise_overflow(kin: CompiledCrn, kv: np.ndarray, counts: np.ndarray,
                    total: np.ndarray, idx: np.ndarray):
    """Name the first lane whose exit rate is not finite, and its first
    non-finite propensity."""
    lane = int((~np.isfinite(total)).nonzero()[0][0])
    rxn = kin.first_nonfinite(counts[:, lane], kv[:, lane])
    trial = int(idx[lane])
    raise NumericOverflowError(
        rxn, f"trial {trial}: non-finite propensity in reaction {rxn}", lane=trial)
