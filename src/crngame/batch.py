"""Many independent trials of the scalar simulation engine in one compiled loop.

Runs one lane per trial. Each lane consumes its own xoshiro256** stream in
exactly the per-event order used by :func:`crngame.ssa.simulate` (one
uniform for the sojourn, one for the reaction choice, none once stopped),
propensities multiply factors in the same order, the exit rate is the same
left-to-right sum, and the sojourn uses the same libm ``log``, so a lane
reproduces the scalar engine's trajectory bit for bit: counts, event
counts, stop reasons and elapsed times. A caller that reads no time
(``times=False``, no ``max_time``) skips the sojourn's ``log`` and division
and gets no elapsed times; the sojourn's uniform is still drawn, so every
other output stays the same.

The loop is the C function in ``_lanes.c``. It keeps eight lanes abreast
in slots and walks the reaction tables once per step for all of them, the
slot index innermost. Lanes enter the slots in lane order as slots free; a
lane draws only what the scalar engine draws (nothing once terminal or
overflowing, the sojourn's uniform alone once out of time); and once no
lane is left to load, the survivors drain one after another at width 1.
A lane whose exit rate overflows, or whose next event would take a count
past 2^63 - 1, stops alone. With x86-64, glibc and GCC 12 or later, the
wide loop is compiled three times, for the x86-64-v4, x86-64-v3 and
baseline instruction sets, and the dynamic loader picks the copy the CPU
can run; every copy gives the same bits. On the benchmark's
``sweep_n1000`` calls an event costs about 13 ns in the v4 copy, 15 ns in
the v3 copy and 19 ns in the baseline copy, which is the one loop built
everywhere else.
The same library holds the exact oracle's state search (``_search.c``,
called by :func:`crngame.oracle.enumerate_states`). It is compiled from
both sources on first import with the C compiler Python was built with
(``sysconfig`` ``CC``), cached as ``__pycache__/_lanes.<sha256>.so`` beside
the sources (the hash covers the sources and the compiler command), and
loaded with :mod:`ctypes`. Where that directory is not writable the library
goes to a private temporary directory that lives as long as the process.

Both engines, and the oracle's state search, have one stop hook,
``stop_when_zero``: "a watched species count reached zero", which is what
final-state utilities need (see :meth:`crngame.game.TakeoverSuccess.stop_set`).
The batch engine has no per-event callback; the scalar engine's
``on_event`` is the way to see a trajectory event by event.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (MAX_COUNT, CompiledCrn, CountOverflowError, Crn, CrnError,
                   NumericOverflowError, start_state)
from .rng import XoshiroBatch
from .ssa import SimConfig, StopReason, watched_species

# indexed by the stop codes of _lanes.c; the code after them is _OVERFLOW,
# a non-finite exit rate, and _COUNT_OVERFLOW + r is a count overflow at
# reaction r
_REASON_CODES = (
    StopReason.TERMINAL,
    StopReason.TIME_EXHAUSTED,
    StopReason.EVENT_CEILING,
    StopReason.EARLY_STOP,
)
_OVERFLOW = len(_REASON_CODES)
_COUNT_OVERFLOW = _OVERFLOW + 1

_SOURCE = Path(__file__).with_name("_lanes.c")
# the exact oracle's state search, built into the same library
_SEARCH_SOURCE = Path(__file__).with_name("_search.c")
# No -ffast-math, and no fused multiply-adds (aarch64 compilers fuse by
# default, and the kernel's x86-64-v3 and v4 copies could): either would
# change the last bits of propensities and times.
_FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")
_LIBS = ("-lm",)


@dataclass
class BatchOutcome:
    """Per-trial outputs, indexed in trial order."""

    final_states: np.ndarray  # (trials, species) int64
    stop_reasons: list[StopReason]
    events: np.ndarray  # (trials,) int64
    elapsed: np.ndarray | None  # (trials,) float64; None if not asked for


@functools.cache
def _private_cache() -> Path:
    """A temporary directory of this process, removed when it exits."""
    path = tempfile.mkdtemp(prefix="crngame-lanes-")
    atexit.register(shutil.rmtree, path, True)
    return Path(path)


def _writable_cache(cache: Path) -> Path:
    try:
        cache.mkdir(exist_ok=True)
        with tempfile.TemporaryFile(dir=cache):
            return cache
    except OSError:
        return _private_cache()


class _Space(ctypes.Structure):
    """``struct crngame_space`` of ``_search.c``: what a state search found."""

    _fields_ = [("nstates", ctypes.c_int64), ("ntransitions", ctypes.c_int64),
                ("states", ctypes.c_void_p), ("indptr", ctypes.c_void_p),
                ("successors", ctypes.c_void_p), ("rates", ctypes.c_void_p),
                ("reaction", ctypes.c_int64), ("species", ctypes.c_int64)]


def _load_kernel() -> ctypes.CDLL:
    """Build the sources unless their library is cached, load it and type it."""
    sources = (_SOURCE, _SEARCH_SOURCE)
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    command = "\0".join(["", *compiler, *_FLAGS, *_LIBS]).encode()
    text = b"\0".join(source.read_bytes() for source in sources)
    name = f"_lanes.{hashlib.sha256(text + command).hexdigest()}.so"
    path = _SOURCE.parent / "__pycache__" / name
    if not path.exists():
        path = _writable_cache(path.parent) / name
    if not path.exists():
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
        os.close(fd)
        cmd = [*compiler, *_FLAGS, "-o", tmp, *map(str, sources), *_LIBS]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
            failure = proc.stderr if proc.returncode else None
        except OSError as exc:  # no compiler
            failure = str(exc)
        if failure is not None:
            os.unlink(tmp)
            raise RuntimeError(f"building the lane kernel failed: {shlex.join(cmd)}\n"
                               f"{failure}")
        os.replace(tmp, path)
    lib = ctypes.CDLL(str(path))
    i64, f64 = ctypes.c_int64, ctypes.c_double

    def array(dtype):
        return np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")

    ints, floats = array(np.int64), array(np.float64)
    lib.crngame_run_lanes.argtypes = [
        i64, i64, i64,  # lanes, species, reactions
        ints, ints, floats,  # falling factors
        ints, ints, ints,  # changes
        ints, i64,  # watched species
        floats, f64, i64, i64,  # kv, max_time, ceiling, timed
        array(np.uint64), ints,  # streams, counts
        ints, ints, floats,  # reasons, events, elapsed
        floats, floats,  # scratch: counts as doubles, running sums
    ]
    lib.crngame_run_lanes.restype = None
    lib.crngame_search.argtypes = [
        i64, i64,  # species, reactions
        ints, ints, ints,  # falling factors
        ints, ints, ints,  # changes
        ints, floats,  # change groups, kv
        ints, i64,  # watched species
        ints, i64,  # initial state, cap
        ctypes.POINTER(_Space),
    ]
    lib.crngame_search.restype = i64
    lib.crngame_free_space.argtypes = [ctypes.POINTER(_Space)]
    lib.crngame_free_space.restype = None
    return lib


_kernel = _load_kernel()
_run_lanes = _kernel.crngame_run_lanes
# lanes the kernel keeps in flight; its scratch holds this many rows
_WIDTH = ctypes.c_int64.in_dll(_kernel, "crngame_lane_width").value


def _flat(rows, dtypes) -> tuple[np.ndarray, ...]:
    """Row offsets of ``rows`` (lists of pairs), then each column of the pairs."""
    start = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    items = [item for row in rows for item in row]
    return (start,) + tuple(np.array([item[i] for item in items], dtype=dtype)
                            for i, dtype in enumerate(dtypes))


def simulate_batch(crn: Crn, initial_states: np.ndarray, config: SimConfig,
                   rng: XoshiroBatch,
                   stop_when_zero: tuple[int, ...] = (),
                   times: bool = True) -> BatchOutcome:
    """Simulate one trial per row of ``initial_states``.

    ``rng`` carries one stream per trial, already advanced past any
    initial-state sampling; each lane's stream is advanced in place.
    ``stop_when_zero`` lists species indices; a trial stops with EARLY_STOP
    as soon as any listed count is zero (checked on the initial state and
    after every event), the same stop rule as scalar
    :func:`~crngame.ssa.simulate`. A trial whose exit rate is not finite,
    or whose next event would take a count above ``MAX_COUNT``, stops there
    alone; then the error scalar ``simulate`` raises
    (:class:`NumericOverflowError` or :class:`CountOverflowError`) is raised
    for the lowest such trial at the earliest such event, with its ``lane``
    and ``event``.
    With ``times=False`` the outcome's ``elapsed`` is None and, unless
    ``config.max_time`` is set, no sojourn time is computed; every other
    output, and each stream's advance, is the same as with ``times=True``.
    """
    nspecies = len(crn.species)
    initial_states = start_state(initial_states, nspecies, ndim=2)
    trials = initial_states.shape[0]
    if rng.size != trials:
        raise CrnError("rng lane count does not match trial count")
    watch = np.array(watched_species(stop_when_zero, nspecies), dtype=np.int64)

    kin = CompiledCrn(crn.reactions, config.volume)
    nrxn = kin.size
    counts = initial_states.copy(order="C")
    reasons = np.zeros(trials, dtype=np.int64)
    events = np.zeros(trials, dtype=np.int64)
    elapsed = np.zeros(trials, dtype=np.float64)
    if trials:
        max_time = config.max_time if config.max_time is not None else float("inf")
        _run_lanes(
            trials, nspecies, nrxn,
            *_flat(kin.factors, (np.int64, np.float64)),
            *_flat(kin.deltas, (np.int64, np.int64)),
            watch, watch.size,
            np.array(kin.kv, dtype=np.float64), max_time, config.event_ceiling,
            times,
            rng._state, counts, reasons, events, elapsed,
            np.empty(_WIDTH * max(nspecies, 1)), np.empty(_WIDTH * max(nrxn, 1)))
        bad = np.flatnonzero(reasons >= _OVERFLOW)
        if bad.size:
            lane = int(bad[np.argmin(events[bad])])
            raise _lane_error(crn, kin, counts[lane].tolist(), int(reasons[lane]),
                              lane, int(events[lane]))

    return BatchOutcome(
        final_states=counts,
        stop_reasons=[_REASON_CODES[c] for c in reasons],
        events=events,
        elapsed=elapsed if times else None,
    )


def _lane_error(crn: Crn, kin: CompiledCrn, counts: list[int], reason: int,
                lane: int, event: int) -> CrnError:
    """The error of a lane stopped with overflow code ``reason`` at ``counts``.

    It is the error scalar :func:`~crngame.ssa.simulate` raises there,
    numbered by lane.
    """
    if reason == _OVERFLOW:
        return NumericOverflowError(kin.first_nonfinite(counts), lane, event)
    reaction = reason - _COUNT_OVERFLOW
    species = next(si for si, d in kin.deltas[reaction] if counts[si] + d > MAX_COUNT)
    return CountOverflowError(crn.species.names[species], reaction, lane, event)
