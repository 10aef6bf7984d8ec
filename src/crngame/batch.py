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

The loop is the C function in ``_lanes.c``; it runs each lane to its stop,
one lane after another, and a lane whose exit rate overflows stops alone.
It is compiled on first import with the C compiler Python was built with
(``sysconfig`` ``CC``), cached as ``__pycache__/_lanes.<sha256>.so`` beside
the source (the hash covers the source and the compiler command), and
loaded with :mod:`ctypes`. Where that directory is not writable the library
goes to a private temporary directory that lives as long as the process.

Both engines have one stop hook, ``stop_when_zero``: "a watched species
count reached zero", which is what final-state utilities need. The batch
engine has no per-event callback; the scalar engine's ``on_event`` is the
way to see a trajectory event by event.
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

from .core import CompiledCrn, Crn, CrnError, NumericOverflowError
from .rng import XoshiroBatch
from .ssa import SimConfig, StopReason, watched_species

# indexed by the stop codes of _lanes.c; the code after them is _OVERFLOW
_REASON_CODES = (
    StopReason.TERMINAL,
    StopReason.TIME_EXHAUSTED,
    StopReason.EVENT_CEILING,
    StopReason.EARLY_STOP,
)
_OVERFLOW = len(_REASON_CODES)

_SOURCE = Path(__file__).with_name("_lanes.c")
# No -ffast-math, and no fused multiply-adds (aarch64 compilers fuse by
# default): either would change the last bits of propensities and times.
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
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


def _load_kernel() -> ctypes.CDLL:
    """Build ``_SOURCE`` unless its library is cached, load it and type it."""
    source = _SOURCE.read_bytes()
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    command = "\0".join(["", *compiler, *_FLAGS, *_LIBS]).encode()
    name = f"_lanes.{hashlib.sha256(source + command).hexdigest()}.so"
    path = _SOURCE.parent / "__pycache__" / name
    if not path.exists():
        path = _writable_cache(path.parent) / name
    if not path.exists():
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
        os.close(fd)
        cmd = [*compiler, *_FLAGS, "-o", tmp, str(_SOURCE), *_LIBS]
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
        array(np.uint64), ints, floats,  # streams, counts, running-sum scratch
        ints, ints, floats,  # reasons, events, elapsed
    ]
    lib.crngame_run_lanes.restype = None
    return lib


_run_lanes = _load_kernel().crngame_run_lanes


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
    :func:`~crngame.ssa.simulate`. A non-finite exit rate raises
    :class:`NumericOverflowError` naming the first trial that has one at the
    earliest event index at which any does (its ``lane`` and ``event``).
    With ``times=False`` the outcome's ``elapsed`` is None and, unless
    ``config.max_time`` is set, no sojourn time is computed; every other
    output, and each stream's advance, is the same as with ``times=True``.
    """
    initial_states = np.asarray(initial_states, dtype=np.int64)
    nspecies = len(crn.species)
    if initial_states.ndim != 2 or initial_states.shape[1] != nspecies:
        raise CrnError("initial_states must be (trials, species)")
    if (initial_states < 0).any():
        raise CrnError("initial counts must be nonnegative")
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
            rng._state, counts, np.empty(max(nrxn, 1)),
            reasons, events, elapsed)
        bad = np.flatnonzero(reasons == _OVERFLOW)
        if bad.size:
            lane = int(bad[np.argmin(events[bad])])
            raise NumericOverflowError.in_trial(
                lane, kin.first_nonfinite(counts[lane].tolist()), lane=lane,
                event=int(events[lane]))

    return BatchOutcome(
        final_states=counts,
        stop_reasons=[_REASON_CODES[c] for c in reasons],
        events=events,
        elapsed=elapsed if times else None,
    )
