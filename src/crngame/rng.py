"""Deterministic, splittable random number generation.

All stochastic code in this package draws from xoshiro256** streams seeded
through the SplitMix64 finalizer. Both algorithms are public domain
(Blackman & Vigna, https://prng.di.unimi.it/) and are implemented here twice,
once over Python integers (:class:`Xoshiro256`, which the scalar engine
draws from) and once over numpy uint64 arrays (:class:`XoshiroBatch`, one
stream per lane, which seeds the lanes and draws their initial states).
The batch engine's C loop (``_lanes.c``) makes every simulation draw of a
lane from its :class:`XoshiroBatch` state with xoshiro256** written once
more, so a scalar simulation and a batch of simulations consume *identical*
per-stream bit sequences. Results therefore depend only on seeds and
inputs, never on platform, worker count, or batching.

Seed derivation is a fixed tree: ``child_seed(master, i)`` applies the
SplitMix64 finalizer to ``master + (i + 1) * GOLDEN`` where ``GOLDEN`` is the
64-bit golden-ratio constant. Trial ``j`` of a run seeded with ``s`` always
uses the stream ``Xoshiro256(child_seed(s, j))``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 2^-53; multiplying an integer in [1, 2^53] by this is exact scaling.
_U01_SCALE = 2.0**-53

# Shift and multiplier constants of the vectorized generator, made once.
_U5, _U7, _U9, _U11 = (np.uint64(v) for v in (5, 7, 9, 11))
_U17, _U19, _U45, _U57 = (np.uint64(v) for v in (17, 19, 45, 57))


def _splitmix64(z: int) -> int:
    """SplitMix64 finalizer of a 64-bit value."""
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def child_seed(master: int, index: int) -> int:
    """Derive the seed for child stream ``index`` of ``master``.

    The derivation is pure 64-bit arithmetic, documented in the module
    docstring, and identical on every platform.
    """
    return _splitmix64((master + (index + 1) * _GOLDEN) & _MASK64)


def seed_to_state(seed: int) -> tuple[int, int, int, int]:
    """Expand a 64-bit seed into a xoshiro256** state via SplitMix64."""
    z = seed & _MASK64
    out = []
    for _ in range(4):
        z = (z + _GOLDEN) & _MASK64
        out.append(_splitmix64(z))
    return tuple(out)  # type: ignore[return-value]


class Xoshiro256(object):
    """Scalar xoshiro256** generator.

    ``next_u64`` yields the raw stream; ``next_u01`` maps each draw to a
    float in the half-open-at-zero interval (0, 1] via
    ``((x >> 11) + 1) * 2**-53``, so ``-log(u)`` is always finite.
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        self._s0, self._s1, self._s2, self._s3 = seed_to_state(seed)

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = s1 * 5 & _MASK64
        result = ((x << 7 | x >> 57) & _MASK64) * 9 & _MASK64
        t = s1 << 17 & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self._s0, self._s1, self._s2 = s0, s1, s2
        self._s3 = (s3 << 45 | s3 >> 19) & _MASK64
        return result

    def next_u01(self) -> float:
        """Uniform draw in (0, 1]."""
        return ((self.next_u64() >> 11) + 1) * _U01_SCALE

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound).

        Uses the scaled-float construction ``floor(u * bound)`` with one
        u64 draw, matching :meth:`XoshiroBatch.next_below` exactly. The
        bias is at most ``bound * 2**-53``. Past ``2**53`` some values are
        never drawn, so a :class:`~crngame.game.UniformCount`, whose draw
        this is, holds at most ``2**53`` values.
        """
        u = (self.next_u64() >> 11) * _U01_SCALE  # in [0, 1)
        i = int(u * bound)
        return bound - 1 if i >= bound else i


class XoshiroBatch(object):
    """Vectorized xoshiro256**: one independent stream per lane.

    Lane ``j`` produces exactly the same sequence as ``Xoshiro256(seed_j)``;
    this is what makes batch simulation reproduce per-trial scalar runs bit
    for bit. The state is a C-contiguous (4, lanes) array, ``_state``,
    advanced in place by the draws here and by
    :func:`crngame.batch.simulate_batch`.
    """

    def __init__(self, seeds: np.ndarray):
        seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
        self._state = np.empty((4, seeds.size), dtype=np.uint64)
        z = seeds.copy()
        golden = np.uint64(_GOLDEN)
        for i in range(4):
            z = z + golden
            self._state[i] = self._mix(z)

    @staticmethod
    def _mix(z: np.ndarray) -> np.ndarray:
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    @property
    def size(self) -> int:
        return self._state.shape[1]

    def next_u64(self) -> np.ndarray:
        """Every lane's next output."""
        s0, s1, s2, s3 = self._state  # row views: the updates below are in place
        x = s1 * _U5
        result = (x << _U7 | x >> _U57) * _U9
        t = s1 << _U17
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3[:] = s3 << _U45 | s3 >> _U19
        return result

    def next_u01(self) -> np.ndarray:
        """Uniform draws in (0, 1], one per lane."""
        # the shifted output is below 2**53, so the conversion and the + 1 are exact
        return ((self.next_u64() >> _U11) + 1.0) * _U01_SCALE

    def next_below(self, bound: int) -> np.ndarray:
        """Uniform integers in [0, bound), one per lane, as
        :meth:`Xoshiro256.next_below` draws them (``bound`` at most ``2**53``)."""
        u = (self.next_u64() >> _U11).astype(np.float64) * _U01_SCALE
        i = (u * bound).astype(np.int64)
        return np.minimum(i, bound - 1)
