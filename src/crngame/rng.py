"""Deterministic, splittable random number generation.

All stochastic code in this package draws from xoshiro256** streams seeded
through the SplitMix64 finalizer. Both algorithms are public domain
(Blackman & Vigna, https://prng.di.unimi.it/) and are implemented here twice,
once over Python integers and once over numpy uint64 arrays, and xoshiro256**
once more in the batch engine's C loop (``_lanes.c``), so that a scalar
simulation and a batch of simulations consume *identical* per-stream bit
sequences. Results therefore depend only on seeds and inputs,
never on platform, worker count, or batching.

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
        bias is at most ``bound * 2**-53`` and ``bound`` must stay well
        below 2**53.
        """
        u = (self.next_u64() >> 11) * _U01_SCALE  # in [0, 1)
        i = int(u * bound)
        return bound - 1 if i >= bound else i

    def getstate(self) -> tuple[int, int, int, int]:
        return (self._s0, self._s1, self._s2, self._s3)


class XoshiroBatch(object):
    """Vectorized xoshiro256**: one independent stream per lane.

    Lane ``j`` produces exactly the same sequence as ``Xoshiro256(seed_j)``;
    this is what makes batch simulation reproduce per-trial scalar runs bit
    for bit. The state is a C-contiguous (4, lanes) array advanced in place,
    by the draws here and by :func:`crngame.batch.simulate_batch`, with one
    preallocated scratch row, so a draw over all lanes allocates only its
    result. Pickling keeps the state alone; the views into it are rebuilt.
    """

    def __init__(self, seeds: np.ndarray):
        seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
        state = np.empty((4, seeds.size), dtype=np.uint64)
        z = seeds.copy()
        golden = np.uint64(_GOLDEN)
        for i in range(4):
            z = z + golden
            state[i] = self._mix(z)
        self._adopt(state)

    def _adopt(self, state: np.ndarray) -> None:
        self._state = state
        _, s1, s2, s3 = state
        t = np.empty(state.shape[1], dtype=np.uint64)
        self._s1 = s1
        # one state transition of every lane, as in-place ufunc calls
        self._transition = (
            (np.left_shift, s1, _U17, t),
            # s2 ^= s0 and s3 ^= s1, then s0 ^= s3 and s1 ^= s2, two rows at once
            (np.bitwise_xor, state[2:4], state[0:2], state[2:4]),
            (np.bitwise_xor, state[0:2], state[3:1:-1], state[0:2]),
            (np.bitwise_xor, s2, t, s2),
            (np.left_shift, s3, _U45, t),
            (np.right_shift, s3, _U19, s3),
            (np.bitwise_or, s3, t, s3),
        )

    def __getstate__(self):
        # row views and scratch are rebuilt around the state when unpickled
        return (self._state,)

    def __setstate__(self, state) -> None:
        self._adopt(state[0])

    @classmethod
    def _from_state(cls, state: np.ndarray) -> "XoshiroBatch":
        out = object.__new__(cls)
        out._adopt(np.ascontiguousarray(state))
        return out

    @classmethod
    def concatenate(cls, batches: "list[XoshiroBatch]") -> "XoshiroBatch":
        """One batch holding the lanes of ``batches`` in order (state is copied)."""
        return cls._from_state(np.concatenate([b._state for b in batches], axis=1))

    @staticmethod
    def _mix(z: np.ndarray) -> np.ndarray:
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    @property
    def size(self) -> int:
        return self._state.shape[1]

    def take(self, idx: np.ndarray) -> "XoshiroBatch":
        """New batch holding the selected lanes (state is copied)."""
        return self._from_state(self._state[:, idx])

    def _next_bits(self, count: int, idx: np.ndarray | None) -> np.ndarray:
        """(count, lanes): each selected lane's next ``count`` outputs."""
        if idx is not None:
            sub = self.take(idx)
            bits = sub._next_bits(count, None)
            self._state[:, idx] = sub._state
            return bits
        bits = np.empty((count, self.size), dtype=np.uint64)
        for row in bits:
            np.multiply(self._s1, _U5, row)
            for ufunc, a, b, out in self._transition:
                ufunc(a, b, out)
        rot = np.left_shift(bits, _U7)
        np.right_shift(bits, _U57, bits)
        np.bitwise_or(bits, rot, bits)
        np.multiply(bits, _U9, bits)
        return bits

    def next_u64(self, idx: np.ndarray | None = None) -> np.ndarray:
        """Advance the selected lanes (all lanes if ``idx`` is None)."""
        return self._next_bits(1, idx)[0]

    def next_u01(self, idx: np.ndarray | None = None, count: int = 1) -> np.ndarray:
        """Uniform draws in (0, 1], one per selected lane.

        With ``count`` > 1, a (count, lanes) array of each lane's next
        ``count`` draws in stream order, made in one pass.
        """
        bits = self._next_bits(count, idx)
        np.right_shift(bits, _U11, bits)
        # bits < 2**53, so both the conversion and the + 1 are exact
        u = np.add(bits, 1.0)
        u *= _U01_SCALE
        return u if count > 1 else u[0]

    def next_below(self, bound: int, idx: np.ndarray | None = None) -> np.ndarray:
        """Uniform integers in [0, bound), one per selected lane."""
        u = (self.next_u64(idx) >> _U11).astype(np.float64) * _U01_SCALE
        i = (u * bound).astype(np.int64)
        return np.minimum(i, bound - 1)
