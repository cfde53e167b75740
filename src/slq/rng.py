"""Deterministic 64-bit PRNG for seeded graph generation.

The generator is SplitMix64: a Weyl sequence with increment
0x9E3779B97F4A7C15 whose state is scrambled by two xor-shift-multiply
rounds.  The algorithm is fixed here, independent of any library RNG, so
the same seed produces the same stream on every platform and the graphs
built from it are reproducible byte for byte.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_WEYL = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream seeded with an arbitrary 64-bit integer."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_uint64(self) -> int:
        """Next raw 64-bit output."""
        self.state = (self.state + _WEYL) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return (z ^ (z >> 31)) & MASK64

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling (unbiased)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        # largest multiple of bound that fits in 64 bits
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_uint64()
            if u < limit:
                return u % bound

    def shuffle_prefix(self, items: list, k: int) -> list:
        """Partial Fisher-Yates: the first k slots become a uniform sample
        without replacement, drawn in place."""
        n = len(items)
        if not 0 <= k <= n:
            raise ValueError("prefix length out of range")
        for i in range(k):
            j = i + self.below(n - i)
            items[i], items[j] = items[j], items[i]
        return items


def _mix(z: np.ndarray) -> np.ndarray:
    """The output scramble of SplitMix64, applied in place to an array of
    Weyl states (uint64 arithmetic wraps mod 2^64)."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def splitmix64_stream(seed: int, count: int) -> np.ndarray:
    """The first ``count`` outputs of ``SplitMix64(seed).next_uint64()``,
    computed at once as uint64."""
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_WEYL)
    return _mix(z + np.uint64(seed & MASK64))


def below_streams(seeds, counts, bounds) -> np.ndarray:
    """``[SplitMix64(s).below(b) for b in its bounds]`` for many streams at
    once.  Stream i has seed ``seeds[i]`` and the next ``counts[i]`` entries
    of ``bounds``, each in [1, 2^64).  Every draw is computed from its
    stream position in one pass; a stream with a rejected draw continues
    with ``below`` from its first rejection.  Returns the values as one
    uint64 array in the order of ``bounds``."""
    counts = np.asarray(counts, dtype=np.int64)
    bounds = np.asarray(bounds, dtype=np.uint64)
    if (bounds == 0).any():
        raise ValueError("bound must be positive")
    ends = counts.cumsum()
    # draw r of the flat order has the Weyl state origin + (r + 1) * WEYL,
    # where a stream's origin is its seed less WEYL times its first r
    origins = [
        (s - (e - c) * _WEYL) & MASK64 for s, e, c in zip(seeds, ends.tolist(), counts.tolist())
    ]
    u = np.arange(1, len(bounds) + 1, dtype=np.uint64)
    u *= np.uint64(_WEYL)
    u = _mix(np.add(u, np.array(origins, dtype=np.uint64).repeat(counts), out=u))
    values = u % bounds
    # below() rejects u >= 2^64 - (2^64 mod b), which implies u >= 2^64 - b
    stop = 0
    for r in np.flatnonzero(u >= np.uint64(0) - bounds).tolist():
        b = int(bounds[r])
        if r < stop or int(u[r]) < (1 << 64) - (1 << 64) % b:
            continue  # accepted, or in a stream already continued
        stream = int(ends.searchsorted(r, side="right"))
        rng = SplitMix64(origins[stream] + r * _WEYL)
        stop = int(ends[stream])
        values[r:stop] = np.array([rng.below(b) for b in bounds[r:stop].tolist()], dtype=np.uint64)
    return values
