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


def splitmix64_stream(seed: int, count: int) -> np.ndarray:
    """The first ``count`` outputs of ``SplitMix64(seed).next_uint64()``,
    computed at once as uint64 (numpy's uint64 arithmetic wraps mod 2^64)."""
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_WEYL) + np.uint64(seed & MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))
