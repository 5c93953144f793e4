"""Deterministic 64-bit PRNG for reproducible graph generation and shuffles.

The generator is splitmix64: state advances by the 64-bit golden-gamma
constant and each output is a finalizing mix of the new state.  It is tiny,
seedable, and easy to reproduce bit-for-bit in any language, which is why it
backs every randomized feature of this package (G(n,p) sampling, random
vertex orderings, per-restart seed derivation).
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 stream; one 64-bit output per step."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) using the top 53 bits of one output."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling (no modulo bias)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (MASK64 + 1) - ((MASK64 + 1) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, drawing indices high-to-low.

        Draws each index as randbelow(i + 1) would, inlined on a local state.
        """
        gamma, mix1, mix2, mask, two64 = _GAMMA, _MIX1, _MIX2, MASK64, MASK64 + 1
        state = self._state
        for i in range(len(items) - 1, 0, -1):
            bound = i + 1
            limit = two64 - two64 % bound
            while True:
                state = (state + gamma) & mask
                z = ((state ^ (state >> 30)) * mix1) & mask
                z = ((z ^ (z >> 27)) * mix2) & mask
                z ^= z >> 31
                if z < limit:
                    break
            j = z % bound
            items[i], items[j] = items[j], items[i]
        self._state = state


def derive_seed(master: int, index: int) -> int:
    """Child seed for the index-th substream of a master seed.

    Equals the index-th output of ``SplitMix64(master)``, so substreams are
    prefix-stable: the first r children do not depend on how many are drawn.
    """
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return SplitMix64((master + index * _GAMMA) & MASK64).next_u64()
