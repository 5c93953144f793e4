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

# one lane of a block draw: 128 bits whose low byte is 1, little-endian
_LANE_ONE = (1).to_bytes(16, "little")


class SplitMix64:
    """splitmix64 stream; one 64-bit output per step."""

    __slots__ = ("_state", "_lanes", "_one", "_steps")

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64
        # lane constants of the longest block drawn so far: ONE holds 1 in
        # each of `_lanes` 128-bit lanes, and `_steps` holds (i + 1) * GAMMA
        # in lane i
        self._lanes = self._one = self._steps = 0

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

    def flags_below(self, count: int, limit: int) -> bytes:
        """Advance the stream by `count` outputs; byte i of the result is 1 if
        output i is < limit and 0 if not, for 0 <= limit <= 2**64.

        The outputs are computed together, in a fixed number of big-int
        operations: output i is mixed in bits 128*i .. 128*i + 63 of one int,
        and no operation carries into the next lane.  Its state is
        state + (i + 1) * GAMMA, the lane-wise xor-shifts leave their spill
        above bit 63 where the lane mask drops it, and each product stays
        below 2**128.  Bit 64 of lane i of (2**64 - 1 + limit) * ONE - z is
        set iff output z_i < limit, and byte 8 of each lane reads it out.
        """
        if count < 0 or not 0 <= limit <= MASK64 + 1:
            raise ValueError(f"need count >= 0 and 0 <= limit <= 2**64, got {count} and {limit}")
        block = (1 << 128 * count) - 1
        if count > self._lanes:
            one = int.from_bytes(_LANE_ONE * count, "little")
            # the low lanes of ONE**2 hold 1, 2, ..., count: lane i sums i + 1 ones
            self._lanes, self._one, self._steps = count, one, ((one * one) & block) * _GAMMA
        one = self._one & block
        lanes = one * MASK64
        z = (self._state * one + (self._steps & block)) & lanes
        z = (((z ^ (z >> 30)) & lanes) * _MIX1) & lanes
        z = (((z ^ (z >> 27)) & lanes) * _MIX2) & lanes
        z = (z ^ (z >> 31)) & lanes
        self._state = (self._state + count * _GAMMA) & MASK64
        return ((MASK64 + limit) * one - z).to_bytes(16 * count, "little")[8::16]

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
