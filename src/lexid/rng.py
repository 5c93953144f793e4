"""Deterministic 64-bit PRNG for reproducible graph generation and shuffles.

The generator is splitmix64: state advances by the 64-bit golden-gamma
constant and each output is a finalizing mix of the new state.  It is tiny,
seedable, and easy to reproduce bit-for-bit in any language, which is why it
backs every randomized feature of this package (G(n,p) sampling, random
vertex orderings, per-restart seed derivation).

No step of the mix carries from one output to the next, so G(n, p) rows and
shuffles draw their outputs in blocks: up to MAX_LANES outputs at once, each
in its own 128-bit lane of one Python int, in a fixed number of big-int
operations per block.  Every block draw gives the same outputs, and leaves
the same state, as one next_u64() per output.
"""

from __future__ import annotations

import sys
from array import array
from operator import mod

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TWO64 = MASK64 + 1

# one lane of a block draw: 128 bits whose low byte is 1, little-endian
_LANE_ONE = (1).to_bytes(16, "little")

# the most outputs one block draws; longer draws take several blocks
MAX_LANES = 512

# lane constants of the longest block drawn so far, shared by every generator:
# (lanes, ONE, STEPS), where ONE holds 1 in each 128-bit lane and STEPS holds
# (i + 1) * GAMMA in lane i.  Every tuple stored is valid for its lane count,
# so threads that race on it at worst build it twice.
_lane_constants = (0, 0, 0)


def _block(state: int, count: int) -> tuple[int, int]:
    """(ONE, z) for the `count` outputs that follow `state`, 0 <= count <= MAX_LANES:
    ONE holds 1 in each of `count` 128-bit lanes, and lane i of z holds output i.

    The outputs are computed together, in a fixed number of big-int
    operations, and no operation carries into the next lane.  Lane i starts
    as state + (i + 1) * GAMMA, the lane-wise xor-shifts leave their spill
    above bit 63 where the lane mask drops it, and each product stays below
    2**128.
    """
    global _lane_constants
    block = (1 << 128 * count) - 1
    cached, one, steps = _lane_constants
    if count > cached:
        one = int.from_bytes(_LANE_ONE * count, "little")
        # the low lanes of ONE**2 hold 1, 2, ..., count: lane i sums i + 1 ones
        steps = ((one * one) & block) * _GAMMA
        _lane_constants = (count, one, steps)
    one &= block
    lanes = one * MASK64
    z = (state * one + (steps & block)) & lanes
    z = (((z ^ (z >> 30)) & lanes) * _MIX1) & lanes
    z = (((z ^ (z >> 27)) & lanes) * _MIX2) & lanes
    return one, (z ^ (z >> 31)) & lanes


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

    def flags_below(self, count: int, limit: int) -> bytes:
        """Advance the stream by `count` outputs; byte i of the result is 1 if
        output i is < limit and 0 if not, for 0 <= limit <= 2**64.

        The outputs are drawn in blocks of at most MAX_LANES.  Bit 64 of
        lane i of (2**64 - 1 + limit) * ONE - z is set iff output z_i < limit,
        and byte 8 of each lane reads it out.
        """
        if count < 0 or not 0 <= limit <= _TWO64:
            raise ValueError(f"need count >= 0 and 0 <= limit <= 2**64, got {count} and {limit}")
        state, flags = self._state, []
        for start in range(0, count, MAX_LANES):
            size = min(MAX_LANES, count - start)
            one, z = _block(state, size)
            flags.append(((MASK64 + limit) * one - z).to_bytes(16 * size, "little")[8::16])
            state = (state + size * _GAMMA) & MASK64
        self._state = state
        return b"".join(flags)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, drawing indices high-to-low.

        Draws each index as randbelow(i + 1) would, so the permutation and
        the state left behind are those of one randbelow per index, but in
        blocks of up to MAX_LANES outputs.  The draw for index i is kept when
        it is below 2**64 - 2**64 % (i + 1), which is at least 2**64 - i; so a
        block whose largest output is below 2**64 - hi, for its highest index
        hi, keeps every draw.  Otherwise the exact limits find the block's
        first rejected draw: the block ends there, the rejected output is
        consumed, and the next block draws that index again.  A draw is
        rejected with probability below len(items) / 2**64.
        """
        state, hi = self._state, len(items) - 1
        while hi > 0:
            count = min(hi, MAX_LANES)
            one, z = _block(state, count)
            outputs = array("Q", z.to_bytes(16 * count, "little"))[::2]
            if sys.byteorder == "big":  # array reads machine byte order
                outputs.byteswap()
            bounds = range(hi + 1, hi + 1 - count, -1)
            kept = used = count
            # bit 64 of lane i of z + hi * ONE is set iff output i >= 2**64 - hi
            if (z + hi * one) >> 64 & one:
                for k, (x, bound) in enumerate(zip(outputs, bounds)):
                    if x >= _TWO64 - _TWO64 % bound:
                        kept, used = k, k + 1
                        break
            for i, j in zip(range(hi, hi - kept, -1), map(mod, outputs, bounds)):
                items[i], items[j] = items[j], items[i]
            state = (state + used * _GAMMA) & MASK64
            hi -= kept
        self._state = state


def derive_seed(master: int, index: int) -> int:
    """Child seed for the index-th substream of a master seed.

    Equals the index-th output of ``SplitMix64(master)``, so substreams are
    prefix-stable: the first r children do not depend on how many are drawn.
    """
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return SplitMix64((master + index * _GAMMA) & MASK64).next_u64()
