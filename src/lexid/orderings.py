"""Vertex-ordering strategies and the processing sequences they yield.

A strategy yields a processing sequence (position -> original vertex).  Both
constructors scan the graph in that order directly and name their codewords
by position.  Helpers apply a sequence to a graph and map codes given by
position back to original labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Code, Graph, _members, _positions
from .rng import SplitMix64

STRATEGY_KINDS = ("identity", "random", "degree-asc", "degree-desc", "explicit")


@dataclass(frozen=True)
class OrderingStrategy:
    """How to order vertices before a run.  Every sequence_for result is a
    permutation of 1..n: an explicit sequence is checked there, the rest built."""

    kind: str
    sequence: tuple[int, ...] | None = None  # explicit processing order

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown ordering {self.kind!r}; choose from {', '.join(STRATEGY_KINDS)}")
        if self.kind == "explicit":
            if self.sequence is None:
                raise ValueError("explicit ordering requires a sequence")
            object.__setattr__(self, "sequence", tuple(self.sequence))
        elif self.sequence is not None:
            raise ValueError(f"ordering {self.kind!r} does not take a sequence")

    def sequence_for(self, g: Graph, rng: SplitMix64 | None = None) -> list[int]:
        """Processing sequence for g: entry i-1 is the vertex processed i-th."""
        if self.kind == "identity":
            return list(range(1, g.n + 1))
        if self.kind == "random":
            if rng is None:
                raise ValueError("random ordering requires an rng")
            seq = list(range(1, g.n + 1))
            rng.shuffle(seq)
            return seq
        if self.kind == "degree-asc":
            return sorted(range(1, g.n + 1), key=lambda v: (g.degrees[v], v))
        if self.kind == "degree-desc":
            return sorted(range(1, g.n + 1), key=lambda v: (-g.degrees[v], v))
        seq = list(self.sequence)  # explicit
        _positions(seq, g.n)
        return seq


def as_strategy(strategy: OrderingStrategy | str | Sequence[int]) -> OrderingStrategy:
    """Coerce a strategy name or explicit sequence into an OrderingStrategy."""
    if isinstance(strategy, OrderingStrategy):
        return strategy
    if isinstance(strategy, str):
        return OrderingStrategy(strategy)
    return OrderingStrategy("explicit", tuple(strategy))


def apply_sequence(g: Graph, sequence: Sequence[int]) -> Graph:
    """Relabel g so that sequence[i-1] becomes vertex i."""
    return g._relabeled(_positions(sequence, g.n))


def code_to_original(code: Code, sequence: Sequence[int]) -> Code:
    """Map a code given by position (found on the relabeled graph, or by a run
    in that order) back to original vertex labels."""
    return Code(tuple(sorted(sequence[c - 1] for c in code)))


def prefix_sequence(g: Graph, members: Iterable[int]) -> list[int]:
    """Processing sequence of the given vertices in ascending order, then the
    rest.  A member that is not an int in 1..n raises ValueError, the first in
    input order."""
    member_set = set(_members(members, g.n, "prefix member"))
    return sorted(member_set) + [v for v in range(1, g.n + 1) if v not in member_set]
