"""Ground-truth oracles and baselines: exact minimum, minimalization, greedy.

The exact search is exponential and intended for small instances; it is the
oracle the fast constructors are judged against.  The greedy baseline casts
identification as set cover over coverage and separation requirements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .graph import (
    Code,
    Graph,
    RunOutcome,
    TwinFailure,
    TwinsError,
    _distinct_nonempty,
    bits_to_vertices,
    find_twins,
    is_identifying_code,
)

DEFAULT_EXACT_CAP = 24


@dataclass(frozen=True)
class MinimumResult:
    """An identifying code of smallest possible cardinality, with that cardinality."""

    code: Code
    cardinality: int


def minimum_code(g: Graph, max_vertices: int = DEFAULT_EXACT_CAP) -> MinimumResult:
    """Exhaustive minimum identifying code; deterministic witness.

    Enumerates candidate subsets by increasing cardinality and, within one
    cardinality, in lexicographic order, returning the first identifying
    subset.  Raises TwinsError if no code exists and ValueError when n exceeds
    max_vertices (the search is exponential).
    """
    if g.n > max_vertices:
        raise ValueError(
            f"exact search refused for n={g.n} > cap {max_vertices}; raise max_vertices to force"
        )
    twins = find_twins(g)
    if twins is not None:
        raise TwinsError(twins)
    rows = g.neighborhood_matrix._rows[1:]
    n = g.n
    bits = [1 << (v - 1) for v in range(1, n + 1)]
    # any identifying code C yields n distinct non-empty subsets of C,
    # so 2^|C| - 1 >= n; smaller cardinalities cannot succeed
    lower = 1
    while (1 << lower) - 1 < n:
        lower += 1
    for cardinality in range(lower, n + 1):
        for combo in combinations(bits, cardinality):
            cmask = sum(combo)
            if _distinct_nonempty(map(cmask.__and__, rows)):
                return MinimumResult(Code(bits_to_vertices(cmask)), cardinality)
    raise AssertionError("unreachable: the full vertex set of a twin-free graph is identifying")


def minimalize(g: Graph, code: Code | Iterable[int]) -> Code:
    """Shrink an identifying code to a minimal one.

    Tries to delete members in increasing index order, keeping each deletion
    only if the remainder still identifies.  One such pass suffices: a member
    that survives its turn cannot become deletable later, because identifying
    sets are closed under supersets.
    """
    members = tuple(code)
    if not is_identifying_code(g, members):
        raise ValueError(f"input code {members} is not an identifying code")
    rows = g.neighborhood_matrix._rows[1:]
    cmask = 0
    for v in members:
        cmask |= 1 << (v - 1)
    for v in members:
        trial = cmask & ~(1 << (v - 1))
        if _distinct_nonempty(map(trial.__and__, rows)):
            cmask = trial
    return Code(bits_to_vertices(cmask))


def greedy_code(g: Graph) -> RunOutcome:
    """Set-cover greedy baseline.

    The universe has one coverage element per vertex and one separation
    element per vertex pair; vertex u covers the element of v when u is in
    N(v), and the element of {v, w} when u is in exactly one of N(v), N(w).
    Repeatedly picks the vertex covering the most uncovered elements
    (smallest index on ties).  Pairs of twins have no coverer, so graphs with
    twins yield a TwinFailure up front.
    """
    twins = find_twins(g)
    if twins is not None:
        return TwinFailure(j=twins[1], k=twins[0])
    n = g.n
    rows = g.neighborhood_matrix._rows
    # universe bit layout: bits 0..n-1 are vertex elements (symmetry of the
    # closed neighborhood makes row u the coverage bits of u), then one bit
    # per pair (v, w), v < w, in lexicographic order
    cover = [0] * (n + 1)
    for u in range(1, n + 1):
        cover[u] = rows[u]
    index = n
    for v in range(1, n + 1):
        for w in range(v + 1, n + 1):
            diff = rows[v] ^ rows[w]
            while diff:
                low = diff & -diff
                cover[low.bit_length()] |= 1 << index
                diff ^= low
            index += 1
    remaining = (1 << index) - 1
    chosen: list[int] = []
    while remaining:
        best_u = 0
        best_count = 0
        for u in range(1, n + 1):
            count = (cover[u] & remaining).bit_count()
            if count > best_count:
                best_u = u
                best_count = count
        remaining &= ~cover[best_u]
        chosen.append(best_u)
    return Code(tuple(sorted(chosen)))
