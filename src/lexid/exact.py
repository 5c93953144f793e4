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

    Tries to delete members in increasing index order, whatever the order
    given, keeping each deletion only if the remainder still identifies.  One
    such pass suffices: a member that survives its turn cannot become
    deletable later, because identifying sets are closed under supersets.
    """
    members = tuple(code)
    if not is_identifying_code(g, members):
        raise ValueError(f"input code {members} is not an identifying code")
    rows = g.neighborhood_matrix._rows[1:]
    cmask = 0
    for v in members:
        cmask |= 1 << (v - 1)
    for v in sorted(set(members)):
        trial = cmask & ~(1 << (v - 1))
        if _distinct_nonempty(map(trial.__and__, rows)):
            cmask = trial
    return Code(bits_to_vertices(cmask))


def greedy_code(g: Graph) -> RunOutcome:
    """Set-cover greedy baseline.

    The requirements are each N(v) and each N(v) Δ N(w), v < w; vertex u meets
    those that contain it.  Repeatedly picks the vertex meeting the most unmet
    requirements (smallest index on ties).  Pairs of twins have no coverer, so
    graphs with twins yield a TwinFailure up front.

    The requirements are never listed.  Two vertices share a label iff no
    chosen vertex separates them, so each label is a class of equal traces
    N(v) ∩ C, and label 0 is the empty trace.  If N(u) holds c_k of the
    size_k vertices of class k, u meets the c_0 unmet N(v) of label 0 and
    separates c_k·(size_k − c_k) unmet pairs of each class, so a step costs
    O(n + m).
    """
    twins = find_twins(g)
    if twins is not None:
        return TwinFailure(j=twins[1], k=twins[0])
    n = g.n
    lists = g.neighborhood_array._lists
    label = [0] * (n + 1)
    size = [n]
    chosen: list[int] = []
    while True:
        best_u = 0
        best_gain = 0
        for u in range(1, n + 1):
            counts: dict[int, int] = {}  # a Counter costs more on these short lists
            for k in map(label.__getitem__, lists[u]):
                counts[k] = counts.get(k, 0) + 1
            gain = counts.get(0, 0)
            for k, c in counts.items():
                gain += c * (size[k] - c)
            if gain > best_gain:
                best_u = u
                best_gain = gain
        if not best_gain:  # twin-free: every unmet requirement has a coverer
            return Code(tuple(sorted(chosen)))
        chosen.append(best_u)
        moved: dict[int, list[int]] = {}
        for v in lists[best_u]:
            moved.setdefault(label[v], []).append(v)
        for k, members in moved.items():
            size[k] -= len(members)
            for v in members:
                label[v] = len(size)
            size.append(len(members))
