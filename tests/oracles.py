"""Brute-force reference implementations used as ground truth in tests.

Everything here works on plain frozensets built straight from the edge set,
deliberately sharing no code with the package's bitset machinery.
"""

from __future__ import annotations

from itertools import combinations

from lexid import Graph


def neighborhood_sets(g: Graph) -> dict[int, frozenset[int]]:
    nbhd: dict[int, set[int]] = {v: {v} for v in range(1, g.n + 1)}
    for u, v in g.edges:
        nbhd[u].add(v)
        nbhd[v].add(u)
    return {v: frozenset(s) for v, s in nbhd.items()}


def brute_find_twins(g: Graph) -> tuple[int, int] | None:
    """Smallest j with an earlier equal neighborhood, then smallest such k."""
    nbhd = neighborhood_sets(g)
    for j in range(2, g.n + 1):
        for k in range(1, j):
            if nbhd[k] == nbhd[j]:
                return (k, j)
    return None


def brute_min_sym_diff(g: Graph, j: int, k: int) -> int:
    """min of N(v_j) symmetric-difference N(v_k), or n+1 when empty."""
    nbhd = neighborhood_sets(g)
    diff = nbhd[j] ^ nbhd[k]
    return min(diff) if diff else g.n + 1


def brute_is_identifying(g: Graph, members) -> bool:
    nbhd = neighborhood_sets(g)
    code = set(members)
    traces = [nbhd[v] & code for v in range(1, g.n + 1)]
    return all(traces) and len(set(map(frozenset, traces))) == g.n


def brute_minimum_cardinality(g: Graph) -> int:
    """Smallest identifying-code size by exhaustive subset search."""
    for size in range(1, g.n + 1):
        for combo in combinations(range(1, g.n + 1), size):
            if brute_is_identifying(g, combo):
                return size
    raise AssertionError("graph has twins; no identifying code exists")


def brute_lex_code(g: Graph):
    """The paper's lexicographic construction, straight from its definition.

    Scans j = 1..n with C the code so far: when N(v_j) ∩ C is empty, adds
    min N(v_j); when it equals N(v_k) ∩ C for some k < j, adds
    min(N(v_j) Δ N(v_k)), or stops with the twin pair when that difference is
    empty.  Returns ("code", members) or ("twins", j, k).
    """
    nbhd = neighborhood_sets(g)
    code: set[int] = set()
    for j in range(1, g.n + 1):
        trace = nbhd[j] & code
        if not trace:
            code.add(min(nbhd[j]))
            continue
        k = next((k for k in range(1, j) if nbhd[k] & code == trace), None)
        if k is None:
            continue
        diff = nbhd[j] ^ nbhd[k]
        if not diff:
            return ("twins", j, k)
        code.add(min(diff))
    return ("code", tuple(sorted(code)))


def reference_shuffle(rng, items: list) -> None:
    """Fisher-Yates straight from its definition: for i from high to low,
    swap items[i] with items[rng.randbelow(i + 1)]."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        items[i], items[j] = items[j], items[i]
