"""The lexicographic scan shared by the dense and sparse constructors.

The scan visits the vertices in a processing order: step j visits order[j],
the vertex at position j, and position[v] is the step that visits v.  Both
constructors keep one immutable, hashable coverage row per vertex, the row of
v standing for N(v) ∩ C with codewords named by position.  Two rows must be
equal exactly when their sets are: a bitset is, and so is a tuple that lists
its codewords in the order they joined C, because each codeword joins every
row it covers in the same step.  At step j a dict from the rows of the
vertices at positions 0..j-1 to those positions finds the k < j whose row
equals that of the vertex at j, so inserting a codeword re-keys the row of a
covered vertex only when its position is below j.  Those rows are pairwise
distinct: each step separates its row from the earlier ones, and a new
codeword is in no row before it is inserted, so adding it keeps them
distinct.  Row 0 belongs to the padding vertex 0 at position 0 and stays
empty, so k = 0 means the vertex at j is not covered yet; any other k means
it is not separated from the vertex at k.  Either way the member of smallest
position in N(v_j) Δ N(v_k) becomes a codeword (the empty N(v_0) makes that
the member of smallest position in N(v_j)), and an empty difference means
the two are twins.  The steps depend on the graph only through positions, so
a run in any order returns, in positions, what the identity-order run on the
graph relabeled by that order returns.  Only the row representation and the
separation differ between the constructors, so they are all they supply.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

from .graph import Code, RunOutcome, TwinFailure


def lex_scan(
    x: list,
    separate: Callable[[int, int], int],
    lists: tuple[tuple[int, ...], ...],
    unit: Callable[[int], Hashable],
    order: Sequence[int],
    position: Sequence[int],
    *,
    charge: Callable[[int, int, int], None] | None = None,
) -> RunOutcome:
    """Run the scan over immutable coverage rows x[0..n], where x[0] stays empty.

    Step j visits vertex order[j]; position is the inverse of order, and
    order[0] = position[0] = 0.  x and lists are indexed by vertex, while j,
    k, l and the returned Code and TwinFailure count positions.
    separate(j, k) returns the smallest position whose vertex covers exactly
    one of order[j] and order[k], or n+1 when there is none; lists[v] lists
    the vertices 1..n that v covers, and row + unit(l) is row with the
    codeword at position l added (a tuple appends it; a bitset gains a bit
    that no row holds before, so + sets it).  unit runs once per codeword and
    + once per covered vertex.  charge(j, k, l), if given, sees every step
    before its insertion: k is the matching earlier row (j when there is
    none) and l the codeword chosen (0 when none).
    """
    n = len(x) - 1
    index = {x[0]: 0}  # row -> position, for the distinct rows of positions 0..j-1
    code: list[int] = []
    for j in range(1, n + 1):
        v = order[j]
        k = index.setdefault(x[v], j)  # a new row is indexed at once
        l = separate(j, k) if k < j else 0
        if charge is not None:
            charge(j, k, l)
        if l > n:
            return TwinFailure(j=j, k=k)
        if l:
            code.append(l)
            item = unit(l)
            for a in lists[order[l]]:
                row = x[a]
                x[a] = new = row + item
                if position[a] < j:  # rows from position j on are not indexed yet
                    index[new] = index.pop(row)
            index[x[v]] = j
    return Code(tuple(sorted(code)))
