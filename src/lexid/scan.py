"""The lexicographic scan shared by the dense and sparse constructors.

The scan visits the vertices in a processing order: step j visits order[j],
the vertex at position j, and position[v] is the step that visits v.  It
keeps one immutable coverage row per vertex, the row of v standing for
N(v) ∩ C with codewords named by position: a tuple that lists them in the
order they joined C.  Each codeword joins every row it covers in the same
step, so every row lists its codewords in that one order, and two rows are
equal as tuples exactly when they are equal as sets.  At step j a dict from
the rows of the vertices at positions 0..j-1 to those positions finds the
k < j whose row equals that of the vertex at j, so inserting a codeword
re-keys the row of a covered vertex only when its position is below j.
Those rows are pairwise distinct: each step separates its row from the
earlier ones, and a new codeword is in no row before it is inserted, so
adding it keeps them distinct.  Row 0 belongs to the padding vertex 0 at
position 0 and stays empty, so k = 0 means the vertex at j is not covered
yet; any other k means it is not separated from the vertex at k.  Either way
the member of smallest position in N(v_j) Δ N(v_k) becomes a codeword (the
empty N(v_0) makes that the member of smallest position in N(v_j)), and an
empty difference means the two are twins.  The steps depend on the graph
only through positions, so a run in any order returns, in positions, what
the identity-order run on the graph relabeled by that order returns.  The
separation is all a constructor supplies.  In index order it is where the
paper's algorithms differ: min2 reads matrix rows, min3 walks sorted lists.
In any other order both use in_order, which sorts the positions of N(v_j)
and N(v_k) together; the first entry not paired with an equal one is the
smallest position in the difference, and no relabeled view is built.
The rows hold Σ_{c∈C}(deg c + 1) codewords in all, so beside the view a run
keeps O(n + Σ_{c∈C}(deg c + 1)) memory.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .graph import Code, RunOutcome, TwinFailure


def lex_scan(
    separate: Callable[[int, int], int],
    lists: tuple[tuple[int, ...], ...],
    order: Sequence[int],
    position: Sequence[int],
    *,
    charge: Callable[[int, int, int], None] | None = None,
) -> RunOutcome:
    """Run the scan over the graph whose closed neighborhoods lists holds.

    Step j visits vertex order[j]; position is the inverse of order, and
    order[0] = position[0] = 0.  lists is indexed by vertex, while j, k, l
    and the returned Code and TwinFailure count positions.  separate(j, k)
    returns the smallest position whose vertex covers exactly one of order[j]
    and order[k], or n+1 when there is none; lists[v] lists the vertices 1..n
    that v covers, and lists[0] is empty.  charge(j, k, l), if given, sees
    every step before its insertion: k is the matching earlier row (j when
    there is none) and l the codeword chosen (0 when none).
    """
    n = len(lists) - 1
    x: list[tuple[int, ...]] = [()] * (n + 1)  # x[v] is the row of vertex v
    index = {(): 0}  # row -> position, for the distinct rows of positions 0..j-1
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
            item = (l,)
            for a in lists[order[l]]:
                row = x[a]
                x[a] = new = row + item
                if position[a] < j:  # rows from position j on are not indexed yet
                    index[new] = index.pop(row)
            index[x[v]] = j
    return Code(tuple(sorted(code)))


def in_order(lists: tuple[tuple[int, ...], ...], order: Sequence[int],
             position: Sequence[int]) -> Callable[[int, int], int]:
    """The separate that lex_scan takes for the same lists, order and position."""
    n = len(lists) - 1
    rank = position.__getitem__

    def separate(j: int, k: int) -> int:
        if not k:
            return min(map(rank, lists[order[j]]))
        both = sorted(map(rank, lists[order[j]] + lists[order[k]]))
        i, last = 0, len(both) - 1
        while i < last and both[i] == both[i + 1]:
            i += 2
        return both[i] if i <= last else n + 1

    return separate
