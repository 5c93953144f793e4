"""The lexicographic scan shared by the dense and sparse constructors.

Both constructors keep one immutable, hashable coverage row per vertex, the
row of v_a standing for N(v_a) ∩ C, and scan the vertices in index order.
Two rows must be equal exactly when their sets are: a bitset is, and so is a
tuple that lists its codewords in the order they joined C, because each
codeword joins every row it covers in the same step.  At step j a dict from
each of rows 0..j-1 to its vertex finds the k < j whose row equals row j.
Those rows are pairwise distinct: each step separates its row from the
earlier ones, and a new codeword is in no row before it is inserted, so
adding it keeps them distinct.  Row 0 is a permanently empty sentinel, so
k = 0 means v_j is not covered yet; any other k means v_j is not separated
from v_k.  Either way the smallest vertex of N(v_j) Δ N(v_k) becomes a
codeword (the empty N(v_0) makes that min N(v_j)), and an empty difference
means j and k are twins.  Only the row representation differs between the
constructors, so it is all they supply.
"""

from __future__ import annotations

from typing import Callable, Hashable

from .graph import Code, RunOutcome, TwinFailure


def lex_scan(
    x: list,
    separate: Callable[[int, int], int],
    lists: tuple[tuple[int, ...], ...],
    add: Callable[[Hashable, Hashable], Hashable],
    unit: Callable[[int], Hashable],
    *,
    charge: Callable[[int, int, int], None] | None = None,
) -> RunOutcome:
    """Run the scan over immutable coverage rows x[0..n], where x[0] stays empty.

    separate(j, k) returns the smallest vertex covering exactly one of v_j
    and v_k, or n+1 when there is none; lists[l] lists the vertices 1..n
    that codeword l covers, and add(row, unit(l)) returns row with l added.
    unit runs once per codeword and add once per covered vertex, so add
    should be a builtin such as operator.add, which runs no Python frame.
    charge(j, k, l), if given, sees every step before its insertion: k is the
    matching earlier row (j when there is none) and l the vertex chosen (0
    when none).
    """
    n = len(x) - 1
    index = {x[0]: 0}  # row -> vertex, for the distinct rows 0..j-1
    code: list[int] = []
    for j in range(1, n + 1):
        k = index.get(x[j], j)
        l = separate(j, k) if k < j else 0
        if charge is not None:
            charge(j, k, l)
        if l > n:
            return TwinFailure(j=j, k=k)
        if l:
            code.append(l)
            item = unit(l)
            for a in lists[l]:
                row = x[a]
                x[a] = new = add(row, item)
                if a < j:  # rows from j on are not indexed yet
                    index[new] = index.pop(row)
        index[x[j]] = j
    return Code(tuple(sorted(code)))
