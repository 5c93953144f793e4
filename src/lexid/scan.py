"""The lexicographic scan shared by the dense and sparse constructors.

Both constructors keep one coverage row per vertex, the row of v_a standing
for N(v_a) ∩ C, and scan the vertices in index order.  At step j the scan
looks for the first k < j whose row equals row j.  Row 0 is a permanently
empty sentinel, so k = 0 means v_j is not covered yet; any other k means v_j
is not separated from v_k.  Either way the smallest vertex of
N(v_j) Δ N(v_k) becomes a codeword (the empty N(v_0) makes that min N(v_j)),
and an empty difference means j and k are twins.  Only the row representation
differs between the constructors, so it is all they supply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .graph import Code, RunOutcome, TwinFailure


@dataclass(frozen=True)
class CoverageState:
    """Snapshot of the coverage rows after one step, for inspection in tests."""

    step: int
    rows: tuple  # rows[a-1] is N(v_a) ∩ C: a bitset (dense) or a sorted tuple (sparse)
    code: tuple[int, ...]

    def row(self, a: int):
        return self.rows[a - 1]


def lex_scan(
    x: list,
    separate: Callable[[int, int], int],
    insert: Callable[[int], None],
    *,
    charge: Callable[[int, int, int], None] | None = None,
    observer: Callable[[CoverageState], None] | None = None,
    freeze: Callable[[Any], Any] = tuple,
) -> RunOutcome:
    """Run the scan over coverage rows x[0..n], where x[0] stays empty.

    separate(j, k) returns the smallest vertex covering exactly one of v_j
    and v_k, or n+1 when there is none; insert(l) adds codeword l to the rows
    it covers.  charge(j, k, l), if given, sees every step before its
    insertion: k is the matching earlier row (j when there is none) and l the
    vertex chosen (0 when none).  observer, if given, receives a
    CoverageState after every completed step, each row passed through freeze
    to detach it from the mutable state.
    """
    n = len(x) - 1
    index = x.index
    code: list[int] = []
    for j in range(1, n + 1):
        # earlier rows are pairwise distinct and non-empty, so k is unique
        try:
            k = index(x[j], 0, j)
        except ValueError:
            k = j
        l = separate(j, k) if k < j else 0
        if charge is not None:
            charge(j, k, l)
        if l > n:
            return TwinFailure(j=j, k=k)
        if l:
            code.append(l)
            insert(l)
        if observer is not None:
            observer(CoverageState(j, tuple(map(freeze, x[1:])), tuple(sorted(code))))
    return Code(tuple(sorted(code)))
