"""Lexicographic identifying-code construction over sorted adjacency lists.

The lists supply the separation; the scan keeps the coverage rows, so a run
holds the lists plus O(n + Σ_{c∈C}(deg c + 1)) and never an n²-bit matrix,
which is the saving over the bit-matrix constructor on bounded-degree graphs.
In index order the separation is the head of N(v_j), or the synchronized
walk over the two sorted lists; in any other order it is scan.in_order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import NeighborhoodArray, RunOutcome, _positions
from .scan import in_order, lex_scan


@dataclass
class SparseWorkTally:
    """Model cost of one sparse run, in list-element touches.

    Each row comparison in the paper's linear search for k charges one touch
    for the length check plus, when the lengths tie, the common length for
    the element walk; the empty test charges one; min3 charges two per
    position walked; and inserting codeword l charges one per updated list.
    """

    comparison_touches: int = 0
    empty_check_touches: int = 0
    scan_touches: int = 0
    insert_touches: int = 0

    @property
    def total(self) -> int:
        return (
            self.comparison_touches
            + self.empty_check_touches
            + self.scan_touches
            + self.insert_touches
        )


def _min3_walk(lj: tuple[int, ...], lk: tuple[int, ...], n: int) -> int:
    """Return the result of the synchronized list walk.

    Walks the two sorted lists together and stops at the first divergence,
    returning the smaller element there.  If one list is a prefix of the
    other, the longer list's next element is the answer; if the lists are
    equal the result is the failure value n+1.
    """
    for a, c in zip(lj, lk):
        if a != c:
            return a if a < c else c
    m = min(len(lj), len(lk))
    longer = lj if len(lj) > m else lk
    return longer[m] if len(longer) > m else n + 1


def min3(a: NeighborhoodArray, j: int, k: int) -> int:
    """Smallest vertex covering exactly one of v_j, v_k; n+1 if none exists.

    Same contract as the bit-matrix min2, computed on sorted lists.
    """
    if j == k:
        raise ValueError(f"min3 requires distinct vertices, got j = k = {j}")
    return _min3_walk(a.neighborhood(j), a.neighborhood(k), a.n)


def lex_code_sparse(
    a: NeighborhoodArray,
    sequence: Sequence[int] | None = None,
    *,
    tally: SparseWorkTally | None = None,
) -> RunOutcome:
    """Build the lexicographic code of the graph behind a, or report twins.

    Produces the same Code or TwinFailure as lex_code_dense on the same graph
    and processing order.  sequence, if given, is the processing order: the
    run and its tally are exactly those of the graph relabeled by it
    (orderings.apply_sequence), with codewords and twins given by position,
    but no relabeled array is built; a sequence that is not a permutation of
    1..n raises ValueError.  tally, if given, accumulates the model
    element-touch cost of the walks over sorted lists.
    """
    if sequence is None:
        return _run(a, None, None, tally)
    return _run(a, [0, *sequence], _positions(sequence, a.n), tally)


def _run_ordered(a: NeighborhoodArray, sequence: Sequence[int]) -> RunOutcome:
    """lex_code_sparse(a, sequence) for a sequence known to be a permutation of
    1..n, such as sequence_for builds: its plain inverse, with no check."""
    position = [0] * (a.n + 1)
    for p, v in enumerate(sequence, 1):
        position[v] = p
    return _run(a, [0, *sequence], position)


def _run(a: NeighborhoodArray, order: list[int] | None, position: list[int] | None,
         tally: SparseWorkTally | None = None) -> RunOutcome:
    """lex_code_sparse in the order order[1:], inverse position (None: identity), unchecked."""
    n = a.n
    lists = a._lists  # lists[0] = () is the empty list the scan's sentinel needs

    if order is None:
        order = position = list(range(n + 1))

        def separate(j: int, k: int) -> int:
            return _min3_walk(lists[j], lists[k], n) if k else lists[j][0]
    else:
        separate = in_order(lists, order, position)

    charge = None
    if tally is not None:
        covers = [0] * (n + 1)  # covers[i] = |N(v_i) ∩ C|, the length of the row at position i

        def charge(j: int, k: int, l: int) -> None:
            tally.empty_check_touches += 1
            # one length check per earlier row tried, plus an element walk on a tie
            tried = k if k < j else j - 1
            lj = covers[j]
            tally.comparison_touches += tried + lj * covers[1 : tried + 1].count(lj)
            if l:
                # the walk passes the members of N(v_j) below l, then one more unless a
                # list ends; reading the head of N(v_j) when k = 0 (an empty list) is one touch
                members = lists[order[j]]
                below = sum(position[u] < l for u in members)
                walked = min(below + 1, len(members), len(lists[order[k]]))
                tally.scan_touches += 2 * walked or 1
                if l <= n:
                    tally.insert_touches += len(lists[order[l]])
                    for u in lists[order[l]]:
                        covers[position[u]] += 1

    return lex_scan(separate, lists, order, position, charge=charge)
