"""Lexicographic identifying-code construction over the bit-matrix view.

The matrix supplies the separation: the first bit in which two rows differ.
The scan keeps its own coverage rows, tuples of codewords, and reads the
vertices a codeword covers from the sorted lists the matrix was derived from
(the matrix is symmetric), so a run holds the n²-bit matrix plus
O(n + Σ_{c∈C}(deg c + 1)).  The model tally still charges the paper's
whole-row tests and its copy of a whole matrix column.  Only an index-order
run reads the matrix; in any other order the separation is scan.in_order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import ClosedNeighborhoodMatrix, RunOutcome, _positions
from .scan import in_order, lex_scan


@dataclass
class DenseWorkTally:
    """Model cost of one dense run, in single-bit operations.

    Whole-row tests (the zero test and each row-equality test of the paper's
    linear search for k) are charged the full row width n, whatever search
    the code runs; finding the new codeword (the first set bit of N(v_j), or
    min2's first differing bit) charges one unit per position scanned;
    inserting a codeword charges n for copying one matrix column.
    """

    row_comparison_bits: int = 0
    scan_bits: int = 0
    column_copy_bits: int = 0

    @property
    def total(self) -> int:
        return self.row_comparison_bits + self.scan_bits + self.column_copy_bits


def _lowest_difference(row_j: int, row_k: int, n: int) -> int:
    diff = row_j ^ row_k
    return (diff & -diff).bit_length() or n + 1


def min2(b: ClosedNeighborhoodMatrix, j: int, k: int) -> int:
    """Smallest vertex covering exactly one of v_j, v_k; n+1 if none exists.

    Scans the two rows for the first differing position, so the n+1 return
    happens exactly when N(v_j) = N(v_k), i.e. j and k are twins.
    """
    if j == k:
        raise ValueError(f"min2 requires distinct vertices, got j = k = {j}")
    return _lowest_difference(b.row(j), b.row(k), b.n)


def lex_code_dense(
    b: ClosedNeighborhoodMatrix,
    sequence: Sequence[int] | None = None,
    *,
    tally: DenseWorkTally | None = None,
) -> RunOutcome:
    """Build the lexicographic code of the graph behind b, or report twins.

    On twin-free input the returned Code is identifying.  On input with twins
    the run stops at the first vertex j whose closed neighborhood duplicates
    an earlier k and returns TwinFailure(j, k).  sequence, if given, is the
    processing order, as for lex_code_sparse: the run and its tally are those
    of the graph relabeled by it, with codewords and twins given by position.
    tally, if given, accumulates the model bit-operation cost.
    """
    n = b.n
    rows_b = b._rows  # rows_b[0] = 0 is the empty row the scan's sentinel needs

    if sequence is None:
        order = position = list(range(n + 1))

        def separate(j: int, k: int) -> int:
            return _lowest_difference(rows_b[j], rows_b[k], n)
    else:
        position = _positions(sequence, n)
        order = [0, *sequence]
        separate = in_order(b._lists, order, position)

    charge = None
    if tally is not None:
        def charge(j: int, k: int, l: int) -> None:
            # the zero test, then one whole-row comparison per earlier row tried
            tally.row_comparison_bits += n * (1 + (k if k < j else j - 1))
            if l:
                tally.scan_bits += min(l, n)  # finding twins scans all n positions
                tally.column_copy_bits += n if l <= n else 0

    return lex_scan(separate, b._lists, order, position, charge=charge)
