"""Golden outputs and work tallies of both constructors on fixed instances.

The values were recorded from the original per-constructor implementations.
Every tally component is pinned, not just the totals, so a rewrite of the
scan that shifts cost between components is caught even when the sums agree.
"""

import hashlib
from dataclasses import asdict

import pytest

from lexid import (
    Code,
    SplitMix64,
    TwinFailure,
    apply_sequence,
    cycle_graph,
    derive_seed,
    gnp_graph,
    grid_graph,
    hypercube_graph,
    lex_code_dense,
    lex_code_sparse,
    nonminimal_grid_fixture,
    path_graph,
)
from lexid.dense import DenseWorkTally
from lexid.sparse import SparseWorkTally


def relabeled(g, seed=0):
    """g under the seeded uniform relabeling the bench protocol uses."""
    sequence = list(range(1, g.n + 1))
    SplitMix64(derive_seed(seed, g.n)).shuffle(sequence)
    return apply_sequence(g, sequence)


def digest(code: Code) -> tuple[int, str]:
    return len(code), hashlib.sha256(",".join(map(str, code)).encode()).hexdigest()[:16]


INSTANCES = {
    "grid20x20": lambda: relabeled(grid_graph(20, 20)),
    "gnp120": lambda: gnp_graph(120, 0.2, 3),
    "cube7": lambda: relabeled(hypercube_graph(7)),
    "path200": lambda: relabeled(path_graph(200)),
    "fixture": nonminimal_grid_fixture,
    "c4": lambda: cycle_graph(4),
    "gnp60-twins": lambda: gnp_graph(60, 0.08, 95),  # twins 8 and 44, met mid-scan
}

# name: (outcome, dense tally, sparse tally); a Code is pinned by
# (cardinality, sha256 prefix of its comma-joined members)
GOLDEN = {
    "grid20x20": (
        (198, "4f7e806abb5ed49d"),
        dict(row_comparison_bits=23812800, scan_bits=21321, column_copy_bits=79200),
        dict(comparison_touches=95593, empty_check_touches=400, scan_touches=505, insert_touches=948),
    ),
    "gnp120": (
        (19, "a13364b1bed58d1a"),
        dict(row_comparison_bits=835440, scan_bits=201, column_copy_bits=2280),
        dict(comparison_touches=11182, empty_check_touches=120, scan_touches=57, insert_touches=479),
    ),
    "cube7": (
        (47, "ae7e673aa240f856"),
        dict(row_comparison_bits=871552, scan_bits=1236, column_copy_bits=6016),
        dict(comparison_touches=10919, empty_check_touches=128, scan_touches=127, insert_touches=376),
    ),
    "path200": (
        (135, "136cb4e831d4a563"),
        dict(row_comparison_bits=2488600, scan_bits=10327, column_copy_bits=27000),
        dict(comparison_touches=19512, empty_check_touches=200, scan_touches=393, insert_touches=404),
    ),
    "fixture": (
        Code((1, 2, 3, 4, 5, 6)),
        dict(row_comparison_bits=315, scan_bits=21, column_copy_bits=54),
        dict(comparison_touches=33, empty_check_touches=9, scan_touches=19, insert_touches=22),
    ),
    "c4": (
        Code((1, 2, 3)),
        dict(row_comparison_bits=36, scan_bits=6, column_copy_bits=12),
        dict(comparison_touches=9, empty_check_touches=4, scan_touches=11, insert_touches=9),
    ),
    "gnp60-twins": (
        TwinFailure(j=44, k=8),
        dict(row_comparison_bits=39720, scan_bits=463, column_copy_bits=1560),
        dict(comparison_touches=900, empty_check_touches=44, scan_touches=54, insert_touches=132),
    ),
}


def pinned_form(outcome):
    if isinstance(outcome, Code) and outcome.cardinality > 10:
        return digest(outcome)
    return outcome


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_outcomes_and_every_tally_component_match_the_pins(name):
    g = INSTANCES[name]()
    expected_outcome, expected_dense, expected_sparse = GOLDEN[name]
    dense_tally, sparse_tally = DenseWorkTally(), SparseWorkTally()
    dense = lex_code_dense(g.neighborhood_matrix, tally=dense_tally)
    sparse = lex_code_sparse(g.neighborhood_array, tally=sparse_tally)
    assert pinned_form(dense) == expected_outcome
    assert pinned_form(sparse) == expected_outcome
    assert asdict(dense_tally) == expected_dense
    assert asdict(sparse_tally) == expected_sparse
