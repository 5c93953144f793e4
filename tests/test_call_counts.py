"""The constructors, the verifier and minimalize run no Python frame per
covered vertex or per vertex: on a relabeled 32x32 grid they stay within a
fixed number of frames per codeword, so their loops over rows run in C.
G(n, p) runs a fixed number of frames per row, not one per pair."""

import random

import pytest

from lexid import (
    ClosedNeighborhoodMatrix,
    apply_sequence,
    gnp_graph,
    grid_graph,
    is_identifying_code,
    lex_code_dense,
    lex_code_sparse,
    minimalize,
)

from calls import python_calls


@pytest.fixture(scope="module")
def grid():
    g = grid_graph(32, 32)
    sequence = list(range(1, g.n + 1))
    random.Random(0).shuffle(sequence)
    return apply_sequence(g, sequence)


@pytest.mark.parametrize("construct, view", [
    (lex_code_sparse, lambda g: g.neighborhood_array),
    # the ordered scan, in index order so that positions are vertices and the
    # degrees below stay those of the codewords
    (lambda a: lex_code_sparse(a, range(1, a.n + 1)), lambda g: g.neighborhood_array),
    (lex_code_dense, lambda g: ClosedNeighborhoodMatrix(g.neighborhood_array)),
    (lambda b: lex_code_dense(b, range(1, b.n + 1)), lambda g: ClosedNeighborhoodMatrix(g.neighborhood_array)),
], ids=["sparse", "sparse-ordered", "dense", "dense-ordered"])
def test_a_constructor_makes_at_most_two_calls_per_codeword(grid, construct, view):
    rows = view(grid)
    code = construct(rows)
    covered = sum(grid.degrees[c] + 1 for c in code)
    assert covered > 4 * len(code)  # a call per covered vertex would break the bound
    assert python_calls(lambda: construct(rows)) <= 2 * len(code) + 10


def test_verify_makes_a_fixed_number_of_calls(grid):
    code = lex_code_sparse(grid.neighborhood_array)
    assert is_identifying_code(grid, code)
    assert python_calls(lambda: is_identifying_code(grid, code)) < 10


def test_minimalize_makes_at_most_one_call_per_member(grid):
    code = lex_code_sparse(grid.neighborhood_array)
    covered = sum(grid.degrees[c] + 1 for c in code)
    assert covered > 4 * len(code)
    assert len(minimalize(grid, code)) < len(code)  # some trials succeed, some fail
    assert python_calls(lambda: minimalize(grid, code)) <= len(code) + 10


def test_gnp_makes_a_fixed_number_of_calls_per_row():
    n = 300
    assert python_calls(lambda: gnp_graph(n, 0.2, 3)) < 3 * n
