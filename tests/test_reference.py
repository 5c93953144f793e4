"""Both constructors against the independent reference construction."""

from hypothesis import given, settings

from lexid import (
    Code,
    OrderingStrategy,
    SplitMix64,
    apply_sequence,
    derive_seed,
    gnp_graph,
    grid_graph,
    lex_code_dense,
    lex_code_sparse,
)

from corpus import graphs, small_corpus
from oracles import brute_lex_code


def tagged(outcome):
    if isinstance(outcome, Code):
        return ("code", outcome.members)
    return ("twins", outcome.j, outcome.k)


def assert_agree(g):
    expected = brute_lex_code(g)
    assert tagged(lex_code_dense(g.neighborhood_matrix)) == expected
    assert tagged(lex_code_sparse(g.neighborhood_array)) == expected


@given(graphs(max_n=14))
@settings(max_examples=300)
def test_dense_sparse_and_reference_agree(g):
    assert_agree(g)


def test_agree_on_small_corpus_including_twins():
    corpus = small_corpus()
    assert any(brute_lex_code(g)[0] == "twins" for g in corpus)
    for g in corpus:
        assert_agree(g)


def test_agree_at_scale():
    # each codeword re-keys the indexed rows it covers: up to 23 in one
    # insertion on the gnp graph, far more than on the small graphs above
    sequence = list(range(1, 1601))
    SplitMix64(7).shuffle(sequence)
    grid = apply_sequence(grid_graph(40, 40), sequence)
    gnp = gnp_graph(400, 0.05, 11)
    # the sparse rows of a restart list codewords in insertion order, not
    # sorted; the reference keeps frozensets
    small = gnp_graph(128, 0.1, derive_seed(0, 128))
    order = OrderingStrategy("random")
    restarts = [
        apply_sequence(small, order.sequence_for(small, SplitMix64(derive_seed(0, i))))
        for i in range(20)
    ]
    for g in (grid, gnp, *restarts):
        assert brute_lex_code(g)[0] == "code"
        assert_agree(g)
