from itertools import combinations

import pytest

from lexid import (
    Code,
    Graph,
    TwinFailure,
    TwinsError,
    apply_sequence,
    find_twins,
    greedy_code,
    is_identifying_code,
    lex_code_dense,
    minimalize,
    minimum_code,
    nonminimal_grid_fixture,
    path_graph,
    prefix_sequence,
)

from corpus import small_corpus, twin_free_corpus
from oracles import brute_is_identifying, brute_minimum_cardinality


class TestMinimumCode:
    def test_single_vertex(self):
        result = minimum_code(Graph(1))
        assert result.code == Code((1,)) and result.cardinality == 1

    def test_p3_unique_smallest(self):
        result = minimum_code(path_graph(3))
        assert result.code == Code((1, 3)) and result.cardinality == 2

    def test_p5(self):
        result = minimum_code(path_graph(5))
        assert result.cardinality == 3

    def test_fixture_within_known_bound(self):
        g = nonminimal_grid_fixture()
        result = minimum_code(g)
        assert result.cardinality <= 5  # a 5-element code is known to exist
        assert is_identifying_code(g, result.code)
        for smaller in combinations(range(1, 10), result.cardinality - 1):
            assert not brute_is_identifying(g, smaller)

    def test_twins_raise_structured_error(self):
        with pytest.raises(TwinsError) as info:
            minimum_code(path_graph(2))
        assert info.value.pair == (1, 2)

    def test_refuses_large_graphs(self):
        with pytest.raises(ValueError, match="cap"):
            minimum_code(Graph(30), max_vertices=24)

    def test_witness_is_first_in_enumeration_order(self):
        for g in twin_free_corpus()[:25]:
            if g.n > 10:
                continue
            result = minimum_code(g)
            assert result.cardinality == brute_minimum_cardinality(g)
            for combo in combinations(range(1, g.n + 1), result.cardinality):
                if brute_is_identifying(g, combo):
                    assert Code(combo) == result.code
                    break


class TestMinimalize:
    def test_fixture_drops_vertex_one(self):
        g = nonminimal_grid_fixture()
        assert minimalize(g, Code((1, 2, 3, 4, 5, 6))) == Code((2, 3, 4, 5, 6))

    def test_single_vertex_cannot_shrink(self):
        assert minimalize(Graph(1), Code((1,))) == Code((1,))

    def test_p3_keeps_endpoints(self):
        assert minimalize(path_graph(3), Code((1, 2, 3))) == Code((1, 3))

    def test_rejects_non_identifying_input(self):
        with pytest.raises(ValueError, match="not an identifying code"):
            minimalize(path_graph(3), Code((2,)))

    def test_result_minimal_subset_still_identifying(self):
        for g in twin_free_corpus()[:60]:
            full = Code(tuple(range(1, g.n + 1)))
            minimal = minimalize(g, full)
            assert set(minimal) <= set(full)
            assert is_identifying_code(g, minimal)
            for v in minimal:
                assert not is_identifying_code(g, [w for w in minimal if w != v])


class TestGreedyCode:
    def test_p3_tie_breaks_to_smallest(self):
        assert greedy_code(path_graph(3)) == Code((1, 3))

    def test_k2_pair_uncoverable(self):
        assert greedy_code(path_graph(2)) == TwinFailure(j=2, k=1)

    def test_single_vertex(self):
        assert greedy_code(Graph(1)) == Code((1,))

    def test_valid_on_twin_free_corpus(self):
        for g in twin_free_corpus()[:80]:
            out = greedy_code(g)
            assert isinstance(out, Code)
            assert is_identifying_code(g, out)

    def test_twin_pair_matches_find_twins(self):
        for g in small_corpus()[:80]:
            twins = find_twins(g)
            out = greedy_code(g)
            if twins is None:
                assert isinstance(out, Code)
            else:
                assert out == TwinFailure(j=twins[1], k=twins[0])


class TestCardinalityChain:
    def test_minimum_below_everything(self):
        for g in twin_free_corpus()[:40]:
            if g.n > 14:
                continue
            i_g = minimum_code(g).cardinality
            full = Code(tuple(range(1, g.n + 1)))
            assert i_g <= minimalize(g, full).cardinality <= full.cardinality
            assert i_g <= greedy_code(g).cardinality
            assert i_g <= lex_code_dense(g.neighborhood_matrix).cardinality

    def test_minimal_code_prefix_is_returned_exactly(self):
        # any minimal code, sorted to the front of the ordering, is the output
        for g in twin_free_corpus()[:40]:
            minimal = minimalize(g, Code(tuple(range(1, g.n + 1))))
            sequence = prefix_sequence(g, minimal)
            rerun = lex_code_dense(apply_sequence(g, sequence).neighborhood_matrix)
            assert rerun == Code(tuple(range(1, len(minimal) + 1)))
