import pytest

from lexid import (
    Code,
    Graph,
    TwinFailure,
    apply_sequence,
    find_twins,
    is_identifying_code,
    lex_code_dense,
    min2,
    minimalize,
    nonminimal_grid_fixture,
    path_graph,
    prefix_sequence,
)
from lexid.dense import DenseWorkTally

from corpus import small_corpus, twin_free_corpus
from oracles import brute_min_sym_diff


def dense(g):
    return lex_code_dense(g.neighborhood_matrix)


class TestMin2:
    def test_k2_twins_signal(self):
        assert min2(path_graph(2).neighborhood_matrix, 2, 1) == 3

    def test_p3(self):
        assert min2(path_graph(3).neighborhood_matrix, 2, 1) == 3

    def test_fixture_pair(self):
        assert min2(nonminimal_grid_fixture().neighborhood_matrix, 8, 7) == 6

    def test_rejects_equal_vertices(self):
        with pytest.raises(ValueError):
            min2(path_graph(3).neighborhood_matrix, 2, 2)

    def test_rejects_a_vertex_out_of_range(self):
        with pytest.raises(ValueError, match=r"vertex 0 out of range 1\.\.3"):
            min2(path_graph(3).neighborhood_matrix, 0, 1)

    def test_symmetric(self):
        b = nonminimal_grid_fixture().neighborhood_matrix
        assert min2(b, 7, 8) == min2(b, 8, 7)

    def test_matches_brute_force_all_pairs(self):
        for g in small_corpus()[:60]:
            b = g.neighborhood_matrix
            for j in range(1, g.n + 1):
                for k in range(1, g.n + 1):
                    if j != k:
                        assert min2(b, j, k) == brute_min_sym_diff(g, j, k)


class TestLexCodeDense:
    def test_fixture_returns_pinned_code(self):
        assert dense(nonminimal_grid_fixture()) == Code((1, 2, 3, 4, 5, 6))

    def test_single_vertex(self):
        assert dense(Graph(1)) == Code((1,))

    def test_p3(self):
        assert dense(path_graph(3)) == Code((1, 3))

    def test_k2_fails(self):
        assert dense(path_graph(2)) == TwinFailure(j=2, k=1)

    def test_fixture_output_not_minimal(self):
        g = nonminimal_grid_fixture()
        out = dense(g)
        assert is_identifying_code(g, [v for v in out if v != 1])
        assert minimalize(g, out) == Code((2, 3, 4, 5, 6))

    def test_failure_iff_twins_with_same_pair(self):
        for g in small_corpus():
            twins = find_twins(g)
            out = dense(g)
            if twins is None:
                assert isinstance(out, Code)
                assert is_identifying_code(g, out)
                assert len(out) <= g.n
            else:
                assert out == TwinFailure(j=twins[1], k=twins[0])

    def test_prefix_subset_when_prefix_identifies(self):
        # placing any identifying code at indices 1..m confines the output there
        for g in twin_free_corpus()[:60]:
            out = dense(g)
            members = list(out)
            if len(members) < g.n:
                members.append(next(v for v in range(1, g.n + 1) if v not in out))
            rerun = dense(apply_sequence(g, prefix_sequence(g, members)))
            assert set(rerun) <= set(range(1, len(members) + 1))

    def test_minimal_prefix_returned_exactly(self):
        for g in twin_free_corpus()[:60]:
            minimal = minimalize(g, Code(tuple(range(1, g.n + 1))))
            rerun = dense(apply_sequence(g, prefix_sequence(g, minimal)))
            assert rerun == Code(tuple(range(1, len(minimal) + 1)))

    def test_tally_deterministic_and_inert(self):
        g = twin_free_corpus()[7]
        plain = dense(g)
        t1, t2 = DenseWorkTally(), DenseWorkTally()
        assert lex_code_dense(g.neighborhood_matrix, tally=t1) == plain
        assert lex_code_dense(g.neighborhood_matrix, tally=t2) == plain
        assert t1 == t2
        assert t1.total == t1.row_comparison_bits + t1.scan_bits + t1.column_copy_bits
        assert t1.total > 0
