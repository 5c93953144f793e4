from copy import deepcopy

import pytest

from lexid import (
    Code,
    Graph,
    TwinFailure,
    lex_code_dense,
    lex_code_sparse,
    min2,
    min3,
    nonminimal_grid_fixture,
    path_graph,
)
from lexid.sparse import SparseWorkTally

from corpus import small_corpus, twin_free_corpus


def sparse(g):
    return lex_code_sparse(g.neighborhood_array)


class TestMin3:
    def test_k2_twins_signal(self):
        assert min3(path_graph(2).neighborhood_array, 2, 1) == 3

    def test_p3_prefix_case(self):
        # lists (1,2,3) and (1,2) agree on the shared prefix; the longer
        # list's next element is the answer
        assert min3(path_graph(3).neighborhood_array, 2, 1) == 3

    def test_fixture_pair_first_divergence(self):
        assert min3(nonminimal_grid_fixture().neighborhood_array, 8, 7) == 6

    def test_rejects_equal_vertices(self):
        with pytest.raises(ValueError):
            min3(path_graph(3).neighborhood_array, 1, 1)

    def test_agrees_with_min2_on_all_pairs(self):
        for g in small_corpus()[:60]:
            a = g.neighborhood_array
            b = g.neighborhood_matrix
            for j in range(1, g.n + 1):
                for k in range(1, g.n + 1):
                    if j != k:
                        assert min3(a, j, k) == min2(b, j, k)


class TestLexCodeSparse:
    def test_fixture_returns_pinned_code(self):
        assert sparse(nonminimal_grid_fixture()) == Code((1, 2, 3, 4, 5, 6))

    def test_single_vertex(self):
        assert sparse(Graph(1)) == Code((1,))

    def test_k2_fails(self):
        assert sparse(path_graph(2)) == TwinFailure(j=2, k=1)

    def test_equivalent_to_dense_on_corpus(self):
        for g in small_corpus():
            assert sparse(g) == lex_code_dense(g.neighborhood_matrix)

    def test_loop_invariant_lists_nonempty_distinct_sorted(self):
        for g in twin_free_corpus()[:50]:
            states = []
            lex_code_sparse(g.neighborhood_array, observer=states.append)
            assert len(states) == g.n
            for state in states:
                head = state.rows[: state.step]
                assert all(head)
                assert len(set(head)) == state.step
                for row in state.rows:
                    assert list(row) == sorted(row)

    def test_work_counter_bounded_by_quadratic_degree_budget(self):
        # total element touches stay O(n^2 * d): comparisons cost at most
        # (d+2) each over at most n(n-1)/2 candidate pairs, plus O(n*d) rest
        for g in twin_free_corpus()[:80]:
            tally = SparseWorkTally()
            lex_code_sparse(g.neighborhood_array, tally=tally)
            d = g.max_degree
            assert tally.total <= (d + 2) * (g.n * g.n + 8 * g.n)

    def test_tally_deterministic_and_inert(self):
        g = twin_free_corpus()[3]
        plain = sparse(g)
        t1, t2 = SparseWorkTally(), SparseWorkTally()
        assert lex_code_sparse(g.neighborhood_array, tally=t1) == plain
        assert lex_code_sparse(g.neighborhood_array, tally=t2) == plain
        assert t1 == t2
        assert t1.total > 0

    def test_observer_snapshots_stay_detached_from_the_run(self):
        # a snapshot taken at step j still holds step j's rows after the run
        g = nonminimal_grid_fixture()
        for construct, view in (
            (lex_code_sparse, g.neighborhood_array),
            (lex_code_dense, g.neighborhood_matrix),
        ):
            pairs = []
            construct(view, observer=lambda state: pairs.append((state, deepcopy(state))))
            assert len(pairs) == g.n
            assert all(state == copy for state, copy in pairs)

    def test_insertion_touches_only_neighbor_lists(self):
        # between consecutive steps, a row may change only if the vertex is
        # covered by the codeword added at that step
        g = nonminimal_grid_fixture()
        states = []
        lex_code_sparse(g.neighborhood_array, observer=states.append)
        nbhd = g.neighborhood_array
        for before, after in zip(states, states[1:]):
            added = set(after.code) - set(before.code)
            assert len(added) <= 1
            for a in range(1, g.n + 1):
                if before.row(a) != after.row(a):
                    (l,) = added
                    assert a in nbhd.neighborhood(l)
