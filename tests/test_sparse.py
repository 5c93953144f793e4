import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexid import (
    ClosedNeighborhoodMatrix,
    Code,
    Graph,
    TwinFailure,
    apply_sequence,
    derive_seed,
    find_twins,
    grid_graph,
    lex_code_dense,
    lex_code_sparse,
    min2,
    min3,
    nonminimal_grid_fixture,
    path_graph,
)
from lexid.dense import DenseWorkTally
from lexid.graph import _positions
from lexid.scan import in_order
from lexid.sparse import SparseWorkTally, _run

from calls import scan_steps
from corpus import full_corpus, graphs, graphs_with_twins, small_corpus, twin_free_corpus, twin_free_graphs
from oracles import brute_min_sym_diff, neighborhood_sets, reference_sparse_tally, relabeled_array, tagged

with_and_without_twins = pytest.mark.parametrize(
    "kind", [twin_free_graphs(max_n=12), graphs_with_twins(max_n=12)], ids=["twin-free", "twins"]
)


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


@pytest.mark.parametrize(
    "construct, view, tally_type",
    [
        (lex_code_sparse, "neighborhood_array", SparseWorkTally),
        (lex_code_dense, "neighborhood_matrix", DenseWorkTally),
    ],
    ids=["sparse", "dense"],
)
def test_recorded_steps_keep_the_loop_invariant(construct, view, tally_type):
    # after step j the traces N(v_a) ∩ C of v_1..v_j are non-empty and
    # distinct, rebuilt here from the codewords the recorded steps added
    twin_graphs = tuple(g for g in small_corpus() if find_twins(g) is not None)[:5]
    assert len(twin_graphs) == 5
    for g in twin_free_corpus()[:50] + twin_graphs:
        tally, plain = tally_type(), tally_type()
        outcome, steps = scan_steps(construct, getattr(g, view), tally=tally)
        assert outcome == construct(getattr(g, view), tally=plain)
        assert tally == plain  # the recording chains onto the tally's charge
        nbhd = neighborhood_sets(g)
        code: set[int] = set()
        for step, (j, k, l) in enumerate(steps, 1):
            assert j == step
            trace = nbhd[j] & code
            match = [a for a in range(1, j) if nbhd[a] & code == trace]
            if not trace:
                assert (k, l) == (0, min(nbhd[j]))
            elif match:
                assert [k] == match
                assert l == brute_min_sym_diff(g, j, k)
            else:
                assert (k, l) == (j, 0)
            if l > g.n:
                assert (k, j) == find_twins(g)
                assert j == len(steps)
                assert outcome == TwinFailure(j=j, k=k)
                break
            if l:
                code.add(l)
            traces = [nbhd[a] & code for a in range(1, j + 1)]
            assert all(traces)
            assert len(set(traces)) == j
        else:
            assert len(steps) == g.n
            assert outcome == Code(tuple(sorted(l for _, _, l in steps if l)))


class TestSameStepsAsDense:
    """The constructors supply only the separation, so they take the same steps."""

    def assert_same_steps(self, g):
        dense = scan_steps(lex_code_dense, g.neighborhood_matrix)
        assert scan_steps(lex_code_sparse, g.neighborhood_array) == dense

    @with_and_without_twins
    @given(data=st.data())
    @settings(max_examples=200)
    def test_on_hypothesis_graphs(self, kind, data):
        self.assert_same_steps(data.draw(kind))

    def test_on_the_small_corpus(self):
        corpus = small_corpus()
        assert any(find_twins(g) for g in corpus) and not all(find_twins(g) for g in corpus)
        for g in corpus:
            self.assert_same_steps(g)


class TestTallyAgainstExplicitRows:
    """SparseWorkTally against a run that keeps its rows and charges their lengths."""

    def assert_matches(self, g):
        tally = SparseWorkTally()
        outcome = lex_code_sparse(g.neighborhood_array, tally=tally)
        assert (tagged(outcome), asdict(tally)) == reference_sparse_tally(g)

    @with_and_without_twins
    @given(data=st.data())
    @settings(max_examples=200)
    def test_on_hypothesis_graphs(self, kind, data):
        self.assert_matches(data.draw(kind))

    def test_on_the_corpora(self):
        # up to 32 vertices and rows of up to 8 codewords; the grid has 144 vertices
        for g in small_corpus() + twin_free_corpus()[:50] + (grid_graph(12, 12),):
            self.assert_matches(g)


def shuffled(n, rnd):
    sequence = list(range(1, n + 1))
    rnd.shuffle(sequence)
    return sequence


class TestProcessingOrder:
    """Both constructors under sequence= against the run on the relabeled view."""

    def assert_same_run(self, g, sequence):
        a = g.neighborhood_array
        relabeled = relabeled_array(a, sequence)
        for construct, view, reference, tally in (
            (lex_code_sparse, a, relabeled, SparseWorkTally),
            (lex_code_dense, ClosedNeighborhoodMatrix(a), ClosedNeighborhoodMatrix(relabeled), DenseWorkTally),
        ):
            got, expected = tally(), tally()
            assert construct(view, sequence=sequence) == construct(reference)
            assert (scan_steps(construct, view, sequence=sequence, tally=got)
                    == scan_steps(construct, reference, tally=expected))
            assert got == expected

    @given(graphs(max_n=12), st.randoms(use_true_random=False))
    @settings(max_examples=300)
    def test_matches_the_relabeled_run(self, g, rnd):
        # about half of these graphs have twins
        self.assert_same_run(g, shuffled(g.n, rnd))

    def test_matches_the_relabeled_run_on_the_corpora(self):
        corpora = small_corpus() + twin_free_corpus() + full_corpus()[::10]
        assert any(find_twins(g) for g in corpora) and not all(find_twins(g) for g in corpora)
        for i, g in enumerate(corpora):
            rnd = random.Random(derive_seed(0, i))
            for sequence in (list(range(1, g.n + 1)), list(range(g.n, 0, -1)), shuffled(g.n, rnd)):
                self.assert_same_run(g, sequence)

    @with_and_without_twins
    @given(data=st.data())
    @settings(max_examples=200)
    def test_the_unchecked_run_matches_the_checked_one(self, kind, data):
        # the run a random restart makes, on the inverse its loop builds
        g = data.draw(kind)
        sequence = shuffled(g.n, data.draw(st.randoms(use_true_random=False)))
        position = [0] * (g.n + 1)
        for p, v in enumerate(sequence, 1):
            position[v] = p
        a, order = g.neighborhood_array, [0, *sequence]
        assert _run(a, order, position) == lex_code_sparse(a, sequence)
        got, expected = SparseWorkTally(), SparseWorkTally()
        assert (scan_steps(_run, a, order=order, position=position, tally=got)
                == scan_steps(lex_code_sparse, a, sequence=sequence, tally=expected))
        assert got == expected

    @with_and_without_twins
    @given(data=st.data())
    @settings(max_examples=200)
    def test_the_ordered_separation_at_every_pair(self, kind, data):
        # every pair, not only the ones a scan reaches: h is the graph the ordered run stands for
        g = data.draw(kind)
        sequence = shuffled(g.n, data.draw(st.randoms(use_true_random=False)))
        h = apply_sequence(g, sequence)
        separate = in_order(g.neighborhood_array._lists, [0, *sequence], _positions(sequence, g.n))
        nbhd = neighborhood_sets(h)
        for j in range(1, g.n + 1):
            assert separate(j, 0) == min(nbhd[j])
            for k in range(1, j):
                assert separate(j, k) == brute_min_sym_diff(h, j, k)
                assert (separate(j, k) == g.n + 1) == (nbhd[j] == nbhd[k])

    def test_twins_are_reported_by_position(self):
        g = Graph(4, [(1, 2), (3, 4)])  # twins {1, 2} and {3, 4}
        assert lex_code_sparse(g.neighborhood_array, [3, 1, 4, 2]) == TwinFailure(j=3, k=1)
        assert lex_code_dense(g.neighborhood_matrix, [3, 1, 4, 2]) == TwinFailure(j=3, k=1)

    @pytest.mark.parametrize(
        "bad", [[1, 2], [1, 1, 2], [0, 1, 2], [1, 2, 4], [True, 2, 3], [1.0, 2, 3], [1, 2, 3, 4], []]
    )
    def test_rejects_a_non_permutation_like_relabel(self, bad):
        g = path_graph(3)
        with pytest.raises(ValueError) as expected:
            relabeled_array(g.neighborhood_array, bad)
        assert str(expected.value) == f"not a permutation of 1..3: {tuple(bad)!r}"
        # each constructor checks the sequence itself, with and without a tally
        for construct, view, tally in [
            (lex_code_sparse, g.neighborhood_array, None),
            (lex_code_sparse, g.neighborhood_array, SparseWorkTally()),
            (lex_code_dense, g.neighborhood_matrix, None),
            (lex_code_dense, g.neighborhood_matrix, DenseWorkTally()),
        ]:
            with pytest.raises(ValueError) as got:
                construct(view, bad, tally=tally)
            assert str(got.value) == str(expected.value), (construct.__name__, tally)
