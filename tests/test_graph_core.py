from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexid
from lexid import (
    ClosedNeighborhoodMatrix,
    Code,
    Graph,
    TwinFailure,
    apply_sequence,
    find_twins,
    is_identifying_code,
    lex_code_dense,
    nonminimal_grid_fixture,
    parse_graph,
    path_graph,
)

from corpus import graphs
from oracles import brute_find_twins, brute_is_identifying, neighborhood_sets, relabeled_array


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(1, 2), (2, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            Graph(3, [(1, 4)])

    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError):
            Graph(0)

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (True, (), "vertex count must be a positive integer, got True"),
            (3, [(True, 2)], "edge endpoints must be integers, got (True, 2)"),
            (3, [(1, 2), (2, False)], "edge endpoints must be integers, got (2, False)"),
        ],
    )
    def test_rejects_bool(self, n, edges, message):
        with pytest.raises(ValueError) as info:
            Graph(n, edges)
        assert str(info.value) == message

    def test_an_item_that_is_no_pair_raises_the_unpacking_error(self):
        with pytest.raises(TypeError) as unpacking:
            u, v = 5
        with pytest.raises(TypeError) as info:
            Graph(3, [5])
        assert str(info.value) == str(unpacking.value)

    def test_equality_ignores_the_given_edge_order_and_builds_no_edge_set(self):
        g, h = Graph(4, [(3, 4), (2, 1), (2, 3)]), Graph(4, [(1, 2), (4, 3), (2, 3)])
        assert g == h and g != Graph(4, [(1, 2), (2, 3)]) and g != Graph(5, g.pairs)
        assert "edges" not in g.__dict__ and "edges" not in h.__dict__

    def test_never_equal_to_another_type(self):
        assert Graph(3).__eq__("x") is NotImplemented
        assert (Graph(3) == "x") is False

    def test_single_vertex_is_legal(self):
        g = Graph(1)
        assert g.n == 1 and not g.edges
        assert find_twins(g) is None
        assert is_identifying_code(g, [1])

    def test_edges_canonicalized(self):
        assert Graph(3, [(2, 1)]).edges == frozenset({(1, 2)})


class TestClosedNeighborhood:
    def test_isolated_vertex(self):
        assert Graph(3).neighborhood_array.neighborhood(2) == (2,)

    def test_path_center(self):
        assert path_graph(3).neighborhood_array.neighborhood(2) == (1, 2, 3)

    def test_fixture_vertex_six(self):
        assert nonminimal_grid_fixture().neighborhood_array.neighborhood(6) == (4, 6, 7)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"vertex 4 out of range 1\.\.3"):
            path_graph(3).neighborhood_array.neighborhood(4)

    @settings(max_examples=200, derandomize=True)
    @given(graphs(), st.randoms(use_true_random=False))
    def test_contains_self_and_matches_edge_sets(self, g, rnd):
        # the lists are filled from the stored increasing pairs and only v is
        # inserted, so every way to build a graph must give sorted({v} ∪ N(v))
        shuffled = list(g.pairs)
        rnd.shuffle(shuffled)
        flipped = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in shuffled]
        sequence = list(range(1, g.n + 1))
        rnd.shuffle(sequence)
        builds = [
            g,
            Graph(g.n, shuffled),
            Graph(g.n, [(v, u) for u, v in reversed(g.pairs)]),
            Graph._from_int_endpoints(g.n, [u for u, _ in flipped], [v for _, v in flipped]),
            parse_graph(f"{g.n} {len(shuffled)}\n" + "".join(f"{u} {v}\n" for u, v in shuffled), "edgelist"),
            parse_graph(f"p edge {g.n} {len(flipped)}\n" + "".join(f"e {u} {v}\n" for u, v in flipped), "dimacs"),
            apply_sequence(g, sequence),
        ]
        for h in builds:
            nbhd = neighborhood_sets(h)
            lists = h.neighborhood_array._lists
            assert lists[0] == ()
            assert lists[1:] == tuple(tuple(sorted(nbhd[v])) for v in range(1, h.n + 1))


class TestFindTwins:
    def test_k2(self):
        assert find_twins(path_graph(2)) == (1, 2)

    def test_two_isolated_vertices(self):
        assert find_twins(Graph(2)) is None

    def test_p3(self):
        assert find_twins(path_graph(3)) is None

    def test_interleaved_twin_classes_report_earliest_failure(self):
        # classes {1,6} and {2,3}: the constructors fail at j=3 with k=2, so
        # that is the pair to report, not the smaller-k pair (1,6)
        g = Graph(6, [(1, 6), (2, 3), (4, 5)])
        assert find_twins(g) == (2, 3)
        assert lex_code_dense(g.neighborhood_matrix) == TwinFailure(j=3, k=2)

    @given(graphs())
    def test_matches_brute_force(self, g):
        assert find_twins(g) == brute_find_twins(g)

    @given(graphs())
    def test_none_iff_all_neighborhoods_distinct(self, g):
        distinct = len(set(neighborhood_sets(g).values())) == g.n
        assert (find_twins(g) is None) == distinct


class TestIsIdentifyingCode:
    def test_fixture_known_code(self):
        assert is_identifying_code(nonminimal_grid_fixture(), [2, 3, 4, 5, 6])

    def test_empty_code_never_identifies(self):
        assert not is_identifying_code(Graph(1), [])
        assert not is_identifying_code(path_graph(3), [])

    def test_fixture_single_vertex_fails(self):
        # N(2) and N(4) both trace to {1}
        assert not is_identifying_code(nonminimal_grid_fixture(), [1])

    def test_out_of_range_member(self):
        with pytest.raises(ValueError):
            is_identifying_code(path_graph(3), [4])

    def test_the_first_out_of_range_member_in_input_order_is_named(self):
        with pytest.raises(ValueError) as info:
            is_identifying_code(path_graph(3), [2, 9, 0])
        assert str(info.value) == "code member 9 out of range 1..3"

    @pytest.mark.parametrize("members, message", [
        ([True, 3], "code member True is not an integer"),
        ([1.0, 3], "code member 1.0 is not an integer"),
        (["1", 3], "code member '1' is not an integer"),
        ([2, 9, "x"], "code member 9 out of range 1..3"),
        ([2, "x", 9], "code member 'x' is not an integer"),
    ], ids=["bool", "float", "str", "range-first", "type-first"])
    def test_the_first_non_integer_or_out_of_range_member_is_named(self, members, message):
        with pytest.raises(ValueError) as info:
            is_identifying_code(path_graph(3), members)
        assert str(info.value) == message

    def test_accepts_code_objects(self):
        assert is_identifying_code(path_graph(3), Code((1, 3)))

    @given(graphs(max_n=8))
    def test_matches_brute_force_on_all_subsets(self, g):
        vertices = list(range(1, g.n + 1))
        for size in range(g.n + 1):
            for members in combinations(vertices, size):
                assert is_identifying_code(g, members) == brute_is_identifying(g, members)

    @given(graphs(max_n=40), st.data())
    def test_matches_brute_force_on_unsorted_lists_with_repeats(self, g, data):
        vertex = st.integers(1, g.n)
        dropped = set(data.draw(st.lists(vertex, max_size=4)))
        members = [v for v in range(1, g.n + 1) if v not in dropped]
        members += data.draw(st.lists(vertex, max_size=g.n))
        data.draw(st.randoms()).shuffle(members)
        expected = brute_is_identifying(g, members)
        assert is_identifying_code(g, members) == expected
        assert is_identifying_code(g, iter(members)) == expected
        assert is_identifying_code(g, Code(tuple(sorted(set(members))))) == expected

    @given(graphs())
    def test_superset_closure(self, g):
        base = [v for v in range(1, g.n + 1) if v % 2]
        if is_identifying_code(g, base):
            assert is_identifying_code(g, range(1, g.n + 1))

    @given(graphs())
    def test_full_vertex_set_identifies_iff_twin_free(self, g):
        assert is_identifying_code(g, range(1, g.n + 1)) == (find_twins(g) is None)


class TestApplySequence:
    """Relabeling a whole graph with apply_sequence."""

    def test_identity(self):
        g = nonminimal_grid_fixture()
        assert apply_sequence(g, list(range(1, 10))) == g

    def test_p3_swap(self):
        g = apply_sequence(path_graph(3), [2, 1, 3])
        assert g.edges == frozenset({(1, 2), (1, 3)})

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="permutation"):
            apply_sequence(path_graph(3), [1, 1, 2])
        with pytest.raises(ValueError, match="permutation"):
            apply_sequence(path_graph(3), [1, 2])

    @given(graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_degree_multiset_preserved_and_inverse_roundtrip(self, g, rnd):
        sequence = list(range(1, g.n + 1))
        rnd.shuffle(sequence)
        h = apply_sequence(g, sequence)
        assert sorted(h.degrees[1:]) == sorted(g.degrees[1:])
        inverse = [0] * g.n  # vertex v of g is vertex inverse[v-1] of h
        for new, old in enumerate(sequence, 1):
            inverse[old - 1] = new
        assert apply_sequence(h, inverse) == g


class TestRelabel:
    @given(graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_matches_the_rebuilt_graph(self, g, rnd):
        sequence = list(range(1, g.n + 1))
        rnd.shuffle(sequence)
        relabeled = relabeled_array(g.neighborhood_array, sequence)
        assert relabeled.n == g.n
        assert relabeled._lists == apply_sequence(g, sequence).neighborhood_array._lists
        assert relabeled._lists[0] == ()  # the scan's empty sentinel

    @pytest.mark.parametrize(
        "bad", [[1, 1, 2], [1, 2], [1, 2, 3, 4], [0, 1, 2], [1, 2, 4], [1.0, 2.0, 3.0], [True, 2, 3]]
    )
    def test_rejects_non_bijection_like_apply_sequence(self, bad):
        g = path_graph(3)
        with pytest.raises(ValueError) as expected:
            apply_sequence(g, bad)
        with pytest.raises(ValueError) as got:
            relabeled_array(g.neighborhood_array, bad)
        assert str(got.value) == str(expected.value) == f"not a permutation of 1..3: {tuple(bad)!r}"


class TestDerivedMatrix:
    @given(graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_rows_match_the_edges(self, g, rnd):
        sequence = list(range(1, g.n + 1))
        rnd.shuffle(sequence)
        relabeled = apply_sequence(g, sequence)
        for a, h in ((g.neighborhood_array, g), (relabeled_array(g.neighborhood_array, sequence), relabeled)):
            b = ClosedNeighborhoodMatrix(a)
            nbhd = neighborhood_sets(h)
            rows = [0] + [sum(1 << (u - 1) for u in nbhd[v]) for v in range(1, h.n + 1)]
            assert b.n == h.n
            assert b._rows == tuple(rows)
            for j in range(1, h.n + 1):
                assert a.neighborhood(j) == h.neighborhood_array.neighborhood(j) == tuple(sorted(nbhd[j]))


class TestDomainTypes:
    def test_code_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            Code((2, 1))
        with pytest.raises(ValueError):
            Code((1, 1))

    def test_code_rejects_bool_members(self):
        with pytest.raises(ValueError) as info:
            Code((True, 2))
        assert str(info.value) == "code member True is not a positive integer"

    @pytest.mark.parametrize("members, bad", [
        ((1, True), True), ((0, 2), 0), ((2, -3), -3), ((1, 2.0), 2.0),
        ((1.5, 0), 1.5), ((-1, "x"), -1), ((3, "x", 0), "x"),
    ])
    def test_code_names_the_first_bad_member(self, members, bad):
        with pytest.raises(ValueError) as info:
            Code(members)
        assert str(info.value) == f"code member {bad!r} is not a positive integer"

    def test_code_iteration_and_cardinality(self):
        code = Code((2, 5, 7))
        assert list(code) == [2, 5, 7]
        assert code.cardinality == len(code) == 3
        assert 5 in code and 3 not in code

    def test_twin_failure_requires_ordered_pair(self):
        assert TwinFailure(j=2, k=1).pair == (1, 2)
        with pytest.raises(ValueError):
            TwinFailure(j=1, k=2)

    def test_matrix_views(self):
        g = path_graph(3)
        b = g.neighborhood_matrix
        assert b.row(2) == 0b111
        assert b.row(1) == 0b011  # v_2 covers v_1, v_3 does not
        a = g.neighborhood_array
        assert a.neighborhood(2) == (1, 2, 3)
        assert len(a.neighborhood(1)) == g.degrees[1] + 1

    @given(graphs())
    def test_matrix_symmetric_with_unit_diagonal(self, g):
        b = g.neighborhood_matrix
        for j in range(1, g.n + 1):
            assert b.row(j) >> (j - 1) & 1
            for l in range(1, g.n + 1):
                assert b.row(j) >> (l - 1) & 1 == b.row(l) >> (j - 1) & 1


def test_public_names_exist_once():
    assert len(set(lexid.__all__)) == len(lexid.__all__)
    assert [name for name in lexid.__all__ if not hasattr(lexid, name)] == []
