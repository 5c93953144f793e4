import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexid.restarts
from lexid import (
    Code,
    Graph,
    OrderingStrategy,
    SplitMix64,
    TwinsError,
    apply_sequence,
    code_to_original,
    derive_seed,
    gnp_graph,
    is_identifying_code,
    lex_code_dense,
    lex_code_sparse,
    nonminimal_grid_fixture,
    path_graph,
    prefix_sequence,
    run_restarts,
)

from corpus import twin_free_corpus
from oracles import reference_shuffle


class TestSplitMix64:
    def test_reference_stream(self):
        # first outputs of the published splitmix64 for seed 0
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_random_unit_interval(self):
        rng = SplitMix64(123)
        values = [rng.random() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in values)

    def test_randbelow_range_and_determinism(self):
        a, b = SplitMix64(9), SplitMix64(9)
        xs = [a.randbelow(13) for _ in range(200)]
        assert xs == [b.randbelow(13) for _ in range(200)]
        assert set(xs) <= set(range(13))

    def test_shuffle_is_permutation(self):
        items = list(range(1, 30))
        SplitMix64(5).shuffle(items)
        assert sorted(items) == list(range(1, 30))

    @given(
        st.one_of(
            st.integers(0, 2**64 - 1),
            st.builds(derive_seed, st.integers(0, 2**64 - 1), st.integers(0, 1000)),
        ),
        st.integers(0, 300),
    )
    @settings(max_examples=300)
    def test_shuffle_matches_reference(self, seed, length):
        # the permutation and the generator state it leaves behind both match
        # a Fisher-Yates that draws through randbelow
        items, expected = list(range(length)), list(range(length))
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        rng.shuffle(items)
        reference_shuffle(ref, expected)
        assert items == expected
        assert rng.next_u64() == ref.next_u64()

    def test_derive_seed_prefix_stable(self):
        assert [derive_seed(7, i) for i in range(5)] == [derive_seed(7, i) for i in range(5)]
        assert derive_seed(7, 0) != derive_seed(7, 1)
        assert derive_seed(7, 0) != derive_seed(8, 0)


class TestOrderingStrategy:
    def test_identity(self):
        g = path_graph(4)
        assert OrderingStrategy("identity").sequence_for(g) == [1, 2, 3, 4]

    def test_degree_orders_on_p4(self):
        g = path_graph(4)  # degrees 1,2,2,1
        assert OrderingStrategy("degree-asc").sequence_for(g) == [1, 4, 2, 3]
        assert OrderingStrategy("degree-desc").sequence_for(g) == [2, 3, 1, 4]

    def test_random_deterministic_given_rng(self):
        g = path_graph(9)
        s = OrderingStrategy("random")
        first = s.sequence_for(g, SplitMix64(3))
        assert first == s.sequence_for(g, SplitMix64(3))
        assert sorted(first) == list(range(1, 10))

    def test_random_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            OrderingStrategy("random").sequence_for(path_graph(3))

    def test_explicit_validated_against_graph(self):
        s = OrderingStrategy("explicit", (3, 1, 2))
        assert s.sequence_for(path_graph(3)) == [3, 1, 2]
        with pytest.raises(ValueError, match="permutation"):
            s.sequence_for(path_graph(4))

    def test_bad_constructions(self):
        with pytest.raises(ValueError, match="unknown ordering"):
            OrderingStrategy("sorted")
        with pytest.raises(ValueError, match="requires a sequence"):
            OrderingStrategy("explicit")
        with pytest.raises(ValueError, match="does not take"):
            OrderingStrategy("identity", (1, 2))


class TestPermutationPlumbing:
    def test_prefix_sequence_places_members_first(self):
        g = path_graph(5)
        sequence = prefix_sequence(g, [4, 2])
        assert sequence == [2, 4, 1, 3, 5]  # vertices 2 and 4 land on 1 and 2
        assert apply_sequence(g, sequence).edges == frozenset({(1, 3), (1, 4), (2, 4), (2, 5)})

    def test_relabeled_code_maps_back_to_identifying_code(self):
        for i, g in enumerate(twin_free_corpus()[:40]):
            seq = OrderingStrategy("random").sequence_for(g, SplitMix64(i))
            relabeled = apply_sequence(g, seq)
            out = lex_code_sparse(relabeled.neighborhood_array)
            back = code_to_original(out, seq)
            assert is_identifying_code(g, back)
            assert back.cardinality == out.cardinality


class TestRunRestarts:
    def test_identity_single_restart_equals_dense(self):
        g = nonminimal_grid_fixture()
        report = run_restarts(g, "identity", restarts=1, seed=0)
        assert report.best_code == lex_code_dense(g.neighborhood_matrix)
        assert report.cardinalities == (6,)

    def test_p3_reaches_minimum(self):
        report = run_restarts(path_graph(3), "random", restarts=50, seed=11)
        assert report.best_cardinality == 2

    def test_fixture_reaches_five_or_better(self):
        report = run_restarts(nonminimal_grid_fixture(), "random", restarts=100, seed=1)
        assert report.best_cardinality <= 5

    def test_twins_rejected_before_work(self):
        with pytest.raises(TwinsError) as info:
            run_restarts(path_graph(2), "random", restarts=5, seed=0)
        assert info.value.pair == (1, 2)

    def test_zero_restarts_rejected(self):
        with pytest.raises(ValueError, match="restarts"):
            run_restarts(path_graph(3), "random", restarts=0, seed=0)

    def test_report_invariants(self):
        g = nonminimal_grid_fixture()
        report = run_restarts(g, "random", restarts=20, seed=5)
        assert report.best_cardinality == min(report.cardinalities)
        assert is_identifying_code(g, report.best_code)
        assert len(report.cardinalities) == len(report.seeds) == len(report.elapsed_seconds) == 20
        assert len(set(report.seeds)) == 20

    def test_prefix_stable_and_monotone_in_restarts(self):
        g = nonminimal_grid_fixture()
        short = run_restarts(g, "random", restarts=5, seed=9)
        long = run_restarts(g, "random", restarts=25, seed=9)
        assert long.cardinalities[:5] == short.cardinalities
        assert long.best_cardinality <= short.best_cardinality

    def test_explicit_strategy(self):
        g = path_graph(3)
        report = run_restarts(g, (3, 2, 1), restarts=2, seed=0)
        relabeled = apply_sequence(g, [3, 2, 1])
        expected = code_to_original(lex_code_sparse(relabeled.neighborhood_array), [3, 2, 1])
        assert report.best_code == expected
        assert isinstance(expected, Code)

    def test_reordered_runs_agree_with_apply_sequence(self):
        for i, g in enumerate(twin_free_corpus()[::20]):
            seq = OrderingStrategy("random").sequence_for(g, SplitMix64(i))
            report = run_restarts(g, seq, restarts=1)
            direct = lex_code_sparse(apply_sequence(g, seq).neighborhood_array)
            assert report.best_code == code_to_original(direct, seq)
            assert report.cardinalities == (direct.cardinality,)

    def test_restarts_build_no_graph(self, monkeypatch):
        g = gnp_graph(64, 0.1, 7)
        built = []
        init = Graph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        report = run_restarts(g, "random", restarts=50)
        assert len(report.cardinalities) == 50
        assert built == []
        apply_sequence(g, list(range(1, g.n + 1)))  # the counter does see a rebuild
        assert len(built) == 1

    def test_maps_back_only_on_a_strict_improvement(self, monkeypatch):
        calls = []
        map_back = lexid.restarts.code_to_original

        def counting_map_back(code, sequence):
            calls.append(len(code))
            return map_back(code, sequence)

        monkeypatch.setattr(lexid.restarts, "code_to_original", counting_map_back)
        report = run_restarts(gnp_graph(128, 0.1, derive_seed(0, 128)), "random", 200, 0)
        improvements = [
            size for i, size in enumerate(report.cardinalities)
            if i == 0 or size < min(report.cardinalities[:i])
        ]
        assert calls == improvements
        assert len(calls) < 200

    def test_ties_keep_the_first_restart_at_the_minimum(self):
        # the pinned fixture batch (tests/test_restart_pins.py) reaches its
        # minimum at several restarts, and they map back to different codes
        g = nonminimal_grid_fixture()
        report = run_restarts(g, "random", restarts=20, seed=0)
        tied = [i for i, size in enumerate(report.cardinalities) if size == report.best_cardinality]
        codes = []
        for i in tied:
            sequence = OrderingStrategy("random").sequence_for(g, SplitMix64(derive_seed(0, i)))
            outcome = lex_code_sparse(g.neighborhood_array.relabel(sequence))
            codes.append(code_to_original(outcome, sequence))
        assert len(set(codes)) > 1
        assert report.best_code == codes[0]
