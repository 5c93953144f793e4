import os

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lexid.orderings
import lexid.restarts
import lexid.rng
import lexid.sparse
from lexid import (
    ClosedNeighborhoodMatrix,
    Code,
    Graph,
    NeighborhoodArray,
    OrderingStrategy,
    SplitMix64,
    TwinsError,
    apply_sequence,
    code_to_original,
    derive_seed,
    find_twins,
    gnp_graph,
    is_identifying_code,
    lex_code_dense,
    lex_code_sparse,
    nonminimal_grid_fixture,
    path_graph,
    prefix_sequence,
    run_restarts,
    to_edge_list,
)
from lexid.cli import main

from corpus import graphs, twin_free_corpus
from lexid.rng import MAX_LANES
from oracles import GAMMA, reference_shuffle, relabeled_array, seed_for_output


class CountingSplitMix64(SplitMix64):
    """splitmix64 that counts the outputs drawn."""

    def __init__(self, seed):
        super().__init__(seed)
        self.drawn = 0

    def next_u64(self):
        self.drawn += 1
        return super().next_u64()


def scripted_output(script, k):
    """Output k of a stream that is SplitMix64(0)'s except where `script` gives it."""
    return script[k] if k in script else SplitMix64(k * GAMMA).next_u64()


def outputs_drawn(state):
    """How many outputs a stream started at state 0 has drawn when it reaches `state`."""
    return state * pow(GAMMA, -1, 2**64) % 2**64


class ScriptedSplitMix64(SplitMix64):
    """A generator started at state 0 whose outputs follow `script`."""

    def __init__(self, script):
        super().__init__(0)
        self.script = script

    def next_u64(self):
        k = outputs_drawn(self._state)
        self._state = (self._state + GAMMA) % 2**64
        return scripted_output(self.script, k)


def scripted_block(script):
    """A stand-in for lexid.rng._block that draws the same outputs as ScriptedSplitMix64(script)."""
    def block(state, count):
        k = outputs_drawn(state)
        one = int.from_bytes((1).to_bytes(16, "little") * count, "little")
        lanes = b"".join(scripted_output(script, k + t).to_bytes(16, "little") for t in range(count))
        return one, int.from_bytes(lanes, "little")
    return block


def crafted_draws():
    """(length, draw, z) cases where output `draw`, the draw for index
    i = length - 1 - draw, is z: 2**64 - 1 or the exact limit
    2**64 - 2**64 % (i + 1), both rejected unless i + 1 divides 2**64, or
    2**64 - i, which is kept although it fails the whole-block test.  The
    draws are the first, a middle and the last, and the last lane of one
    block and the first of the next."""
    for length in (2, 3, 6, 100, 129, MAX_LANES, MAX_LANES + 1, MAX_LANES + 2, 2 * MAX_LANES + 7):
        for draw in sorted({0, (length - 1) // 2, length - 2, MAX_LANES - 1, MAX_LANES} & set(range(length - 1))):
            i = length - 1 - draw
            for z in sorted({2**64 - 1, 2**64 - 2**64 % (i + 1), 2**64 - i} - {2**64}):
                yield length, draw, z


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
        with pytest.raises(ValueError, match="bound must be positive, got 0"):
            SplitMix64(0).randbelow(0)

    def test_shuffle_is_permutation(self):
        items = list(range(1, 30))
        SplitMix64(5).shuffle(items)
        assert sorted(items) == list(range(1, 30))

    @given(
        st.one_of(
            st.integers(0, 2**64 - 1),
            st.builds(derive_seed, st.integers(0, 2**64 - 1), st.integers(0, 1000)),
        ),
        st.integers(0, 3 * MAX_LANES + 2),
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

    @given(
        st.one_of(st.sampled_from([0, 2**64 - 1, 2**64, -1]), st.integers(0, 2**64 - 1)),
        st.lists(st.tuples(st.integers(0, 3 * MAX_LANES + 2), st.integers(0, 2**64)), max_size=4),
        st.data(),
    )
    @settings(max_examples=300)
    def test_flags_below_match_scalar_draws(self, seed, blocks, data):
        # the flags and the generator state they leave behind both match
        # count next_u64() calls; some limits sit on an output or just above it
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        for count, limit in blocks:
            outputs = [ref.next_u64() for _ in range(count)]
            if outputs and data.draw(st.booleans()):
                limit = data.draw(st.sampled_from(outputs)) + data.draw(st.integers(0, 1))
            assert rng.flags_below(count, limit) == bytes(z < limit for z in outputs)
        assert rng.next_u64() == ref.next_u64()

    @pytest.mark.parametrize("count, limit", [(-1, 0), (3, -1), (3, 2**64 + 1)])
    def test_flags_below_rejects_a_bad_block(self, count, limit):
        with pytest.raises(ValueError):
            SplitMix64(0).flags_below(count, limit)

    @given(st.integers(0, 2000), st.integers(0, 2**64 - 1))
    def test_seed_for_output_inverts_the_stream(self, k, z):
        rng = SplitMix64(seed_for_output(k, z))
        for _ in range(k):
            rng.next_u64()
        assert rng.next_u64() == z

    @pytest.mark.parametrize("length, draw, z", crafted_draws())
    def test_shuffle_matches_reference_at_a_crafted_draw(self, length, draw, z):
        items, expected = list(range(length)), list(range(length))
        rng, ref = SplitMix64(seed_for_output(draw, z)), CountingSplitMix64(seed_for_output(draw, z))
        rng.shuffle(items)
        reference_shuffle(ref, expected)
        i = length - 1 - draw
        assert ref.drawn == length - 1 + (z >= 2**64 - 2**64 % (i + 1))
        assert items == expected
        assert rng.next_u64() == ref.next_u64()

    @given(
        st.integers(2, 2 * MAX_LANES + 2),
        st.lists(st.tuples(st.integers(0, 3 * MAX_LANES), st.integers(0, 2 * MAX_LANES + 3)), max_size=8),
        st.integers(0, 3),
    )
    @example(length=6, overrides=[(1, 0), (2, 0)], run=0)  # index 4 rejected twice
    @example(length=MAX_LANES + 10, overrides=[], run=3)  # three in a row across a block's edge
    @settings(max_examples=50)
    def test_shuffle_matches_reference_on_a_scripted_stream(self, length, overrides, run):
        # outputs no seed can give together: rejections in a row, and several
        # rejections in one shuffle, some on a block's edge
        script = {k: 2**64 - 1 - offset for k, offset in overrides}
        for k in range(MAX_LANES - 1, MAX_LANES - 1 + run):
            script[k] = 2**64 - 1
        items, expected = list(range(length)), list(range(length))
        rng, ref = SplitMix64(0), ScriptedSplitMix64(script)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lexid.rng, "_block", scripted_block(script))
            rng.shuffle(items)
        reference_shuffle(ref, expected)
        assert items == expected
        assert rng._state == ref._state

    def test_derive_seed_prefix_stable(self):
        assert [derive_seed(7, i) for i in range(5)] == [derive_seed(7, i) for i in range(5)]
        assert derive_seed(7, 0) != derive_seed(7, 1)
        assert derive_seed(7, 0) != derive_seed(8, 0)
        with pytest.raises(ValueError, match="index must be non-negative, got -1"):
            derive_seed(0, -1)


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

    @pytest.mark.parametrize("restarts", [True, False, 2.0, "3", None])
    def test_non_int_restart_counts_rejected(self, restarts):
        with pytest.raises(ValueError, match="restarts must be an int"):
            run_restarts(path_graph(3), "random", restarts=restarts, seed=0)

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

    @pytest.mark.parametrize("bad", [[1.0, 2.0, 3.0], [True, 2, 3]])
    def test_explicit_strategy_with_non_int_entries_rejected(self, bad):
        with pytest.raises(ValueError) as info:
            run_restarts(path_graph(3), bad, 2)
        assert str(info.value) == f"not a permutation of 1..3: {tuple(bad)!r}"

    def test_reordered_runs_agree_with_apply_sequence(self):
        for i, g in enumerate(twin_free_corpus()[::20]):
            seq = OrderingStrategy("random").sequence_for(g, SplitMix64(i))
            report = run_restarts(g, seq, restarts=1)
            direct = lex_code_sparse(apply_sequence(g, seq).neighborhood_array)
            assert report.best_code == code_to_original(direct, seq)
            assert report.cardinalities == (direct.cardinality,)

    def test_restarts_build_no_graph(self, monkeypatch):
        g = gnp_graph(64, 0.1, 7)
        builds = []
        init = Graph.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        report = run_restarts(g, "random", restarts=50)
        assert len(report.cardinalities) == 50
        assert builds == []
        apply_sequence(g, list(range(1, g.n + 1)))
        assert len(builds) == 1  # the patch does see a rebuild

    @pytest.fixture
    def builds(self, monkeypatch):
        """The names of the view builds and graph relabelings made, in order."""
        calls = []
        for owner, name in ((NeighborhoodArray, "__init__"), (ClosedNeighborhoodMatrix, "__init__"),
                            (Graph, "_relabeled")):
            def counting(self, *args, _method=getattr(owner, name), _name=f"{owner.__name__}.{name}"):
                calls.append(_name)
                return _method(self, *args)

            monkeypatch.setattr(owner, name, counting)
        return calls

    @pytest.mark.parametrize("strategy", ["random", "identity", "degree-asc", "degree-desc", (9, 8, 7, 6, 5, 4, 3, 2, 1)])
    def test_restarts_relabel_nothing(self, builds, strategy):
        g = nonminimal_grid_fixture()
        report = run_restarts(g, strategy, restarts=20)
        assert len(report.cardinalities) == 20
        assert builds == ["NeighborhoodArray.__init__"]
        apply_sequence(g, list(range(1, g.n + 1)))
        assert builds[1:] == ["Graph._relabeled"]  # the patch does see a relabel

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    def test_an_ordered_code_run_relabels_nothing(self, builds, dense, tmp_path, capsys):
        path = tmp_path / "fixture.txt"
        path.write_text(to_edge_list(nonminimal_grid_fixture()))
        assert main(["code", *["--dense"] * dense, "--ordering", "random", "--seed", "3", str(path)]) == 0
        assert capsys.readouterr() == ("3 4 5 6 8 9\n6\n", "")
        # the one array, the matrix derived from it under --dense, and no relabeled graph
        assert builds == ["NeighborhoodArray.__init__"] + ["ClosedNeighborhoodMatrix.__init__"] * dense

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=12), st.sampled_from(["random", "degree-asc", "degree-desc"]), st.integers(0, 2**64 - 1))
    def test_an_ordered_scan_matches_the_relabeled_run(self, g, strategy, seed):
        sequence = OrderingStrategy(strategy).sequence_for(g, SplitMix64(seed))
        a = g.neighborhood_array
        assert lex_code_sparse(a, sequence) == lex_code_sparse(relabeled_array(a, sequence))

    def test_maps_back_only_on_a_strict_improvement(self, monkeypatch):
        # only the batch's first strictly smallest code is mapped back, once
        calls = []
        map_back = lexid.restarts.code_to_original

        def counting_map_back(code, sequence):
            calls.append(len(code))
            return map_back(code, sequence)

        monkeypatch.setattr(lexid.restarts, "code_to_original", counting_map_back)
        report = run_restarts(gnp_graph(128, 0.1, derive_seed(0, 128)), "random", 200, 0)
        assert report.cardinalities[:3] == (33, 30, 28)  # each improves on the ones before
        assert calls == [report.best_cardinality]

    def test_ties_keep_the_first_restart_at_the_minimum(self):
        # the pinned fixture batch (tests/test_restart_pins.py) reaches its
        # minimum at several restarts, and they map back to different codes
        g = nonminimal_grid_fixture()
        report = run_restarts(g, "random", restarts=20, seed=0)
        tied = [i for i, size in enumerate(report.cardinalities) if size == report.best_cardinality]
        codes = []
        for i in tied:
            sequence = OrderingStrategy("random").sequence_for(g, SplitMix64(derive_seed(0, i)))
            outcome = lex_code_sparse(relabeled_array(g.neighborhood_array, sequence))
            codes.append(code_to_original(outcome, sequence))
        assert len(set(codes)) > 1
        assert report.best_code == codes[0]

    def test_an_invalid_explicit_sequence_fails_before_any_construction(self, monkeypatch):
        g = nonminimal_grid_fixture()
        with pytest.raises(ValueError) as single:
            run_restarts(g, (1, 2, 3), 1, seed=0)
        constructions = []
        monkeypatch.setattr(lexid.restarts, "_run", constructions.append)
        with pytest.raises(ValueError) as info:
            run_restarts(g, (1, 2, 3), 8, seed=0)
        assert str(info.value) == str(single.value) == "not a permutation of 1..9: (1, 2, 3)"
        assert constructions == []

    @pytest.mark.parametrize("strategy", ["identity", "degree-asc", "degree-desc", (9, 8, 7, 6, 5, 4, 3, 2, 1)])
    def test_a_non_random_ordering_is_built_and_constructed_once_per_batch(self, monkeypatch, strategy):
        calls = []
        sequence_for = OrderingStrategy.sequence_for

        def counting_sequence_for(self, g, rng=None):
            calls.append(self.kind)
            return sequence_for(self, g, rng)

        constructions = []
        run = lexid.restarts._run

        def counting_construct(array, order, position):
            constructions.append(array)
            return run(array, order, position)

        monkeypatch.setattr(OrderingStrategy, "sequence_for", counting_sequence_for)
        monkeypatch.setattr(lexid.restarts, "_run", counting_construct)
        report = run_restarts(nonminimal_grid_fixture(), strategy, 20, seed=0)
        assert len(calls) == len(constructions) == 1
        assert len(set(report.cardinalities)) == 1
        assert report.seeds == tuple(derive_seed(0, i) for i in range(20))

        batch = run_restarts(nonminimal_grid_fixture(), strategy, 150, seed=0)
        assert len(calls) == len(constructions) == 2
        assert batch.cardinalities == report.cardinalities[:1] * 150
        assert len(set(batch.elapsed_seconds)) == 1 and batch.best_code == report.best_code


class TestRestartLoop:
    """run_restarts against a plain loop that builds and constructs every restart."""

    INSTANCES = {
        "gnp128": lambda: gnp_graph(128, 0.1, derive_seed(0, 128)),
        "fixture": nonminimal_grid_fixture,
    }

    @staticmethod
    def same_as_reference(report, g, strategy, restarts, seed):
        cardinalities = []
        best = None
        for i in range(restarts):
            sequence = OrderingStrategy(strategy).sequence_for(g, SplitMix64(derive_seed(seed, i)))
            code = code_to_original(lex_code_sparse(apply_sequence(g, sequence).neighborhood_array), sequence)
            cardinalities.append(code.cardinality)
            if best is None or code.cardinality < best.cardinality:
                best = code
        assert report.strategy == strategy
        assert report.cardinalities == tuple(cardinalities)
        assert report.seeds == tuple(derive_seed(seed, i) for i in range(restarts))
        assert report.best_code == best
        assert report.best_cardinality == best.cardinality
        assert len(report.elapsed_seconds) == restarts

    # 20 is the pinned batch size; 7 and 3 are odd sizes; degree-desc is a non-random ordering
    @pytest.mark.parametrize("strategy, restarts", [("random", 20), ("random", 7),
                                                    ("random", 3), ("degree-desc", 3)])
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_report_matches_a_per_restart_reference(self, name, strategy, restarts):
        g = self.INSTANCES[name]()
        self.same_as_reference(run_restarts(g, strategy, restarts, seed=0), g, strategy, restarts, 0)

    @settings(max_examples=30, deadline=None)
    @given(graphs(max_n=10), st.integers(1, 9), st.integers(0, 2**64 - 1))
    def test_report_matches_a_per_restart_reference_on_twin_free_graphs(self, g, restarts, seed):
        assume(find_twins(g) is None)
        self.same_as_reference(run_restarts(g, "random", restarts, seed), g, "random", restarts, seed)

    @pytest.mark.parametrize("restarts", [1, 20, 128, 200])
    def test_a_batch_forks_nothing(self, monkeypatch, restarts):
        def refusing_fork():
            raise OSError("a restart batch forked")

        g = nonminimal_grid_fixture()
        reference = run_restarts(g, "random", restarts, seed=0)
        monkeypatch.setattr(os, "fork", refusing_fork)
        report = run_restarts(g, "random", restarts, seed=0)
        assert report.cardinalities == reference.cardinalities
        assert report.best_code == reference.best_code
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_random_batch_checks_no_permutation(self, monkeypatch):
        # each restart's shuffle is a permutation of 1..n by construction
        def refusing_check(sequence, n):
            raise AssertionError("a random restart checked its sequence")

        g = self.INSTANCES["gnp128"]()
        monkeypatch.setattr(lexid.sparse, "_positions", refusing_check)
        self.same_as_reference(run_restarts(g, "random", 20, seed=0), g, "random", 20, 0)

    def test_an_explicit_sequence_is_checked_once_before_its_one_construction(self, monkeypatch):
        events = []
        check, scan = lexid.sparse._positions, lexid.sparse.lex_scan

        def recording_check(sequence, n):
            events.append("check")
            return check(sequence, n)

        def recording_scan(*args, **kwargs):
            events.append("scan")
            return scan(*args, **kwargs)

        for module in (lexid.orderings, lexid.sparse):  # "once" counts the check in every module
            monkeypatch.setattr(module, "_positions", recording_check)
        monkeypatch.setattr(lexid.sparse, "lex_scan", recording_scan)
        g = nonminimal_grid_fixture()
        sequence = list(range(g.n, 0, -1))
        report = run_restarts(g, sequence, 5, seed=0)
        assert events == ["check", "scan"]
        code = code_to_original(lex_code_sparse(relabeled_array(g.neighborhood_array, sequence)), sequence)
        assert (report.best_code, report.cardinalities) == (code, (code.cardinality,) * 5)
        events.clear()
        bad = [1, 1] + list(range(3, g.n + 1))
        with pytest.raises(ValueError) as info:
            run_restarts(g, bad, 5, seed=0)
        assert str(info.value) == f"not a permutation of 1..{g.n}: {tuple(bad)!r}"
        assert "scan" not in events

    @pytest.mark.parametrize("failure", [KeyError, ValueError, KeyboardInterrupt])
    def test_a_failing_restart_stops_the_batch(self, monkeypatch, failure):
        # restart 3 fails: its exception reaches the caller and no later restart runs
        constructions = []

        def construct(array, order, position):
            constructions.append(array)
            if len(constructions) == 4:
                raise failure("restart 3 failed")
            return lexid.sparse._run(array, order, position)

        monkeypatch.setattr(lexid.restarts, "_run", construct)
        with pytest.raises(failure) as info:
            run_restarts(nonminimal_grid_fixture(), "random", 9, seed=0)
        assert info.value.args == ("restart 3 failed",)
        assert len(constructions) == 4
