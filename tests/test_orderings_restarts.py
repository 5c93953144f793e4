import os
import time

import pytest
from hypothesis import assume, given, settings
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
    find_twins,
    gnp_graph,
    is_identifying_code,
    lex_code_dense,
    lex_code_sparse,
    nonminimal_grid_fixture,
    path_graph,
    prefix_sequence,
    run_restarts,
)

from corpus import graphs, twin_free_corpus
from oracles import reference_shuffle


def allow_workers(monkeypatch, cpus):
    """Let run_restarts use `cpus` workers, one block per restart at least; returns the forked pids."""
    monkeypatch.setattr(lexid.restarts, "MIN_BLOCK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def in_children(parent, action):
    """A stand-in for lex_code_sparse that runs `action` in forked children only."""
    def construct(array):
        if os.getpid() != parent:
            action()
        return lex_code_sparse(array)
    return construct


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

    def test_reordered_runs_agree_with_apply_sequence(self):
        for i, g in enumerate(twin_free_corpus()[::20]):
            seq = OrderingStrategy("random").sequence_for(g, SplitMix64(i))
            report = run_restarts(g, seq, restarts=1)
            direct = lex_code_sparse(apply_sequence(g, seq).neighborhood_array)
            assert report.best_code == code_to_original(direct, seq)
            assert report.cardinalities == (direct.cardinality,)

    def test_restarts_build_no_graph(self, monkeypatch):
        g = gnp_graph(64, 0.1, 7)

        def refusing_init(self, *args, **kwargs):
            # raising, not counting: a count kept in a forked child never reaches this process
            raise AssertionError("a restart built a Graph")

        monkeypatch.setattr(Graph, "__init__", refusing_init)
        for cpus in (1, 2):
            with monkeypatch.context() as patch:
                forks = allow_workers(patch, cpus)
                report = run_restarts(g, "random", restarts=50)
            assert len(report.cardinalities) == 50
            assert len(forks) == cpus - 1
        with pytest.raises(AssertionError, match="built a Graph"):
            apply_sequence(g, list(range(1, g.n + 1)))  # the patch does see a rebuild

    def test_maps_back_only_on_a_strict_improvement(self, monkeypatch):
        # only the batch's first strictly smallest code is mapped back, once
        calls = []
        map_back = lexid.restarts.code_to_original

        def counting_map_back(code, sequence):
            calls.append(len(code))
            return map_back(code, sequence)

        monkeypatch.setattr(lexid.restarts, "code_to_original", counting_map_back)
        g = gnp_graph(128, 0.1, derive_seed(0, 128))
        for cpus in (1, 2):
            calls.clear()
            with monkeypatch.context() as patch:
                forks = allow_workers(patch, cpus)
                report = run_restarts(g, "random", 200, 0)
            assert len(forks) == cpus - 1
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
            outcome = lex_code_sparse(g.neighborhood_array.relabel(sequence))
            codes.append(code_to_original(outcome, sequence))
        assert len(set(codes)) > 1
        assert report.best_code == codes[0]


class TestRestartBlocks:
    """Blocks 1..W-1 of a batch run in forked children; the report must not show it."""

    INSTANCES = {
        "gnp128": lambda: gnp_graph(128, 0.1, derive_seed(0, 128)),
        "fixture": nonminimal_grid_fixture,
    }

    @staticmethod
    def same_report(report, reference):
        assert report.strategy == reference.strategy
        assert report.cardinalities == reference.cardinalities
        assert report.seeds == reference.seeds
        assert report.best_code == reference.best_code
        assert report.best_cardinality == reference.best_cardinality
        assert len(report.elapsed_seconds) == len(reference.elapsed_seconds)

    # 20 is the pinned batch size; 7 is divisible by none of 2, 3 and 5; 3 < 5
    @pytest.mark.parametrize("strategy, restarts", [("random", 20), ("random", 7),
                                                    ("random", 3), ("degree-desc", 3)])
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_report_is_the_same_for_any_worker_count(self, monkeypatch, name, strategy, restarts):
        g = self.INSTANCES[name]()
        serial = run_restarts(g, strategy, restarts, seed=0)
        for cpus in (1, 2, 3, 5):
            with monkeypatch.context() as patch:
                forks = allow_workers(patch, cpus)
                report = run_restarts(g, strategy, restarts, seed=0)
            assert len(forks) == min(cpus, restarts) - 1
            self.same_report(report, serial)

    @settings(max_examples=30, deadline=None)
    @given(graphs(max_n=10), st.integers(1, 9), st.integers(0, 2**64 - 1), st.sampled_from([2, 3, 5]))
    def test_report_is_the_same_for_any_worker_count_on_twin_free_graphs(self, g, restarts, seed, cpus):
        assume(find_twins(g) is None)
        serial = run_restarts(g, "random", restarts, seed)
        with pytest.MonkeyPatch.context() as patch:
            forks = allow_workers(patch, cpus)
            report = run_restarts(g, "random", restarts, seed)
        assert len(forks) == min(cpus, restarts) - 1
        self.same_report(report, serial)

    def test_small_batches_stay_in_process(self, monkeypatch):
        min_block = lexid.restarts.MIN_BLOCK
        forks = allow_workers(monkeypatch, 2)
        monkeypatch.setattr(lexid.restarts, "MIN_BLOCK", min_block)
        run_restarts(nonminimal_grid_fixture(), "random", 20, seed=0)
        assert forks == []
        run_restarts(nonminimal_grid_fixture(), "random", 2 * lexid.restarts.MIN_BLOCK, seed=0)
        assert len(forks) == 1

    def test_a_child_exception_reaches_the_caller(self, monkeypatch):
        forks = allow_workers(monkeypatch, 3)

        def fail():
            raise KeyError(f"block failed in worker {os.getpid()}")

        monkeypatch.setattr(lexid.restarts, "lex_code_sparse", in_children(os.getpid(), fail))
        with pytest.raises(KeyError) as info:
            run_restarts(nonminimal_grid_fixture(), "random", 9, seed=0)
        assert info.value.args == (f"block failed in worker {forks[0]}",)  # block 1 fails first
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_child_that_exits_mid_block_raises_child_process_error(self, monkeypatch):
        allow_workers(monkeypatch, 3)
        monkeypatch.setattr(lexid.restarts, "lex_code_sparse", in_children(os.getpid(), lambda: os._exit(3)))
        with pytest.raises(ChildProcessError, match="ended without a result"):
            run_restarts(nonminimal_grid_fixture(), "random", 9, seed=0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("interrupt", [ValueError, KeyboardInterrupt])
    def test_the_callers_failure_kills_the_children(self, monkeypatch, interrupt):
        # the children would sleep for 30 s; the caller's block fails at once
        allow_workers(monkeypatch, 3)
        parent = os.getpid()

        def construct(array):
            if os.getpid() == parent:
                raise interrupt("caller's block failed")
            time.sleep(30)

        monkeypatch.setattr(lexid.restarts, "lex_code_sparse", construct)
        start = time.perf_counter()
        with pytest.raises(interrupt, match="caller's block failed"):
            run_restarts(nonminimal_grid_fixture(), "random", 9, seed=0)
        assert time.perf_counter() - start < 10
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
