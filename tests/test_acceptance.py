"""Acceptance suite: one test per shipping criterion.

Each test prints a single pass/fail line (visible with `pytest -s`) and
enforces its stated wall-clock budget.
"""

import math
import time
from contextlib import contextmanager

from lexid import (
    Code,
    TwinFailure,
    apply_sequence,
    bench,
    find_twins,
    greedy_code,
    is_identifying_code,
    lex_code_dense,
    lex_code_sparse,
    min2,
    min3,
    minimalize,
    minimum_code,
    nonminimal_grid_fixture,
    path_graph,
    prefix_sequence,
    run_restarts,
)

from corpus import full_corpus, small_corpus, twin_free_corpus
from oracles import brute_min_sym_diff


@contextmanager
def criterion(number: int, description: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_seconds is not None and elapsed >= budget_seconds:
            raise AssertionError(
                f"criterion {number} exceeded its budget: {elapsed:.1f}s >= {budget_seconds}s"
            )
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    print(f"[criterion {number}] PASS: {description} ({elapsed:.2f}s)")


def test_criterion_1_pinned_fixture_regression():
    with criterion(1, "pinned fixture: codes, verification, minimalization", budget_seconds=1.0):
        g = nonminimal_grid_fixture()
        expected = Code((1, 2, 3, 4, 5, 6))
        assert lex_code_dense(g.neighborhood_matrix) == expected
        assert lex_code_sparse(g.neighborhood_array) == expected
        assert is_identifying_code(g, [2, 3, 4, 5, 6])
        assert minimalize(g, expected) == Code((2, 3, 4, 5, 6))
        for v in (2, 3, 4, 5, 6):
            assert not is_identifying_code(g, [w for w in (2, 3, 4, 5, 6) if w != v])


def test_criterion_2_dense_sparse_equivalence():
    with criterion(2, "dense == sparse on 1000+ instance corpus", budget_seconds=30.0):
        corpus = full_corpus()
        assert len(corpus) >= 1000
        mismatches = 0
        for g in corpus:
            if lex_code_dense(g.neighborhood_matrix) != lex_code_sparse(g.neighborhood_array):
                mismatches += 1
        assert mismatches == 0


def test_criterion_3_correctness_on_corpus():
    with criterion(3, "failure iff twins (same pair); twin-free outputs verify"):
        for g in full_corpus():
            twins = find_twins(g)
            for outcome in (
                lex_code_dense(g.neighborhood_matrix),
                lex_code_sparse(g.neighborhood_array),
            ):
                if twins is None:
                    assert isinstance(outcome, Code)
                    assert is_identifying_code(g, outcome)
                else:
                    assert outcome == TwinFailure(j=twins[1], k=twins[0])


def test_criterion_4_subroutines_match_brute_force():
    with criterion(4, "min2/min3 equal brute-force symmetric-difference minima"):
        corpus = small_corpus(count=200, max_n=32)
        assert len(corpus) == 200
        assert any(find_twins(g) is not None for g in corpus)  # n+1 case exercised
        for g in corpus:
            b = g.neighborhood_matrix
            a = g.neighborhood_array
            for j in range(1, g.n + 1):
                for k in range(1, g.n + 1):
                    if j == k:
                        continue
                    want = brute_min_sym_diff(g, j, k)
                    assert min2(b, j, k) == want
                    assert min3(a, j, k) == want


def test_criterion_5_prefix_theorems():
    with criterion(5, "minimal prefix returned exactly; identifying prefix contains output"):
        corpus = twin_free_corpus(count=200, max_n=32)
        assert len(corpus) == 200
        for g in corpus:
            minimal = minimalize(g, Code(tuple(range(1, g.n + 1))))
            relabeled = apply_sequence(g, prefix_sequence(g, minimal))
            assert lex_code_dense(relabeled.neighborhood_matrix) == Code(
                tuple(range(1, len(minimal) + 1))
            )
            members = list(minimal)
            if len(members) < g.n:  # identifying but not minimal
                members.append(next(v for v in range(1, g.n + 1) if v not in minimal))
                wider = apply_sequence(g, prefix_sequence(g, members))
                out = lex_code_dense(wider.neighborhood_matrix)
                assert set(out) <= set(range(1, len(members) + 1))


def test_criterion_6_minimum_probability_lower_bound():
    with criterion(6, "random orderings hit i(G) at least as often as the binomial bound",
                   budget_seconds=120.0):
        trials = 20_000
        for g in (path_graph(5), nonminimal_grid_fixture()):
            i_g = minimum_code(g).cardinality
            bound = 1.0 / math.comb(g.n, i_g)
            report = run_restarts(g, "random", restarts=trials, seed=2026)
            frequency = sum(1 for c in report.cardinalities if c == i_g) / trials
            sigma = math.sqrt(bound * (1.0 - bound) / trials)
            assert frequency >= bound - 3.0 * sigma, (
                f"n={g.n}: frequency {frequency:.5f} below {bound:.5f} - 3*{sigma:.5f}"
            )


def test_criterion_7_complexity_scaling():
    with criterion(7, "grid work-counter slopes ~3 (dense) / ~2 (sparse); sparse faster at 4096",
                   budget_seconds=600.0):
        report = bench(["grid"], [256, 512, 1024, 2048, 4096], repetitions=3, seed=0)
        assert not report.skipped
        dense_slope = report.slope("grid", "dense")
        sparse_slope = report.slope("grid", "sparse")
        assert 2.6 <= dense_slope <= 3.4, f"dense slope {dense_slope:.3f}"
        assert 1.6 <= sparse_slope <= 2.6, f"sparse slope {sparse_slope:.3f}"
        dense_wall = report.sample("grid", 4096, "dense").median_seconds
        sparse_wall = report.sample("grid", 4096, "sparse").median_seconds
        assert sparse_wall < dense_wall, f"sparse {sparse_wall:.3f}s vs dense {dense_wall:.3f}s"


def test_criterion_8_oracle_sanity():
    with criterion(8, "oracle agreement: P3 exact/greedy; lex never beats the minimum"):
        p3 = path_graph(3)
        exact = minimum_code(p3)
        assert exact.code == Code((1, 3)) and exact.cardinality == 2
        assert greedy_code(p3) == Code((1, 3))
        checked = 0
        for g in full_corpus():
            if g.n > 16 or find_twins(g) is not None:
                continue
            out = lex_code_dense(g.neighborhood_matrix)
            assert out.cardinality >= minimum_code(g).cardinality
            checked += 1
        assert checked >= 100
