"""Deterministic graph corpora shared by the test modules."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from hypothesis import strategies as st

from lexid import Graph, cycle_graph, derive_seed, find_twins, gnp_graph, grid_graph, path_graph

CORPUS_SEED = 0x1DC0DE


@lru_cache(maxsize=None)
def random_corpus(count: int = 1002, max_n: int = 64, ps=(0.1, 0.3, 0.5)) -> tuple[Graph, ...]:
    """Seeded G(n,p) instances: n cycles through 1..max_n, p through ps."""
    graphs: list[Graph] = []
    step = 0
    while len(graphs) < count:
        n = (step % max_n) + 1
        for p in ps:
            if len(graphs) >= count:
                break
            graphs.append(gnp_graph(n, p, derive_seed(CORPUS_SEED, len(graphs))))
        step += 1
    return tuple(graphs)


@lru_cache(maxsize=None)
def family_corpus() -> tuple[Graph, ...]:
    graphs = [path_graph(n) for n in (1, 2, 3, 4, 5, 8, 12, 20, 33)]
    graphs += [cycle_graph(n) for n in (3, 4, 5, 6, 7, 10, 21)]
    graphs += [
        grid_graph(r, c)
        for r, c in ((1, 1), (1, 5), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (2, 8), (5, 5))
    ]
    return tuple(graphs)


@lru_cache(maxsize=None)
def full_corpus() -> tuple[Graph, ...]:
    return random_corpus() + family_corpus()


@lru_cache(maxsize=None)
def small_corpus(count: int = 200, max_n: int = 32) -> tuple[Graph, ...]:
    """Mixed corpus capped at max_n vertices; includes twin-rich instances."""
    graphs: list[Graph] = [path_graph(2), cycle_graph(3), Graph(2), Graph(4, [(1, 2), (3, 4)])]
    step = 0
    while len(graphs) < count:
        n = (step % max_n) + 1
        for p in (0.1, 0.3, 0.5):
            if len(graphs) >= count:
                break
            graphs.append(gnp_graph(n, p, derive_seed(CORPUS_SEED + 1, len(graphs))))
        step += 1
    return tuple(graphs)


@lru_cache(maxsize=None)
def twin_free_corpus(count: int = 200, max_n: int = 32) -> tuple[Graph, ...]:
    """Seeded twin-free G(n,p) instances (n >= 2)."""
    graphs: list[Graph] = []
    attempt = 0
    while len(graphs) < count:
        n = (attempt % (max_n - 1)) + 2
        p = (0.15, 0.3, 0.5)[attempt % 3]
        g = gnp_graph(n, p, derive_seed(CORPUS_SEED + 2, attempt))
        if find_twins(g) is None:
            graphs.append(g)
        attempt += 1
    return tuple(graphs)


@st.composite
def graphs(draw, max_n=10):
    """Hypothesis strategy: any simple graph on 1..n vertices, n <= max_n."""
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, edges)


def twin_free_graphs(max_n=10):
    """Hypothesis strategy: the twin-free graphs that graphs(max_n) draws."""
    return graphs(max_n).filter(lambda g: find_twins(g) is None)


def graphs_with_twins(max_n=10):
    """Hypothesis strategy: the graphs with twins that graphs(max_n) draws."""
    return graphs(max_n).filter(lambda g: find_twins(g) is not None)
