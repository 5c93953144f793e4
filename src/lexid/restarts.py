"""Random-restart search for small identifying codes.

Each restart relabels the neighborhood array to a new vertex order (no new
Graph), runs the sparse constructor and maps the code back.  Restart i draws
its ordering from a generator seeded with derive_seed(seed, i), so reports
are reproducible and the first r restarts never depend on the total count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .graph import Code, Graph, TwinsError, find_twins
from .orderings import OrderingStrategy, as_strategy, code_to_original
from .rng import SplitMix64, derive_seed
from .sparse import lex_code_sparse


@dataclass(frozen=True)
class RestartReport:
    """Outcome of a restart batch; best_cardinality is the min over restarts."""

    strategy: str
    best_code: Code
    best_cardinality: int
    cardinalities: tuple[int, ...]
    seeds: tuple[int, ...]
    elapsed_seconds: tuple[float, ...]


def run_restarts(
    g: Graph,
    strategy: OrderingStrategy | str | Sequence[int],
    restarts: int,
    seed: int = 0,
) -> RestartReport:
    """Run the sparse constructor under `restarts` independent orderings of g.

    The graph must be twin-free (TwinsError otherwise, raised before any
    work); restarts must be at least 1.  Deterministic given seed.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    strategy = as_strategy(strategy)
    twins = find_twins(g)
    if twins is not None:
        raise TwinsError(twins)
    codes: list[Code] = []
    cardinalities: list[int] = []
    seeds: list[int] = []
    elapsed: list[float] = []
    array = g.neighborhood_array
    for i in range(restarts):
        restart_seed = derive_seed(seed, i)
        start = time.perf_counter()
        sequence = strategy.sequence_for(g, SplitMix64(restart_seed))
        outcome = lex_code_sparse(array.relabel(sequence))
        assert isinstance(outcome, Code)  # twin-freeness is permutation-invariant
        code = code_to_original(outcome, sequence)
        elapsed.append(time.perf_counter() - start)
        codes.append(code)
        cardinalities.append(code.cardinality)
        seeds.append(restart_seed)
    best_index = min(range(restarts), key=lambda i: cardinalities[i])
    return RestartReport(
        strategy=strategy.kind,
        best_code=codes[best_index],
        best_cardinality=cardinalities[best_index],
        cardinalities=tuple(cardinalities),
        seeds=tuple(seeds),
        elapsed_seconds=tuple(elapsed),
    )
