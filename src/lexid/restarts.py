"""Random-restart search for small identifying codes.

Each restart relabels the neighborhood array to a new vertex order (no new
Graph) and runs the sparse constructor.  It maps its code back to the
original labels only when the code is strictly smaller than the best so far,
so the best code is that of the first restart reaching the minimum.  Restart
i draws its ordering from a generator seeded with derive_seed(seed, i), so
reports are reproducible and the first r restarts never depend on the total
count.
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
    best_code: Code | None = None
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
        if best_code is None or len(outcome) < best_code.cardinality:
            best_code = code_to_original(outcome, sequence)  # ties keep the first
        elapsed.append(time.perf_counter() - start)
        cardinalities.append(len(outcome))
        seeds.append(restart_seed)
    return RestartReport(
        strategy=strategy.kind,
        best_code=best_code,
        best_cardinality=best_code.cardinality,
        cardinalities=tuple(cardinalities),
        seeds=tuple(seeds),
        elapsed_seconds=tuple(elapsed),
    )
