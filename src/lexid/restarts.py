"""Random-restart search for small identifying codes.

Each restart runs the sparse constructor on the graph's one neighborhood
array, scanning it in the restart's processing order: no relabeled array and
no new Graph is built.  Under the random ordering, restart i draws its order
from a generator seeded with derive_seed(seed, i), so reports are
reproducible and the first r restarts never depend on the total count.  Every
other ordering gives all restarts one order and so one code, built and
constructed once and repeated for every index.  Each ordering runs one body:
sequence_for builds a permutation, the one check of an explicit order, and the
run takes it and its inverse unchecked.

Every restart runs in the calling process, one after another, so the
process's own resource usage covers a whole batch.  A run names
its codewords by position, so the loop keeps the first strictly smallest code
in that form and maps only that code back to the original labels, once; the
best code is that of the first restart reaching the minimum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .graph import Code, Graph, TwinFailure, TwinsError, find_twins
from .orderings import OrderingStrategy, as_strategy, code_to_original
from .rng import SplitMix64, derive_seed
from .sparse import _run_ordered


@dataclass(frozen=True)
class RestartReport:
    """Outcome of a restart batch; best_cardinality is the min over restarts.
    A restart's elapsed seconds include building its order."""

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

    The graph must be twin-free: the first run decides, and on a graph with
    twins raises TwinsError naming find_twins' pair, whatever the order.
    restarts must be an int of at least 1 (ValueError otherwise).
    Deterministic given seed.
    """
    if isinstance(restarts, bool) or not isinstance(restarts, int):
        raise ValueError(f"restarts must be an int, got {restarts!r}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    strategy = as_strategy(strategy)
    array = g.neighborhood_array
    once = strategy.kind != "random"  # every other ordering gives every restart one order
    seeds = [derive_seed(seed, i) for i in range(restarts)]

    best_by_position: Code | None = None  # the first strictly smallest code, before map-back
    best_sequence: list[int] = []
    cardinalities: list[int] = []
    elapsed: list[float] = []
    for child in seeds[:1] if once else seeds:
        start = time.perf_counter()
        sequence = strategy.sequence_for(g, SplitMix64(child))
        outcome = _run_ordered(array, sequence)
        if isinstance(outcome, TwinFailure):  # only the first run can fail: twins survive any order
            raise TwinsError(find_twins(g))
        if best_by_position is None or len(outcome) < len(best_by_position):
            best_by_position, best_sequence = outcome, sequence  # ties keep the first
        elapsed.append(time.perf_counter() - start)
        cardinalities.append(len(outcome))
    if once:  # one order gives one code: construct it once and repeat it for every restart
        cardinalities *= restarts
        elapsed *= restarts
    best_code = code_to_original(best_by_position, best_sequence)
    return RestartReport(
        strategy=strategy.kind,
        best_code=best_code,
        best_cardinality=best_code.cardinality,
        cardinalities=tuple(cardinalities),
        seeds=tuple(seeds),
        elapsed_seconds=tuple(elapsed),
    )
