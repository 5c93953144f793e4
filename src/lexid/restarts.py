"""Random-restart search for small identifying codes.

Each restart relabels the neighborhood array to a new vertex order (no new
Graph) and runs the sparse constructor.  Restart i draws its ordering from a
generator seeded with derive_seed(seed, i), so reports are reproducible and
the first r restarts never depend on the total count.

Restarts are independent, so run_restarts splits the indices 0..R-1 into W
contiguous blocks and runs one block loop over them: block 0 in the caller,
every other block in an os.fork child that sends its result back through
a pipe.  W is the number of CPUs this process may run on, capped at
R // MIN_BLOCK so that each fork pays for itself; it is 1, and no child is
forked, without fork or sched_getaffinity or when the process runs other
threads.  A block keeps its first strictly smallest code in relabeled
form, and only the first block holding the overall minimum maps its code
back to the original labels.  So the best code is that of the first restart
reaching the minimum, and the report is the same for every W.
"""

from __future__ import annotations

import marshal
import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .graph import Code, Graph, TwinsError, find_twins
from .orderings import OrderingStrategy, as_strategy, code_to_original
from .rng import SplitMix64, derive_seed
from .sparse import lex_code_sparse

# Fewest restarts worth a forked block.  A fork and pipe round trip takes
# 2-4 ms on a 2-core VM; 128 restarts in two blocks already beat one block
# on the 9-vertex fixture (5.2 vs 5.7 ms) and on G(128, 0.1) (34 vs 55 ms).
MIN_BLOCK = 64

# First byte of a child's payload when its block raised; the rest pickles the
# exception.  A marshalled block never starts with it.
_FAILED = b"!"


@dataclass(frozen=True)
class RestartReport:
    """Outcome of a restart batch; best_cardinality is the min over restarts."""

    strategy: str
    best_code: Code
    best_cardinality: int
    cardinalities: tuple[int, ...]
    seeds: tuple[int, ...]
    elapsed_seconds: tuple[float, ...]


# (cardinalities, seeds, elapsed seconds, the first strictly smallest
# (relabeled code members, sequence)) of the restarts lo..hi-1; marshal
# sends it through a pipe, so it holds only builtin types
_Block = tuple[list[int], list[int], list[float], tuple[tuple[int, ...], list[int]]]


def run_restarts(
    g: Graph,
    strategy: OrderingStrategy | str | Sequence[int],
    restarts: int,
    seed: int = 0,
) -> RestartReport:
    """Run the sparse constructor under `restarts` independent orderings of g.

    The graph must be twin-free (TwinsError otherwise, raised before any
    work); restarts must be an int of at least 1 (ValueError otherwise).
    Deterministic given seed, whatever the number of workers.
    """
    if isinstance(restarts, bool) or not isinstance(restarts, int):
        raise ValueError(f"restarts must be an int, got {restarts!r}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    strategy = as_strategy(strategy)
    twins = find_twins(g)
    if twins is not None:
        raise TwinsError(twins)
    array = g.neighborhood_array

    def run_block(lo: int, hi: int) -> _Block:
        best: tuple[tuple[int, ...], list[int]] | None = None
        cardinalities: list[int] = []
        seeds: list[int] = []
        elapsed: list[float] = []
        for i in range(lo, hi):
            restart_seed = derive_seed(seed, i)
            start = time.perf_counter()
            sequence = strategy.sequence_for(g, SplitMix64(restart_seed))
            outcome = lex_code_sparse(array.relabel(sequence))
            assert isinstance(outcome, Code)  # twin-freeness is permutation-invariant
            if best is None or len(outcome) < len(best[0]):
                best = outcome.members, sequence  # ties keep the first
            elapsed.append(time.perf_counter() - start)
            cardinalities.append(len(outcome))
            seeds.append(restart_seed)
        return cardinalities, seeds, elapsed, best

    workers = _worker_count(restarts)
    blocks = _run_blocks(run_block, [restarts * k // workers for k in range(workers + 1)])
    members, sequence = min((block[3] for block in blocks), key=lambda best: len(best[0]))
    best_code = code_to_original(Code(members), sequence)  # min keeps the first block at the minimum
    return RestartReport(
        strategy=strategy.kind,
        best_code=best_code,
        best_cardinality=best_code.cardinality,
        cardinalities=tuple(size for block in blocks for size in block[0]),
        seeds=tuple(s for block in blocks for s in block[1]),
        elapsed_seconds=tuple(t for block in blocks for t in block[2]),
    )


def _worker_count(restarts: int) -> int:
    # fork copies only the calling thread, so a lock another thread holds
    # would stay locked in the child
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), restarts // MIN_BLOCK))


def _run_blocks(run_block: Callable[[int, int], _Block], bounds: list[int]) -> list[_Block]:
    """run_block over [bounds[k], bounds[k+1]) for each k, in index order.

    Block 0 runs here while the others run in forked children.  A child's
    exception is raised here; a child that ends without a result raises
    ChildProcessError.  No child outlives the call.
    """
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe), not yet reaped
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append(_fork_block(run_block, lo, hi))
        blocks = [run_block(bounds[0], bounds[1])]
        while children:
            pid, read_fd = children[0]
            with open(read_fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            os.close(read_fd)
            exit_code = os.waitstatus_to_exitcode(status)
            if exit_code != 0:
                raise ChildProcessError(f"restart worker {pid} ended without a result (exit code {exit_code})")
            if payload[:1] == _FAILED:
                import pickle  # only to raise a child's exception; a batch that succeeds loads no module

                raise pickle.loads(payload[1:])
            blocks.append(marshal.loads(payload))
        return blocks
    finally:
        for pid, read_fd in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)


def _fork_block(run_block: Callable[[int, int], _Block], lo: int, hi: int) -> tuple[int, int]:
    """Fork a child that runs run_block(lo, hi); returns its pid and the read end of its pipe."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # os._exit skips atexit handlers and the flush of inherited stdio
        # buffers, which belong to the parent; exit code 0 means a result was sent
        exit_code = 1
        try:
            os.close(read_fd)
            try:
                payload = marshal.dumps(run_block(lo, hi))
            except BaseException as exc:  # the parent raises it
                import pickle

                payload = _FAILED + pickle.dumps(exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            exit_code = 0
        finally:
            os._exit(exit_code)
    os.close(write_fd)
    return pid, read_fd
