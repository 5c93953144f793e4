"""The traced run: the CLI's public calls replayed under spans, plus tallies.

The replays below make the same calls into ``lexid`` that ``lexid code`` and
``lexid restarts`` make, in the same order, and time each one from here;
nothing inside the package is instrumented.  A span is (id, name, start, end,
parent id, run id); spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from lexid import (
    DenseWorkTally,
    OrderingStrategy,
    SparseWorkTally,
    SplitMix64,
    apply_sequence,
    code_to_original,
    derive_seed,
    find_twins,
    is_identifying_code,
    lex_code_dense,
    lex_code_sparse,
    parse_graph,
)
from lexid.cli import build_parser

from .workloads import Workload

SPARSE_PARTS = ("comparison_touches", "empty_check_touches", "scan_touches", "insert_touches")
DENSE_PARTS = ("row_comparison_bits", "scan_bits", "column_copy_bits")

# Spans whose summed duration per replay is reported as "<name>_s".
TIMED_SPANS = (
    "cli.read", "cli.emit", "graphio.parse",
    "graph.array_view", "graph.matrix_view", "graph.verify", "graph.twins",
    "orderings.sequence", "orderings.relabel", "orderings.map_back",
    "sparse.construct", "dense.construct",
)


class Tracer:
    """In-memory span recorder; one run id per replay."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counts: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, name, 0.0, 0.0, parent, self.run_id))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, self.run_id)

    def count(self, name: str, value: int) -> None:
        self.counts[name] = value

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, run_id in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                      "parent": parent, "run": run_id}) + "\n")


def replay(workload: Workload, argv: list[str], tracer: Tracer, emit) -> None:
    """One traced pass of the CLI call, printing through ``emit``."""
    try:
        with tracer.span("cli"):
            args = build_parser().parse_args(argv)
            with tracer.span("cli.read"):
                text = Path(args.graph).read_text(encoding="utf-8")
            with tracer.span("graphio.parse"):
                g = parse_graph(text, args.input_format)
            if workload.command == "code":
                _replay_code(args, g, tracer, emit)
            else:
                _replay_restarts(args, g, tracer, emit)
    finally:
        tracer.run_id += 1
    tracer.count("graphio.bytes", len(text.encode("utf-8")))  # counted outside the spans
    tracer.count("graphio.edges", len(g.edges))


def _replay_code(args, g, tracer: Tracer, emit) -> None:
    sequence = list(range(1, g.n + 1))  # identity ordering, built inline by the CLI
    if args.dense:
        with tracer.span("graph.matrix_view"):
            view = g.neighborhood_matrix
        with tracer.span("dense.construct"):
            outcome = lex_code_dense(view)
    else:
        with tracer.span("graph.array_view"):
            view = g.neighborhood_array
        with tracer.span("sparse.construct"):
            outcome = lex_code_sparse(view)
    with tracer.span("orderings.map_back"):
        code = code_to_original(outcome, sequence)
    with tracer.span("graph.matrix_view"):
        g.neighborhood_matrix  # cached already on the dense path
    with tracer.span("graph.verify"):
        verified = is_identifying_code(g, code)
    with tracer.span("cli.emit"):
        emit(json.dumps({
            "schema": 1,
            "n": g.n,
            "algorithm": "dense" if args.dense else "sparse",
            "ordering": args.ordering,
            "code": list(code),
            "cardinality": code.cardinality,
            "verified": verified,
        }))


def _replay_restarts(args, g, tracer: Tracer, emit) -> None:
    strategy = OrderingStrategy(args.ordering)
    with tracer.span("graph.matrix_view"):
        g.neighborhood_matrix
    with tracer.span("graph.twins"):
        if find_twins(g) is not None:
            raise ValueError("input has twins")
    codes, cards, seeds, elapsed = [], [], [], []
    for i in range(args.restarts):
        restart_seed = derive_seed(args.seed, i)
        start = time.perf_counter()
        with tracer.span("restarts.restart"):
            with tracer.span("orderings.sequence"):
                sequence = strategy.sequence_for(g, SplitMix64(restart_seed))
            with tracer.span("orderings.relabel"):
                relabeled = apply_sequence(g, sequence)
            with tracer.span("graph.array_view"):
                view = relabeled.neighborhood_array
            with tracer.span("sparse.construct"):
                outcome = lex_code_sparse(view)
            with tracer.span("orderings.map_back"):
                code = code_to_original(outcome, sequence)
        elapsed.append(time.perf_counter() - start)
        codes.append(code)
        cards.append(code.cardinality)
        seeds.append(restart_seed)
    best = codes[cards.index(min(cards))]
    with tracer.span("cli.emit"):
        emit(f"strategy: {strategy.kind}")
        emit(f"restarts: {len(cards)}")
        emit("best: " + " ".join(str(v) for v in best))
        emit(f"best cardinality: {best.cardinality}")
        for i, (card, restart_seed, seconds) in enumerate(zip(cards, seeds, elapsed)):
            emit(f"restart {i}: seed={restart_seed} cardinality={card} seconds={seconds:.6f}")


def tallies(workload: Workload, g, restarts: int, seed: int) -> dict[str, int]:
    """Model work counters from one tallied call, made outside every timed span."""
    out = {f"sparse.{p}": 0 for p in ("model_touches",) + SPARSE_PARTS}
    out.update({f"dense.{p}": 0 for p in ("model_bits",) + DENSE_PARTS})
    if workload.dense:
        tally = DenseWorkTally()
        lex_code_dense(g.neighborhood_matrix, tally=tally)
        out["dense.model_bits"] = tally.total
        out.update({f"dense.{p}": getattr(tally, p) for p in DENSE_PARTS})
        return out
    tally = SparseWorkTally()
    if workload.command == "code":
        lex_code_sparse(g.neighborhood_array, tally=tally)
    else:
        strategy = OrderingStrategy("random")
        for i in range(restarts):
            sequence = strategy.sequence_for(g, SplitMix64(derive_seed(seed, i)))
            lex_code_sparse(apply_sequence(g, sequence).neighborhood_array, tally=tally)
    out["sparse.model_touches"] = tally.total
    out.update({f"sparse.{p}": getattr(tally, p) for p in SPARSE_PARTS})
    return out


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _with_self_time(spans):
    """(span, self time) pairs; self time is the duration minus the direct children's."""
    child_time: dict[int, float] = defaultdict(float)
    out = []
    for span in sorted(spans, key=lambda s: (s[3], -s[0])):  # every child ends before its parent
        span_id, _name, start, end, parent, _run = span
        if parent is not None:
            child_time[parent] += end - start
        out.append((span, end - start - child_time[span_id]))
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics: medians over replays of each replay's span totals."""
    per_run: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    restart_times: dict[int, list[float]] = defaultdict(list)
    for (_id, name, start, end, _parent, run_id), self_time in _with_self_time(tracer.spans):
        if name == "cli":
            per_run[run_id]["cli.wall"] = end - start
            per_run[run_id]["cli.self"] = self_time
        elif name == "restarts.restart":
            restart_times[run_id].append(end - start)
        else:
            per_run[run_id][name] += end - start
    out = {f"{name}_s": statistics.median(totals[name] for totals in per_run.values())
           for name in TIMED_SPANS + ("cli.self", "cli.wall")}
    out["restarts.restart_s.p50"] = out["restarts.restart_s.p95"] = 0.0
    if restart_times:
        out["restarts.restart_s.p50"] = statistics.median(
            statistics.median(times) for times in restart_times.values())
        out["restarts.restart_s.p95"] = statistics.median(
            _quantile(times, 0.95) for times in restart_times.values())
    return out


def layer_self_shares(tracer: Tracer) -> dict[str, float]:
    """Share of traced wall time spent in each module's own code, all replays pooled."""
    by_layer: dict[str, float] = defaultdict(float)
    for (_id, name, *_rest), self_time in _with_self_time(tracer.spans):
        by_layer[name.split(".")[0]] += self_time
    total = sum(by_layer.values())
    return {layer: t / total for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1])}
