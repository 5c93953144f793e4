"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

Each workload writes one graph file and runs one ``lexid`` subcommand on it.
The expected output of every call is computed here, independently of the
package's constructors, by a reference lexicographic constructor that finds
the duplicate row through a dict keyed on the row's member set.  Pinned
digests in ``golden.json`` additionally fix the outputs of the default and
the held-out seed, so a change to the generators or the reference shows too.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass
from typing import Callable

from lexid import (
    Graph,
    SplitMix64,
    apply_sequence,
    derive_seed,
    gnp_graph,
    grid_graph,
    is_identifying_code,
    nonminimal_grid_fixture,
    to_dimacs,
    to_edge_list,
)


def relabeled_grid(rows: int, cols: int, seed: int) -> Graph:
    """rows x cols grid under the uniform relabeling the ``bench`` protocol uses."""
    g = grid_graph(rows, cols)
    sequence = list(range(1, g.n + 1))
    SplitMix64(derive_seed(seed, g.n)).shuffle(sequence)
    return apply_sequence(g, sequence)


def gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with its native labels, drawn from derive_seed(seed, n)."""
    return gnp_graph(n, p, derive_seed(seed, n))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``build`` and ``smoke_build`` map a seed to the input graph."""

    name: str
    command: str  # "code" or "restarts"
    why: str
    build: Callable[[int], Graph]
    smoke_build: Callable[[int], Graph]
    input_format: str = "edgelist"
    dense: bool = False
    restarts: int = 0
    smoke_restarts: int = 0

    def graph(self, seed: int, smoke: bool) -> Graph:
        return (self.smoke_build if smoke else self.build)(seed)

    def restart_count(self, smoke: bool) -> int:
        return self.smoke_restarts if smoke else self.restarts

    def argv(self, path: str, seed: int, smoke: bool) -> list[str]:
        if self.command == "code":
            return ["code", "--json"] + (["--dense"] if self.dense else []) + [path]
        return ["restarts", "--restarts", str(self.restart_count(smoke)), "--seed", str(seed), path]

    def serialize(self, g: Graph) -> str:
        return to_dimacs(g) if self.input_format == "dimacs" else to_edge_list(g)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "code-grid4k-sparse", "code",
            "sparse duplicate-row search dominates; parsing is minor",
            lambda seed: relabeled_grid(64, 64, seed),
            lambda seed: relabeled_grid(8, 8, seed),
        ),
        Workload(
            "code-grid2k-dense", "code",
            "only workload where the dense constructor works; puts parse_dimacs on a measured path",
            lambda seed: relabeled_grid(48, 48, seed),
            lambda seed: relabeled_grid(6, 6, seed),
            input_format="dimacs", dense=True,
        ),
        Workload(
            "code-gnp512", "code",
            "parser, Graph validation and views dominate; the constructor is bypassed",
            lambda seed: gnp(512, 0.29, seed),
            lambda seed: nonminimal_grid_fixture(),
        ),
        Workload(
            "restarts-gnp128", "restarts",
            "many small rebuilds: relabel, view and sparse construct per restart",
            lambda seed: gnp(128, 0.1, seed),
            lambda seed: nonminimal_grid_fixture(),
            restarts=200, smoke_restarts=20,
        ),
    )
}


class TwinsInInput(ValueError):
    """The generated instance has twins, so it has no identifying code."""


def closed_neighborhoods(g: Graph) -> list[tuple[int, ...]]:
    """Ascending closed neighborhoods from the edge set; index 0 is unused."""
    nbhd: list[list[int]] = [[v] for v in range(g.n + 1)]
    for u, v in g.edges:
        nbhd[u].append(v)
        nbhd[v].append(u)
    return [tuple(sorted(members)) for members in nbhd]


def reference_lex_code(closed: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The lexicographic identifying code, found with a row-keyed dict.

    Rows of the scanned vertices stay pairwise distinct (a new codeword joins
    only rows that lacked it), so the dict maps each row to the unique earlier
    vertex that holds it.
    """
    n = len(closed) - 1
    empty: frozenset[int] = frozenset()
    rows = [empty] * (n + 1)
    index: dict[frozenset[int], int] = {}
    code: list[int] = []
    for j in range(1, n + 1):
        l = 0
        if not rows[j]:
            l = closed[j][0]
        else:
            k = index.get(rows[j])
            if k is not None:
                diff = set(closed[j]).symmetric_difference(closed[k])
                if not diff:
                    raise TwinsInInput(f"the input has twins (vertices {k} and {j} in scan order)")
                l = min(diff)
        if l:
            code.append(l)
            for a in closed[l]:
                if a < j:
                    del index[rows[a]]
                    rows[a] = rows[a] | {l}
                    index[rows[a]] = a
                else:
                    rows[a] = rows[a] | {l}
        index[rows[j]] = j
    return tuple(sorted(code))


def relabel_closed(closed: list[tuple[int, ...]], sequence: list[int]) -> list[tuple[int, ...]]:
    """Closed neighborhoods after sequence[i-1] becomes vertex i."""
    position = [0] * len(closed)
    for i, v in enumerate(sequence, 1):
        position[v] = i
    out: list[tuple[int, ...]] = [()] * len(closed)
    for v in range(1, len(closed)):
        out[position[v]] = tuple(sorted(position[u] for u in closed[v]))
    return out


def restart_sequence(n: int, seed: int, i: int) -> list[int]:
    """Processing sequence of restart i of ``lexid restarts --seed seed`` (random ordering)."""
    sequence = list(range(1, n + 1))
    SplitMix64(derive_seed(seed, i)).shuffle(sequence)
    return sequence


def digest(values) -> str:
    return hashlib.sha256(" ".join(map(str, values)).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Output:
    """What a call prints, reduced to what the checks compare: the code for
    ``code``; the best code plus each restart's |C| and seed for ``restarts``."""

    code: tuple[int, ...]
    cardinalities: tuple[int, ...] = ()
    seeds: tuple[int, ...] = ()

    @property
    def mean_cardinality(self) -> float:
        return statistics.fmean(self.cardinalities) if self.cardinalities else float(len(self.code))

    def summary(self) -> dict:
        """The values golden.json pins for one (workload, seed)."""
        out = {"code_sha256": digest(self.code), "cardinality": len(self.code)}
        if self.cardinalities:
            out["cardinalities_sha256"] = digest(self.cardinalities)
        return out


def expected_output(workload: Workload, g: Graph, seed: int, smoke: bool) -> Output:
    """Reference result for the workload's call on g; raises TwinsInInput on twins."""
    closed = closed_neighborhoods(g)
    if workload.command == "code":
        code = reference_lex_code(closed)
        if not is_identifying_code(g, code):
            raise AssertionError("reference constructor returned a non-identifying code")
        return Output(code)
    count = workload.restart_count(smoke)
    codes = []
    for sequence in (restart_sequence(g.n, seed, i) for i in range(count)):
        relabeled = reference_lex_code(relabel_closed(closed, sequence))
        codes.append(tuple(sorted(sequence[c - 1] for c in relabeled)))
    cards = tuple(len(c) for c in codes)
    best = codes[cards.index(min(cards))]
    if not is_identifying_code(g, best):
        raise AssertionError("reference restart returned a non-identifying code")
    seeds = tuple(derive_seed(seed, i) for i in range(count))
    return Output(best, cards, seeds)


def parse_output(workload: Workload, text: str, n: int) -> Output:
    """Parse the stdout of one call; raises ValueError when it is malformed."""
    if workload.command == "code":
        doc = json.loads(text)
        want = {"schema": 1, "n": n, "ordering": "identity", "verified": True,
                "algorithm": "dense" if workload.dense else "sparse"}
        for key, value in want.items():
            if doc.get(key) != value:
                raise ValueError(f"{key} is {doc.get(key)!r}, expected {value!r}")
        code = tuple(doc["code"])
        if doc["cardinality"] != len(code):
            raise ValueError("cardinality does not match the code")
        return Output(code)
    lines = text.splitlines()
    head = dict(line.split(": ", 1) for line in lines[:4])
    if head.get("strategy") != "random":
        raise ValueError(f"strategy is {head.get('strategy')!r}")
    code = tuple(int(v) for v in head["best"].split())
    cards, seeds = [], []
    for i, line in enumerate(lines[4:]):
        label, index, seed_field, card_field, _seconds = line.split()
        if (label, index) != ("restart", f"{i}:") or seed_field[:5] != "seed=" or card_field[:12] != "cardinality=":
            raise ValueError(f"malformed restart line {line!r}")
        seeds.append(int(seed_field[5:]))
        cards.append(int(card_field[12:]))
    if int(head["restarts"]) != len(cards) or int(head["best cardinality"]) != len(code):
        raise ValueError("restart count or best cardinality does not match the lines")
    return Output(code, tuple(cards), tuple(seeds))


def check(observed: Output, expected: Output, pin: dict | None) -> str | None:
    """None when the call's output is right; otherwise the first mismatch found."""
    if observed.code != expected.code:
        return f"code differs from the reference (|C| {len(observed.code)} vs {len(expected.code)})"
    if observed.cardinalities != expected.cardinalities or observed.seeds != expected.seeds:
        return "restart cardinalities or seeds differ from the reference"
    if pin is not None:
        for key, value in observed.summary().items():
            if pin.get(key) != value:
                return f"golden {key} mismatch: pinned {pin.get(key)!r}, got {value!r}"
    return None
