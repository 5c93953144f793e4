"""Deterministic graph generators and the pinned regression fixture.

Every generator is a pure function of its parameters (and seed, for G(n,p)),
so instances are bit-reproducible anywhere.  G(n,p) draws one uniform double
per vertex pair, pairs visited in lexicographic order, from the splitmix64
stream of lexid.rng, a row of pairs at a time.
"""

from __future__ import annotations

import math
from itertools import compress, islice
from typing import Sequence

from .graph import Graph
from .rng import SplitMix64, derive_seed


def path_graph(n: int) -> Graph:
    """Path 1-2-...-n."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph(n, ((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> Graph:
    """Cycle 1-2-...-n-1."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(1, n)]
    edges.append((1, n))
    return Graph(n, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols grid, vertices numbered row-major starting at 1."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid needs rows, cols >= 1, got {rows} x {cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c + 1
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def _check_gnp_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"gnp needs 0 <= p <= 1, got {p}")


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    """G(n,p): each pair (u, v), u < v, kept independently with probability p.

    Pairs are visited in lexicographic order and consume exactly one uniform
    double each from SplitMix64(seed), so the instance is reproducible from
    (n, p, seed) alone.  A pair is kept when its draw (z >> 11) * 2**-53 is
    < p, that is when z < ceil(p * 2**53) * 2**11; each row u draws its n - u
    outputs as one block.
    """
    if n < 1:
        raise ValueError(f"gnp needs n >= 1, got {n}")
    _check_gnp_p(p)
    rng = SplitMix64(seed)
    limit = math.ceil(p * 2**53) << 11
    labels = list(range(n + 1))  # one int object per label, shared by all its endpoints
    us: list[int] = []
    vs: list[int] = []
    for u in range(1, n):
        row = list(compress(islice(labels, u + 1, None), rng.flags_below(n - u, limit)))
        us += [labels[u]] * len(row)
        vs += row
    return Graph._from_int_endpoints(n, us, vs, oriented=True)  # ints from range(), u < v


def hypercube_graph(dim: int) -> Graph:
    """dim-dimensional hypercube on 2**dim vertices; v and w adjacent iff
    their zero-based labels differ in exactly one bit."""
    if dim < 0:
        raise ValueError(f"hypercube needs dim >= 0, got {dim}")
    n = 1 << dim
    edges = []
    for v in range(n):
        for b in range(dim):
            w = v ^ (1 << b)
            if v < w:
                edges.append((v + 1, w + 1))
    return Graph(n, edges)


def near_square_grid(n: int) -> tuple[int, int]:
    """Factor n as rows x cols with rows the largest divisor at most sqrt(n)."""
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    rows = math.isqrt(n)
    while n % rows:
        rows -= 1
    return rows, n // rows


def _hypercube_dim(size: int) -> int:
    dim = size.bit_length() - 1
    if size < 1 or 1 << dim != size:
        raise ValueError(f"hypercube size must be a power of two, got {size}")
    return dim


# family: (parameter types for gen, generator, generator arguments of the
# bench instance for (size, seed, gnp_p))
_FAMILY_TABLE = {
    "path": ((int,), path_graph, lambda size, seed, p: (size,)),
    "cycle": ((int,), cycle_graph, lambda size, seed, p: (size,)),
    "grid": ((int, int), grid_graph, lambda size, seed, p: near_square_grid(size)),
    "gnp": ((int, float), gnp_graph, lambda size, seed, p: (size, p, derive_seed(seed, size))),
    "hypercube": ((int,), hypercube_graph, lambda size, seed, p: (_hypercube_dim(size),)),
}
FAMILIES = tuple(_FAMILY_TABLE)


def _family(name: str) -> tuple:
    if name not in _FAMILY_TABLE:
        raise ValueError(f"unknown family {name!r}; choose from {', '.join(FAMILIES)}")
    return _FAMILY_TABLE[name]


def gen(family: str, params: Sequence, seed: int | None = None) -> Graph:
    """Dispatch on family name; params are positional family parameters.

    path n | cycle n | grid rows cols | gnp n p (seed required) | hypercube dim
    """
    types, generator, _ = _family(family)
    params = tuple(params)
    if len(params) != len(types):
        raise ValueError(f"family {family!r} takes {len(types)} parameter(s), got {len(params)}")
    args = [convert(value) for convert, value in zip(types, params)]
    if family == "gnp":
        if seed is None:
            raise ValueError("gnp requires a seed")
        args.append(seed)
    return generator(*args)


def sized_instance(family: str, size: int, seed: int, gnp_p: float) -> Graph:
    """The bench instance of a family for a requested vertex count.

    grid is the near-square factorization of size, hypercube needs a power of
    two, and gnp has edge probability gnp_p and seed derive_seed(seed, size).
    """
    _, generator, bench_args = _family(family)
    return generator(*bench_args(size, seed, gnp_p))


# 3x3 grid with a deliberately shuffled labeling: the lexicographic
# constructors return {1,2,3,4,5,6} on it, yet dropping vertex 1 still leaves
# an identifying code, making it the canonical non-minimality regression.
_FIXTURE_EDGES = (
    (1, 2), (2, 9), (3, 4), (3, 8), (6, 7), (5, 7),
    (1, 4), (4, 6), (2, 3), (3, 7), (8, 9), (5, 8),
)


def nonminimal_grid_fixture() -> Graph:
    """The pinned 9-vertex grid on which the lexicographic code is not minimal."""
    return Graph(9, _FIXTURE_EDGES)
