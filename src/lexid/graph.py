"""Core graph types: vertices 1..n, closed neighborhoods, twins, code checks.

Vertices are 1-indexed everywhere.  A vertex v corresponds to bit v-1 in the
integer bitsets used throughout the package, so the bitset of {1} is 1.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import add, eq, floordiv, itemgetter, lt, mod, mul
from typing import Iterable, Sequence, Union


class EdgeError(ValueError):
    """An edge rule broken by the pair at `index` of the edges given to Graph."""

    def __init__(self, message: str, index: int) -> None:
        self.index = index
        super().__init__(message)


@dataclass(frozen=True, eq=False, repr=False)
class Graph:
    """Undirected simple graph on vertices 1..n.

    The edges are stored once, as two private lists `_us` and `_vs`, never
    mutated, of the pairs u < v in strictly increasing order: pairs given in
    that order are kept as they are, any other order is sorted once.  `edges`,
    their frozenset, is built on first use, and `pairs`, their tuple, on each
    use.  The constructor accepts any iterable of pairs of `int` (a `bool` is
    not a vertex) and rejects self-loops, out-of-range endpoints, and
    duplicate edges (in either orientation); `_from_int_endpoints` takes the
    same edges as two lists of exact ints with no type pass.  Both run the
    package's only edge rules, `_canonical`, on all edges at once; only when a
    check fails does one walk over the edges, in the order given, find the
    first faulty one, raising EdgeError with its message and index.
    Nothing sized by n is allocated before a view is asked for.  The sorted
    lists are the one view built from the edges; the bit matrix is derived
    from them.
    """

    n: int

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        _check_vertex_count(n)
        items = edges if isinstance(edges, (list, tuple)) else list(edges)
        checked = None
        try:
            pairs = list(map(tuple, items))
        except TypeError:  # an item that is not iterable
            pass
        else:
            if set(map(len, pairs)) <= {2}:
                us = list(map(itemgetter(0), pairs))
                vs = list(map(itemgetter(1), pairs))
                if set(map(type, chain(us, vs))) <= {int}:
                    checked = _canonical(n, us, vs)
        if checked is None:
            raise _first_fault(n, items)
        self.__dict__.update(n=n, _us=checked[0], _vs=checked[1])  # past the frozen __setattr__

    @classmethod
    def _from_int_endpoints(cls, n: int, us: list[int], vs: list[int], oriented: bool = False) -> Graph:
        """Graph(n, zip(us, vs)) with no type pass, for lists of exact ints such
        as the parsers make with int() and gnp_graph takes from range(), kept
        uncopied if their pairs u < v increase; `oriented` vouches that every
        us[i] < vs[i].  It starts as Graph(n): every graph passes __init__."""
        checked = _canonical(n, us, vs, oriented)
        if checked is None:
            raise _first_fault(n, zip(us, vs))
        g = cls(n)
        g.__dict__.update(_us=checked[0], _vs=checked[1])
        return g

    def _sorted_endpoints(self) -> tuple[int, ...]:
        """u1, v1, u2, v2, ... of the pairs, in their increasing order."""
        ends = [0] * (2 * len(self._us))
        ends[0::2], ends[1::2] = self._us, self._vs
        return tuple(ends)

    def _relabeled(self, label: list[int]) -> Graph:
        """The graph with each vertex v renamed label[v], for label a permutation of
        0..n that fixes 0; a permutation keeps every edge rule, so none is run."""
        w = self.n + 1
        relabeled = zip(map(label.__getitem__, self._us), map(label.__getitem__, self._vs))
        us, vs = _decoded([a * w + b if a < b else b * w + a for a, b in relabeled], w)
        g = Graph(self.n)
        g.__dict__.update(_us=us, _vs=vs)
        return g

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The edges as (u, v) tuples, u < v, in increasing order; built anew on each use."""
        return tuple(zip(self._us, self._vs))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(self._us, self._vs))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, pairs={self.pairs!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self._us == other._us and self._vs == other._vs

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Degree of each vertex; index 0 is unused padding."""
        deg = [0] * (self.n + 1)
        for u, v in zip(self._us, self._vs):
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @cached_property
    def max_degree(self) -> int:
        return max(self.degrees[1:])

    @cached_property
    def neighborhood_matrix(self) -> ClosedNeighborhoodMatrix:
        """Bit-matrix view: row j is the bitset of the closed neighborhood N(v_j)."""
        return ClosedNeighborhoodMatrix(self.neighborhood_array)

    @cached_property
    def neighborhood_array(self) -> NeighborhoodArray:
        """Sorted-list view: entry j is the ascending tuple of N(v_j).

        Filled from the stored pairs u < v in increasing order, each list
        arrives sorted, lower neighbours before higher ones, so only v itself
        is inserted, by bisection."""
        adj: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in zip(self._us, self._vs):
            adj[u].append(v)
            adj[v].append(u)
        for v in range(1, self.n + 1):
            insort(adj[v], v)
        return NeighborhoodArray(self.n, tuple(map(tuple, adj)))


class ClosedNeighborhoodMatrix:
    """Rows of the closed-neighborhood matrix (identity plus adjacency) as bitsets.

    Derived from a NeighborhoodArray, whose sorted lists it keeps: bit l-1 of
    row(j) is set iff v_l is in the list N(v_j), so the diagonal is all ones and
    the matrix is symmetric.  Rows are immutable once built.  The padding row at
    index 0 is 0, from the array's empty entry: the constructors' scan uses it
    as the row of a vertex that covers nothing.
    """

    __slots__ = ("n", "_rows", "_lists")

    def __init__(self, array: NeighborhoodArray) -> None:
        self.n = array.n
        self._lists = array._lists
        rows = []
        for members in self._lists:
            row = 0
            for u in members:
                row |= 1 << (u - 1)
            rows.append(row)
        self._rows = tuple(rows)  # rows[0] is the empty padding row

    def row(self, j: int) -> int:
        """Bitset of N(v_j)."""
        if not 1 <= j <= self.n:
            raise ValueError(f"vertex {j} out of range 1..{self.n}")
        return self._rows[j]


class NeighborhoodArray:
    """Per-vertex sorted closed neighborhoods; entry j has length degree(v_j)+1.

    The padding entry at index 0 must be (), the empty neighborhood: the
    constructors' scan uses it as the list of a vertex that covers nothing.
    """

    __slots__ = ("n", "_lists")

    def __init__(self, n: int, lists: tuple[tuple[int, ...], ...]) -> None:
        self.n = n
        self._lists = lists  # lists[0] is the empty padding entry

    def neighborhood(self, j: int) -> tuple[int, ...]:
        """Ascending tuple of N(v_j)."""
        if not 1 <= j <= self.n:
            raise ValueError(f"vertex {j} out of range 1..{self.n}")
        return self._lists[j]


@dataclass(frozen=True)
class Code:
    """A strictly increasing tuple of vertex indices claimed to identify a graph."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not set(map(type, members)) <= {int} or members and min(members) < 1:
            for m in members:  # name the first bad member
                if type(m) is not int or m < 1:
                    raise ValueError(f"code member {m!r} is not a positive integer")
        if not all(map(lt, members, members[1:])):
            raise ValueError(f"code members must be strictly increasing, got {members}")

    @property
    def cardinality(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, v: int) -> bool:
        return v in self.members


@dataclass(frozen=True)
class TwinFailure:
    """Vertices j and k (k < j) whose closed neighborhoods coincide."""

    j: int
    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.k < self.j:
            raise ValueError(f"twin pair must satisfy 1 <= k < j, got k={self.k}, j={self.j}")

    @property
    def pair(self) -> tuple[int, int]:
        """The pair as (k, j), matching find_twins output."""
        return (self.k, self.j)


RunOutcome = Union[Code, TwinFailure]


class TwinsError(ValueError):
    """Raised by operations that require a twin-free graph."""

    def __init__(self, pair: tuple[int, int]) -> None:
        self.pair = pair
        super().__init__(f"graph is not twin-free: vertices {pair[0]} and {pair[1]} are twins")


def find_twins(g: Graph) -> tuple[int, int] | None:
    """First pair (k, j), k < j, with N(v_k) = N(v_j); None iff twin-free.

    Pairs are searched in order of increasing j, then increasing k, which is
    exactly the pair the lexicographic constructors fail on.
    """
    lists = g.neighborhood_array._lists
    first_with_list: dict[tuple[int, ...], int] = {}
    for j in range(1, g.n + 1):
        k = first_with_list.setdefault(lists[j], j)
        if k != j:
            return (k, j)
    return None


def is_identifying_code(g: Graph, code: Code | Iterable[int]) -> bool:
    """True iff the traces N(v) ∩ C are non-empty and pairwise distinct.

    Each member c is appended to the trace of every u in N(c), members in
    ascending order; closed neighborhoods are symmetric, so each trace ends
    up as N(u) ∩ C, ascending, in O(n + Σ_c (deg(c) + 1)) steps.  A member
    that is not an int in 1..n raises ValueError, the first in input order.
    It shares no code with the constructors, so it can judge them.
    """
    n = g.n
    given = _members(code, n, "code member")
    lists = g.neighborhood_array._lists
    traces: list[list[int]] = [[] for _ in range(n + 1)]
    for c in sorted(set(given)):
        for u in lists[c]:
            traces[u].append(c)
    del traces[0]
    return all(traces) and len(set(map(tuple, traces))) == n


def _check_vertex_count(n: int) -> None:
    if type(n) is not int or n < 1:
        raise ValueError(f"vertex count must be a positive integer, got {n!r}")


def _canonical(n: int, us: list[int], vs: list[int],
               oriented: bool = False) -> tuple[list[int], list[int]] | None:
    """(us, vs): the edges (us[i], vs[i]) of exact ints as lists of pairs u < v
    in strictly increasing order (the lists given if `oriented` vouches every
    us[i] < vs[i] or all are, and they already increase); or None if one pair
    breaks an edge rule.  Every check is one pass in C over all endpoints, in
    this order: no self-loop; whether the oriented pairs already increase;
    endpoints in 1..n, which on increasing pairs is us[0] >= 1 and one max(vs)
    pass, and otherwise min(us) and max(vs), before any key is built; and, only
    if the pairs do not increase, no pair twice, which shows as two equal
    neighbours among their sorted keys u * (n + 1) + v.
    """
    if not oriented and not all(map(lt, us, vs)):
        if any(map(eq, us, vs)):
            return None
        # one comprehension per list: a min() or max() call per pair costs ~4x its comparison
        us, vs = ([u if u < v else v for u, v in zip(us, vs)],
                  [v if u < v else u for u, v in zip(us, vs)])
    ordered, later = zip(us, vs), zip(us, vs)
    next(later, None)  # one pair ahead of ordered
    if all(map(lt, ordered, later)):  # so us[0] is the smallest endpoint
        return (us, vs) if not us or us[0] >= 1 and max(vs) <= n else None
    if min(us) < 1 or max(vs) > n:
        return None
    keys = list(map(add, map(mul, us, repeat(n + 1)), vs))  # ints: untracked by GC
    us, vs = _decoded(keys, n + 1)
    later = iter(keys)
    next(later, None)
    return None if any(map(eq, keys, later)) else (us, vs)


def _decoded(keys: list[int], w: int) -> tuple[list[int], list[int]]:
    """The pairs (key // w, key % w) of the keys, sorted in place, as two lists
    that share one int per vertex."""
    keys.sort()
    vertices = list(range(w))
    us = list(map(vertices.__getitem__, map(floordiv, keys, repeat(w))))
    vs = list(map(vertices.__getitem__, map(mod, keys, repeat(w))))
    return us, vs


def _first_fault(n: int, items: Iterable) -> EdgeError:
    """The fault of the first item, in order, that breaks an edge rule.

    The rules are checked item by item in the order type, self-loop, range,
    duplicate; an item that does not unpack to two values raises here as it
    would in `u, v = item`.
    """
    seen: set[tuple[int, int]] = set()
    for index, (u, v) in enumerate(items):
        if type(u) is not int or type(v) is not int:
            return EdgeError(f"edge endpoints must be integers, got ({u!r}, {v!r})", index)
        if u == v:
            return EdgeError(f"self-loop at vertex {u}", index)
        if not (1 <= u <= n and 1 <= v <= n):
            return EdgeError(f"edge ({u}, {v}) has an endpoint outside 1..{n}", index)
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            return EdgeError(f"duplicate edge ({pair[0]}, {pair[1]})", index)
        seen.add(pair)
    raise AssertionError("the bulk edge checks failed on valid pairs")


def _members(members: Iterable[int], n: int, what: str) -> list[int]:
    """The members as a list; ValueError at the first, in input order, that is
    not an exact int in 1..n, named as `what`."""
    given = list(members)
    if not set(map(type, given)) <= {int} or given and not 1 <= min(given) <= max(given) <= n:
        for v in given:
            if type(v) is not int:
                raise ValueError(f"{what} {v!r} is not an integer")
            if not 1 <= v <= n:
                raise ValueError(f"{what} {v} out of range 1..{n}")
    return given


def _positions(sequence: Sequence[int], n: int) -> list[int]:
    """position[v] = i for v = sequence[i-1], and position[0] = 0.

    ValueError unless sequence is a permutation of 1..n with exact int entries,
    checked with the one pass that fills position: n entries in 1..n leave
    only slot 0 empty exactly when none repeats.
    """
    position = [0] * (n + 1)
    if len(sequence) == n and set(map(type, sequence)) == {int} and 1 <= min(sequence) and max(sequence) <= n:
        for i, v in enumerate(sequence, 1):
            position[v] = i
        if position.count(0) == 1:
            return position
    raise ValueError(f"not a permutation of 1..{n}: {tuple(sequence)!r}")
