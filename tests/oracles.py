"""Brute-force reference implementations used as ground truth in tests.

Everything here works on plain frozensets built straight from the edge set
(the minimalization reference packs them into bitsets of its own),
deliberately sharing no code with the package's views.  The one exception
is relabeled_array, which builds the relabeled NeighborhoodArray that a run
in a processing order is checked against.
"""

from __future__ import annotations

from itertools import combinations

from lexid import Code, Graph, NeighborhoodArray, ParseError, SplitMix64
from lexid.graph import _positions


def tagged(outcome):
    """A package outcome in the references' form: ("code", members) or ("twins", j, k)."""
    if isinstance(outcome, Code):
        return ("code", outcome.members)
    return ("twins", outcome.j, outcome.k)


def neighborhood_sets(g: Graph) -> dict[int, frozenset[int]]:
    nbhd: dict[int, set[int]] = {v: {v} for v in range(1, g.n + 1)}
    for u, v in g.edges:
        nbhd[u].add(v)
        nbhd[v].add(u)
    return {v: frozenset(s) for v, s in nbhd.items()}


def relabeled_array(a: NeighborhoodArray, sequence) -> NeighborhoodArray:
    """The array after sequence[i-1] becomes vertex i, in O(n + m) with no sort;
    ValueError, as apply_sequence raises it, unless sequence is a permutation.

    Old vertex u gathers, in order, each w with u in N(sequence[w-1]): by symmetry, its new list.
    """
    _positions(sequence, a.n)
    lists: list[list[int]] = [[] for _ in range(a.n + 1)]  # by old vertex
    for w, v in enumerate(sequence, 1):
        for u in a._lists[v]:
            lists[u].append(w)
    return NeighborhoodArray(a.n, tuple(tuple(lists[v]) for v in (0, *sequence)))


def brute_find_twins(g: Graph) -> tuple[int, int] | None:
    """Smallest j with an earlier equal neighborhood, then smallest such k."""
    nbhd = neighborhood_sets(g)
    for j in range(2, g.n + 1):
        for k in range(1, j):
            if nbhd[k] == nbhd[j]:
                return (k, j)
    return None


def brute_min_sym_diff(g: Graph, j: int, k: int) -> int:
    """min of N(v_j) symmetric-difference N(v_k), or n+1 when empty."""
    nbhd = neighborhood_sets(g)
    diff = nbhd[j] ^ nbhd[k]
    return min(diff) if diff else g.n + 1


def brute_is_identifying(g: Graph, members) -> bool:
    nbhd = neighborhood_sets(g)
    code = set(members)
    traces = [nbhd[v] & code for v in range(1, g.n + 1)]
    return all(traces) and len(set(map(frozenset, traces))) == g.n


def brute_minimum_cardinality(g: Graph) -> int:
    """Smallest identifying-code size by exhaustive subset search."""
    for size in range(1, g.n + 1):
        for combo in combinations(range(1, g.n + 1), size):
            if brute_is_identifying(g, combo):
                return size
    raise AssertionError("graph has twins; no identifying code exists")


def brute_lex_code(g: Graph):
    """The paper's lexicographic construction, straight from its definition.

    Scans j = 1..n with C the code so far: when N(v_j) ∩ C is empty, adds
    min N(v_j); when it equals N(v_k) ∩ C for some k < j, adds
    min(N(v_j) Δ N(v_k)), or stops with the twin pair when that difference is
    empty.  Returns ("code", members) or ("twins", j, k).
    """
    nbhd = neighborhood_sets(g)
    code: set[int] = set()
    for j in range(1, g.n + 1):
        trace = nbhd[j] & code
        if not trace:
            code.add(min(nbhd[j]))
            continue
        k = next((k for k in range(1, j) if nbhd[k] & code == trace), None)
        if k is None:
            continue
        diff = nbhd[j] ^ nbhd[k]
        if not diff:
            return ("twins", j, k)
        code.add(min(diff))
    return ("code", tuple(sorted(code)))


def reference_sparse_tally(g: Graph):
    """The lexicographic run on g with the charges SparseWorkTally documents.

    Keeps each vertex's row as an explicit tuple of the codewords covering
    it, in the order they joined C, and charges what the paper's sparse
    algorithm touches: one for the empty test of each row; for each earlier
    row the linear search for k compares, one for the length check plus the
    common length when the lengths tie; one for reading the head of an
    uncovered vertex's list, else two per position the synchronized walk of
    the sorted N(v_j) and N(v_k) passes; and deg(l) + 1 for inserting
    codeword l into the lists it covers.  Returns the outcome as
    brute_lex_code gives it and the charges, keyed by SparseWorkTally's
    field names.
    """
    nbhd = neighborhood_sets(g)
    lists = {v: sorted(nbhd[v]) for v in nbhd}
    rows: dict[int, tuple[int, ...]] = {v: () for v in nbhd}
    charges = dict.fromkeys(("comparison_touches", "empty_check_touches", "scan_touches", "insert_touches"), 0)
    for j in range(1, g.n + 1):
        charges["empty_check_touches"] += 1
        if not rows[j]:
            l = lists[j][0]
            charges["scan_touches"] += 1
        else:
            for k in range(1, j):
                charges["comparison_touches"] += 1
                if len(rows[k]) == len(rows[j]):
                    charges["comparison_touches"] += len(rows[j])
                    if rows[k] == rows[j]:
                        break
            else:
                continue
            a, b = lists[j], lists[k]
            walked = 0
            while walked < min(len(a), len(b)) and a[walked] == b[walked]:
                walked += 1
            if walked < min(len(a), len(b)):
                l = min(a[walked], b[walked])
                walked += 1
            else:
                l = a[walked] if len(a) > walked else b[walked] if len(b) > walked else g.n + 1
            charges["scan_touches"] += 2 * walked
            if l > g.n:
                return ("twins", j, k), charges
        charges["insert_touches"] += len(lists[l])
        for v in lists[l]:
            rows[v] += (l,)
    return ("code", tuple(sorted({c for row in rows.values() for c in row}))), charges


def brute_greedy_code(g: Graph):
    """Set-cover greedy over the identification requirements, from its definition.

    The requirements are each N(v), then each N(v) ^ N(w) for v < w; vertex u
    covers those that contain it.  Repeatedly picks the vertex covering the
    most uncovered requirements, the smallest on ties.  A twin pair's
    requirement is empty and has no coverer, so a graph with twins returns
    ("twins", j, k) for brute_find_twins' pair (k, j); otherwise ("code", members).
    """
    twins = brute_find_twins(g)
    if twins is not None:
        return ("twins", twins[1], twins[0])
    nbhd = neighborhood_sets(g)
    vertices = range(1, g.n + 1)
    requirements = [nbhd[v] for v in vertices]
    requirements += [nbhd[v] ^ nbhd[w] for v, w in combinations(vertices, 2)]
    covers = {u: frozenset(i for i, r in enumerate(requirements) if u in r) for u in vertices}
    uncovered = frozenset(range(len(requirements)))
    code = []
    while uncovered:
        u = max(vertices, key=lambda u: len(covers[u] & uncovered))  # the first of the largest
        uncovered -= covers[u]
        code.append(u)
    return ("code", tuple(sorted(code)))


def bitset_minimalize(g: Graph, members) -> tuple[int, ...]:
    """The bitset minimalization pass: for each member v, ascending, drop bit
    v-1 from the code mask and keep the drop iff the n rows ANDed with the mask
    are non-empty and pairwise distinct.  `members` must identify g."""
    nbhd = neighborhood_sets(g)
    rows = [sum(1 << (u - 1) for u in nbhd[v]) for v in range(1, g.n + 1)]
    cmask = 0
    for v in members:
        cmask |= 1 << (v - 1)
    for v in sorted(set(members)):
        trial = cmask & ~(1 << (v - 1))
        traces = [trial & row for row in rows]
        if all(traces) and len(set(traces)) == g.n:
            cmask = trial
    return tuple(v for v in range(1, g.n + 1) if cmask >> (v - 1) & 1)


def reference_gnp(n: int, p: float, seed: int) -> tuple[tuple[int, int], ...]:
    """G(n, p)'s pairs straight from the definition: visit the pairs in
    lexicographic order and keep one when its uniform double is < p."""
    rng = SplitMix64(seed)
    return tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p)


def reference_serialization(g: Graph, dimacs: bool) -> str:
    """The edge-list or DIMACS text of a graph, one f-string per line."""
    lines = [f"p edge {g.n} {len(g.pairs)}" if dimacs else f"{g.n} {len(g.pairs)}"]
    lines.extend(f"e {u} {v}" if dimacs else f"{u} {v}" for u, v in sorted(g.pairs))
    return "\n".join(lines) + "\n"


def reference_shuffle(rng, items: list) -> None:
    """Fisher-Yates straight from its definition: for i from high to low,
    swap items[i] with items[rng.randbelow(i + 1)]."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        items[i], items[j] = items[j], items[i]


# splitmix64's published constants, kept apart from the package's
GAMMA, _MIX1, _MIX2, _MASK64 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 2**64 - 1


def _unxorshift(y: int, shift: int) -> int:
    """The x with x ^ (x >> shift) == y: repeating the xor-shift on y fixes
    `shift` more of x's top bits each time."""
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def seed_for_output(k: int, z: int) -> int:
    """The seed whose k-th output (0-based) is z.

    splitmix64's finalizer is a bijection of 64-bit words: undo its
    xor-shifts, and its multiplies by their inverses mod 2**64, to get the
    state that yields z, then step that state back k + 1 gammas.
    """
    x = _unxorshift(z, 31)
    x = _unxorshift((x * pow(_MIX2, -1, 2**64)) & _MASK64, 27)
    x = _unxorshift((x * pow(_MIX1, -1, 2**64)) & _MASK64, 30)
    return (x - (k + 1) * GAMMA) & _MASK64


# The streaming front end: the parsers draw one significant line at a time and
# feed each parsed pair to the per-pair edge rules, so the first fault in file
# order is the one raised.  The package's bulk parsers and Graph must agree
# with it on every text and every pair list.


class ReferenceLines:
    """Numbered significant lines of a text, skipping blank lines and '#' comments.

    Lines break only at LF, CRLF and CR. All iterators share one position, and
    `number` is the line last drawn.
    """

    def __init__(self, text: str) -> None:
        self.number = 0
        self._raw = enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1)

    def __iter__(self):
        for number, raw in self._raw:
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                self.number = number
                yield number, stripped


def reference_edge_set(n, edges) -> frozenset[tuple[int, int]]:
    """The edge rules pair by pair: type, self-loop, range, duplicate; the canonical edge set."""
    if type(n) is not int or n < 1:
        raise ValueError(f"vertex count must be a positive integer, got {n!r}")
    canonical: set[tuple[int, int]] = set()
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"edge endpoints must be integers, got ({u!r}, {v!r})")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 1..{n}")
        pair = (u, v) if u < v else (v, u)
        if pair in canonical:
            raise ValueError(f"duplicate edge ({pair[0]}, {pair[1]})")
        canonical.add(pair)
    return frozenset(canonical)


def _reference_int(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected integer {what}, got {token!r}", line) from None


def _reference_counts(n_token: str, m_token: str, line: int) -> tuple[int, int]:
    n = _reference_int(n_token, "vertex count", line)
    m = _reference_int(m_token, "edge count", line)
    if n < 1:
        raise ParseError(f"vertex count must be >= 1, got {n}", line)
    if m < 0:
        raise ParseError(f"edge count must be >= 0, got {m}", line)
    return n, m


def _reference_graph(n, m, edges, lines: ReferenceLines, header: str):
    try:
        edge_set = reference_edge_set(n, edges)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc), lines.number) from None
    if len(edge_set) != m:
        raise ParseError(f"{header} declares {m} edges but {len(edge_set)} found", lines.number)
    return n, edge_set


def reference_parse_edge_list(text: str) -> tuple[int, frozenset[tuple[int, int]]]:
    """(n, canonical edge set) of an edge-list text, or the ParseError of the first fault."""
    lines = ReferenceLines(text)
    for number, line in lines:
        break
    else:
        raise ParseError("missing 'n m' header line")
    tokens = line.split()
    if len(tokens) != 2:
        raise ParseError(f"header must be 'n m', got {line!r}", number)
    n, m = _reference_counts(tokens[0], tokens[1], number)

    def edges():
        for count, (number, line) in enumerate(lines):
            if count == m:
                raise ParseError(f"unexpected extra line after {m} edges: {line!r}", number)
            tokens = line.split()
            if len(tokens) != 2:
                raise ParseError(f"edge line must be 'u v', got {line!r}", number)
            u = _reference_int(tokens[0], "endpoint", number)
            v = _reference_int(tokens[1], "endpoint", number)
            if u > v:
                raise ParseError(f"edge endpoints must satisfy u < v, got {u} {v}", number)
            yield u, v

    return _reference_graph(n, m, edges(), lines, "header")


def reference_parse_dimacs(text: str) -> tuple[int, frozenset[tuple[int, int]]]:
    """(n, canonical edge set) of a DIMACS text, or the ParseError of the first fault."""
    lines = ReferenceLines(text)
    for number, line in lines:
        tokens = line.split()
        if tokens[0] != "c":
            break
    else:
        raise ParseError("missing 'p edge n m' problem line")
    if tokens[0] == "e":
        raise ParseError("edge line before problem line", number)
    if tokens[0] != "p":
        raise ParseError(f"unknown line type {tokens[0]!r}", number)
    if len(tokens) != 4 or tokens[1] != "edge":
        raise ParseError(f"problem line must be 'p edge n m', got {line!r}", number)
    n, m = _reference_counts(tokens[2], tokens[3], number)

    def edges():
        for number, line in lines:
            tokens = line.split()
            kind = tokens[0]
            if kind == "c":
                continue
            if kind == "p":
                raise ParseError("duplicate problem line", number)
            if kind != "e":
                raise ParseError(f"unknown line type {kind!r}", number)
            if len(tokens) != 3:
                raise ParseError(f"edge line must be 'e u v', got {line!r}", number)
            u = _reference_int(tokens[1], "endpoint", number)
            v = _reference_int(tokens[2], "endpoint", number)
            yield u, v

    return _reference_graph(n, m, edges(), lines, "problem line")
