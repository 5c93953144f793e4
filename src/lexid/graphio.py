"""Reading and writing graphs as plain edge lists or DIMACS files.

Both formats are UTF-8 text, tolerate LF or CRLF, and use 1-indexed vertices.
The order of edge lines never affects algorithm behavior; only vertex indices
define the processing order.
"""

from __future__ import annotations

from .graph import Graph


class ParseError(ValueError):
    """Malformed graph file; carries the 1-indexed offending line when known."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _data_lines(text: str):
    for number, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield number, stripped


def _parse_int(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected integer {what}, got {token!r}", line) from None


def _parse_counts(n_token: str, m_token: str, line: int) -> tuple[int, int]:
    """Vertex and edge counts of a header line, checked for range."""
    n = _parse_int(n_token, "vertex count", line)
    m = _parse_int(m_token, "edge count", line)
    if n < 1:
        raise ParseError(f"vertex count must be >= 1, got {n}", line)
    if m < 0:
        raise ParseError(f"edge count must be >= 0, got {m}", line)
    return n, m


def _add_edge(edges: set[tuple[int, int]], u: int, v: int, n: int, line: int) -> None:
    """Add edge {u, v} as (min, max), rejecting self-loops, range errors and duplicates."""
    if u == v:
        raise ParseError(f"self-loop at vertex {u}", line)
    if not (1 <= u <= n and 1 <= v <= n):
        raise ParseError(f"edge ({u}, {v}) has an endpoint outside 1..{n}", line)
    pair = (u, v) if u < v else (v, u)
    if pair in edges:
        raise ParseError(f"duplicate edge ({pair[0]}, {pair[1]})", line)
    edges.add(pair)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: a "n m" header, then m lines "u v" with u < v.

    Blank lines and lines starting with '#' are ignored anywhere.
    """
    n = -1
    m = -1
    header_seen = False
    edges: set[tuple[int, int]] = set()
    last_line = 0
    for number, line in _data_lines(text):
        last_line = number
        tokens = line.split()
        if not header_seen:
            if len(tokens) != 2:
                raise ParseError(f"header must be 'n m', got {line!r}", number)
            n, m = _parse_counts(tokens[0], tokens[1], number)
            header_seen = True
            continue
        if len(edges) == m:
            raise ParseError(f"unexpected extra line after {m} edges: {line!r}", number)
        if len(tokens) != 2:
            raise ParseError(f"edge line must be 'u v', got {line!r}", number)
        u = _parse_int(tokens[0], "endpoint", number)
        v = _parse_int(tokens[1], "endpoint", number)
        if u > v:
            raise ParseError(f"edge endpoints must satisfy u < v, got {u} {v}", number)
        _add_edge(edges, u, v, n, number)
    if not header_seen:
        raise ParseError("missing 'n m' header line")
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges but {len(edges)} found", last_line)
    return Graph(n, edges)


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS format: 'c' comments, one 'p edge n m' line, then 'e u v' lines.

    Edge endpoints may appear in either order; duplicates (in any orientation)
    and self-loops are rejected.
    """
    n = -1
    m = -1
    problem_seen = False
    edges: set[tuple[int, int]] = set()
    last_line = 0
    for number, line in _data_lines(text):
        last_line = number
        tokens = line.split()
        kind = tokens[0]
        if kind == "c":
            continue
        if kind == "p":
            if problem_seen:
                raise ParseError("duplicate problem line", number)
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError(f"problem line must be 'p edge n m', got {line!r}", number)
            n, m = _parse_counts(tokens[2], tokens[3], number)
            problem_seen = True
            continue
        if kind == "e":
            if not problem_seen:
                raise ParseError("edge line before problem line", number)
            if len(tokens) != 3:
                raise ParseError(f"edge line must be 'e u v', got {line!r}", number)
            u = _parse_int(tokens[1], "endpoint", number)
            v = _parse_int(tokens[2], "endpoint", number)
            _add_edge(edges, u, v, n, number)
            continue
        raise ParseError(f"unknown line type {kind!r}", number)
    if not problem_seen:
        raise ParseError("missing 'p edge n m' problem line")
    if len(edges) != m:
        raise ParseError(f"problem line declares {m} edges but {len(edges)} found", last_line)
    return Graph(n, edges)


def to_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format with edges sorted lexicographically."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def to_dimacs(g: Graph) -> str:
    """Serialize to DIMACS format with edges sorted lexicographically."""
    lines = [f"p edge {g.n} {len(g.edges)}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def detect_format(text: str) -> str:
    """Guess 'dimacs' or 'edgelist' from the first significant line."""
    for _, line in _data_lines(text):
        first = line.split()[0]
        return "dimacs" if first in ("c", "p", "e") else "edgelist"
    return "edgelist"


def parse_graph(text: str, fmt: str = "auto") -> Graph:
    """Parse text in the named format; 'auto' sniffs DIMACS by its line tags."""
    if fmt == "auto":
        fmt = detect_format(text)
    if fmt == "edgelist":
        return parse_edge_list(text)
    if fmt == "dimacs":
        return parse_dimacs(text)
    raise ValueError(f"unknown graph format {fmt!r}")
