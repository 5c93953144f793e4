"""Reading and writing graphs as plain edge lists or DIMACS files.

Both formats are UTF-8 text, break lines at LF, CRLF or CR, and use 1-indexed
vertices. The order of edge lines never affects algorithm behavior; only vertex
indices define the processing order.
"""

from __future__ import annotations

import re
from typing import Iterator

from .graph import Graph


class ParseError(ValueError):
    """Malformed graph file; carries the 1-indexed offending line when known."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class _Lines:
    """Numbered significant lines of a text, skipping blank lines and '#' comments.

    Lines break only at LF, CRLF and CR. All iterators share one position, and
    `number` is the line last drawn.
    """

    def __init__(self, text: str) -> None:
        self.number = 0
        self._raw = enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1)

    def __iter__(self) -> Iterator[tuple[int, str]]:
        for number, raw in self._raw:
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                self.number = number
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


def _graph(n: int, m: int, edges: Iterator[tuple[int, int]], lines: _Lines, header: str) -> Graph:
    """Graph(n, edges), which must have the m edges its header declares.

    Graph checks the edge rules as it draws each edge, so its ValueError is
    re-raised at the line just drawn; a ParseError from `edges` passes through.
    """
    try:
        g = Graph(n, edges)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc), lines.number) from None
    if len(g.edges) != m:
        raise ParseError(f"{header} declares {m} edges but {len(g.edges)} found", lines.number)
    return g


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: a "n m" header, then m lines "u v" with u < v.

    Blank lines and lines starting with '#' are ignored anywhere.
    """
    lines = _Lines(text)
    for number, line in lines:
        break
    else:
        raise ParseError("missing 'n m' header line")
    tokens = line.split()
    if len(tokens) != 2:
        raise ParseError(f"header must be 'n m', got {line!r}", number)
    n, m = _parse_counts(tokens[0], tokens[1], number)
    return _graph(n, m, _edge_list_edges(lines, m), lines, "header")


def _edge_list_edges(lines: _Lines, m: int) -> Iterator[tuple[int, int]]:
    for count, (number, line) in enumerate(lines):
        if count == m:
            raise ParseError(f"unexpected extra line after {m} edges: {line!r}", number)
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"edge line must be 'u v', got {line!r}", number)
        u = _parse_int(tokens[0], "endpoint", number)
        v = _parse_int(tokens[1], "endpoint", number)
        if u > v:
            raise ParseError(f"edge endpoints must satisfy u < v, got {u} {v}", number)
        yield u, v


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS format: 'c' comments, one 'p edge n m' line, then 'e u v' lines.

    Edge endpoints may appear in either order; duplicates (in any orientation)
    and self-loops are rejected.
    """
    lines = _Lines(text)
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
    n, m = _parse_counts(tokens[2], tokens[3], number)
    return _graph(n, m, _dimacs_edges(lines), lines, "problem line")


def _dimacs_edges(lines: _Lines) -> Iterator[tuple[int, int]]:
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
        u = _parse_int(tokens[1], "endpoint", number)
        v = _parse_int(tokens[2], "endpoint", number)
        yield u, v


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
    # each match is one non-empty line; reading stops at the first significant one
    for match in re.finditer(r"[^\r\n]+", text):
        tokens = match.group().split()
        if tokens and not tokens[0].startswith("#"):
            return "dimacs" if tokens[0] in ("c", "p", "e") else "edgelist"
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
