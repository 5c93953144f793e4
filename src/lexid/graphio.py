"""Reading and writing graphs as plain edge lists or DIMACS files.

Both formats are UTF-8 text, break lines at LF, CRLF or CR, and use 1-indexed
vertices. The order of edge lines never affects algorithm behavior; only vertex
indices define the processing order.

One helper reads lines from the start up to the first significant one, which
both parsers take as the header and detect_format reads for its tag.  A parse
reads the body after it one piece at a time, each piece the lines that begin
within PIECE_CHARS characters of its start, by one of two readers.  A
canonical piece (only ASCII digits, single spaces and line breaks; in DIMACS
each line led by 'e ') is decoded as one JSON array by the C scanner, which
reads its numbers with no str tokens, or, if the graph gets a table of labels,
looks each up in the table.  Any other piece goes through its format's
per-line rules, the walk that names a fault.  Each piece's endpoints, all
exact ints, are appended to two int lists, which Graph takes with no type
pass.  So beside the text, the endpoint lists and the Graph, a parse holds the
array or the lines of one piece, never of the whole file.  Only when a check
fails is the whole text split into numbered lines, to name the first fault.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain
from operator import lt
from typing import Callable

from .graph import EdgeError, Graph

# Characters of body text read at a time.  A piece's array or lines take a few
# times its size; each piece also costs a few Python calls, which must stay far
# below one per 100 edges.
PIECE_CHARS = 1 << 16

_decode = json.JSONDecoder().decode


class ParseError(ValueError):
    """Malformed graph file; carries the 1-indexed offending line when known."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _normalized(text: str) -> str:
    """The text with every CRLF and CR made an LF; the text itself if it has no CR."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _first_line(text: str, tag: str = "") -> tuple[int, str, list[str], int] | None:
    """(number, stripped text, tokens, offset of the next line) of the first
    line of a normalized text that is not blank, not a '#' comment and not led
    by the token `tag` (DIMACS: 'c'), or None if there is none."""
    number, start = 1, 0
    while start <= len(text):
        end = text.find("\n", start) + 1 or len(text) + 1  # the offset of the next line
        tokens = text[start:end].split()
        if tokens and tokens[0][0] != "#" and tokens[0] != tag:
            return number, text[start:end].strip(), tokens, end
        number, start = number + 1, end
    return None


def _significant(lines: list[str], first: int) -> list[tuple[int, str]]:
    """(number, stripped line) of each of `lines`, numbered from `first`, that
    is neither blank nor a '#' comment."""
    numbered = enumerate(map(str.strip, lines), first)
    return [(k, line) for k, line in numbered if line and line[0] != "#"]


def _labels(n: int, m: int) -> dict[str, int] | None:
    """A table of the decimal strings of the labels 0..n, or None.

    The scanner of a graph with a table looks each endpoint up in it, so the
    endpoints of a label share one int where the plain scanner makes one per
    endpoint, and a label past n is refused there.  The table is made when the
    labels are few and each comes up eight times on average or more among the
    2m endpoints the header declares.
    """
    if n <= 4096 and 8 * (n + 1) <= 2 * m:
        return dict(zip(map(str, range(n + 1)), range(n + 1)))
    return None


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


# Per-line rules of the lines after a header: walk(significant lines, pairs,
# numbers) appends each edge and its line number in turn and raises the first
# ParseError.
_Walk = Callable[[list[tuple[int, str]], list[tuple[int, int]], list[int]], None]


def _graph(n: int, m: int, ends: tuple[list[int], list[int]] | None, text: str, number: int,
           walk: _Walk, header: str, oriented: bool = False) -> Graph:
    """The graph of the endpoint lists `ends`, which must hold the m edges that
    the header on line `number` of the normalized `text` declares.

    `ends` holds the edges of the lines after the header, or is None when their
    bulk parse failed; `oriented` says the caller checked every u < v.  On any
    fault, the text is split into lines and `walk` runs the per-line rules over
    the significant ones after the header, so the first fault in file order is
    the one raised: Graph checks the pairs before the first line fault first,
    and its EdgeError is raised at the line of the faulty pair.  A count
    mismatch is raised at the last significant line.
    """
    if ends is not None and len(ends[0]) == m:
        try:
            return Graph._from_int_endpoints(n, *ends, oriented)
        except EdgeError:
            pass
    significant = _significant(text.split("\n")[number:], number + 1)
    pairs, numbers, fault = [], [], None
    try:
        walk(significant, pairs, numbers)
    except ParseError as exc:
        fault = exc
    try:
        Graph(n, pairs)
    except EdgeError as exc:
        raise ParseError(str(exc), numbers[exc.index]) from None
    if fault is not None:
        raise fault
    last = significant[-1][0] if significant else number
    raise ParseError(f"{header} declares {m} edges but {len(pairs)} found", last)


def _ends(text: str, start: int, n: int, m: int, tag: str, walk: _Walk) -> tuple[list[int], list[int]] | None:
    """The endpoint lists of the body text[start:] of a normalized text, or
    None if one of its significant lines breaks a line rule.

    Each line must be a 'u v' line (tag "") or an 'e u v' line or a 'c' comment
    (tag "e").  The body is read one piece at a time: the lines that begin
    within PIECE_CHARS characters of its start, less the line break after them.
    A piece the scanner refuses goes through `walk`, the format's line rules.
    """
    labels = _labels(n, m)
    decode = _decode if labels is None else json.JSONDecoder(parse_int=labels.__getitem__).decode
    us: list[int] = []
    vs: list[int] = []
    stop = len(text) - text.endswith("\n")
    while start < stop:
        end = text.find("\n", start + PIECE_CHARS - 1, stop)
        if end < 0:
            end = stop
        piece = text[start:end]
        start = end + 1
        if (ends := _scanned(piece, tag, decode)) is None:
            pairs: list[tuple[int, int]] = []
            try:
                walk(_significant(piece.split("\n"), 1), pairs, [])
            except ParseError:
                return None
            ends = list(chain.from_iterable(pairs))
        us += ends[0::2]
        vs += ends[1::2]
    return us, vs


def _scanned(piece: str, tag: str, decode: Callable[[str], list]) -> list[int] | None:
    """The endpoints of a canonical piece, decoded by `decode` as one JSON
    array with null for each line break, or None.  Its L lines must give 3L - 1
    entries with every third from index 2 a null.  JSON refuses the other
    spellings int() reads (leading zeros, signs, '_'), so a piece it takes
    gives the ints of the line rules."""
    lines = piece.count("\n") + 1
    if tag:
        if not piece.startswith("e ") or piece.count("\ne ") != lines - 1:
            return None
        piece = piece[2:].replace("\ne ", "\n")
    if piece.encode().translate(None, b"0123456789 \n"):
        return None
    try:
        ends = decode("[" + piece.replace(" ", ",").replace("\n", ",null,") + "]")
    except (ValueError, KeyError):  # an empty token, a leading zero, > 4300 digits, or a label past n
        return None
    if len(ends) != 3 * lines - 1 or ends[2::3].count(None) != lines - 1:
        return None
    del ends[2::3]
    return ends


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: a "n m" header, then m lines "u v" with u < v.

    Blank lines and lines starting with '#' are ignored anywhere.
    """
    text = _normalized(text)
    if (first := _first_line(text)) is None:
        raise ParseError("missing 'n m' header line")
    number, line, tokens, body = first
    if len(tokens) != 2:
        raise ParseError(f"header must be 'n m', got {line!r}", number)
    n, m = _parse_counts(tokens[0], tokens[1], number)
    walk = partial(_edge_list_walk, m=m)
    ends = _ends(text, body, n, m, "", walk)
    if ends is not None and not all(map(lt, *ends)):
        ends = None
    return _graph(n, m, ends, text, number, walk, "header", oriented=True)


def _edge_list_walk(significant: list[tuple[int, str]], pairs: list[tuple[int, int]], numbers: list[int],
                    m: int) -> None:
    for count, (number, line) in enumerate(significant):
        if count == m:
            raise ParseError(f"unexpected extra line after {m} edges: {line!r}", number)
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"edge line must be 'u v', got {line!r}", number)
        u = _parse_int(tokens[0], "endpoint", number)
        v = _parse_int(tokens[1], "endpoint", number)
        if u > v:
            raise ParseError(f"edge endpoints must satisfy u < v, got {u} {v}", number)
        pairs.append((u, v))
        numbers.append(number)


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS format: 'c' comments, one 'p edge n m' line, then 'e u v' lines.

    Edge endpoints may appear in either order; duplicates (in any orientation)
    and self-loops are rejected.
    """
    text = _normalized(text)
    if (first := _first_line(text, "c")) is None:
        raise ParseError("missing 'p edge n m' problem line")
    number, line, tokens, body = first
    if tokens[0] == "e":
        raise ParseError("edge line before problem line", number)
    if tokens[0] != "p":
        raise ParseError(f"unknown line type {tokens[0]!r}", number)
    if len(tokens) != 4 or tokens[1] != "edge":
        raise ParseError(f"problem line must be 'p edge n m', got {line!r}", number)
    n, m = _parse_counts(tokens[2], tokens[3], number)
    return _graph(n, m, _ends(text, body, n, m, "e", _dimacs_walk), text, number, _dimacs_walk, "problem line")


def _dimacs_walk(significant: list[tuple[int, str]], pairs: list[tuple[int, int]],
                 numbers: list[int]) -> None:
    for number, line in significant:
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
        pairs.append((u, v))
        numbers.append(number)


def _serialized(g: Graph, header: str, line: str) -> str:
    """`header % (n, m)`, then one `line % (u, v)` per edge, edges sorted, made by a single format."""
    ends = g._sorted_endpoints()  # before the format string, so the two are never held together
    m = len(ends) // 2
    body = (line * m) % ends
    del ends  # before the header is joined on, which copies the body
    return header % (g.n, m) + body


def to_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format with edges sorted lexicographically."""
    return _serialized(g, "%d %d\n", "%d %d\n")


def to_dimacs(g: Graph) -> str:
    """Serialize to DIMACS format with edges sorted lexicographically."""
    return _serialized(g, "p edge %d %d\n", "e %d %d\n")


def detect_format(text: str) -> str:
    """Guess 'dimacs' or 'edgelist' from the first significant line."""
    first = _first_line(_normalized(text))
    return "dimacs" if first and first[2][0] in ("c", "p", "e") else "edgelist"


def parse_graph(text: str, fmt: str = "auto") -> Graph:
    """Parse text in the named format; 'auto' sniffs DIMACS by its line tags."""
    if fmt == "auto":
        fmt = detect_format(text)
    if fmt == "edgelist":
        return parse_edge_list(text)
    if fmt == "dimacs":
        return parse_dimacs(text)
    raise ValueError(f"unknown graph format {fmt!r}")
