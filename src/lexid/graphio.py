"""Reading and writing graphs as plain edge lists or DIMACS files.

Both formats are UTF-8 text, break lines at LF, CRLF or CR, and use 1-indexed
vertices. The order of edge lines never affects algorithm behavior; only vertex
indices define the processing order.

One helper reads lines from the start up to the first significant one, which
both parsers take as the header and detect_format reads for its tag.  A parse
tokenizes the body after it one piece at a time, each piece the lines that
begin within PIECE_CHARS characters of its start: split once, its line breaks
marked, or, if it holds a blank line, a '#' or (in DIMACS) a 'c', split into
lines first to drop blank and comment lines.  Each piece's endpoints, all
exact ints, are appended to two int lists, which Graph takes with no type
pass.  So beside the text, the endpoint lists and the Graph, a parse holds the
tokens of one piece, never of the whole file.  Only when a check fails is the
whole text split into numbered lines, to name the first fault.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import filterfalse
from operator import lt
from typing import Callable

from .graph import EdgeError, Graph

# a '#' comment line; blank lines are dropped first
_HASH_COMMENT = re.compile(r"\s*#").match
# a DIMACS 'c' comment line: 'c' as its first token
_C_COMMENT = re.compile(r"\s*c(?:\s|$)").match

# Characters of body text tokenized at a time.  A piece's lines and tokens take
# a few times its size; each piece also costs a few Python calls, which must
# stay far below one per 100 edges.
PIECE_CHARS = 1 << 16


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


def _content(piece: str, tag: str) -> list[str]:
    """The significant lines of a piece, unstripped; '#' (DIMACS: and 'c')
    comments are looked for only if the piece has a '#' (a 'c')."""
    lines = list(filter(str.strip, piece.split("\n")))
    if "#" in piece:
        lines = list(filterfalse(_HASH_COMMENT, lines))
    return list(filterfalse(_C_COMMENT, lines)) if tag and "c" in piece else lines


def _labels(n: int, m: int) -> dict[str, int] | None:
    """A table of the decimal strings of the labels 0..n, or None.

    The table is made when the labels are few and each comes up eight times on
    average or more among the 2m endpoints the header declares: looking tokens
    up in it is 3x faster than int() on G(512, 0.29).  A table of more than
    ~4096 labels falls out of the cache and loses to int() on random labels.
    """
    if n <= 4096 and 8 * (n + 1) <= 2 * m:
        return dict(zip(map(str, range(n + 1)), range(n + 1)))
    return None


def _ints(tokens: list[str], labels: dict[str, int] | None) -> list[int]:
    """int() of every token, looked up in the table `labels` if there is one."""
    if labels is not None:
        try:
            return list(map(labels.__getitem__, tokens))
        except KeyError:
            pass
    return list(map(int, tokens))


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
    numbered = enumerate(map(str.strip, text.split("\n")[number:]), number + 1)
    significant = [(k, line) for k, line in numbered if line and line[0] != "#"]  # not blank or '#'
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


def _ends(text: str, start: int, n: int, m: int, tag: str) -> tuple[list[int], list[int]] | None:
    """The endpoint lists of the body text[start:] of a normalized text, or
    None if one of its significant lines breaks a line rule.

    Each line must be a 'u v' line (tag "") or an 'e u v' line or a 'c' comment
    (tag "e").  The body is read one piece at a time: the lines that begin
    within PIECE_CHARS characters of its start, less the line break after them.
    """
    labels = _labels(n, m)
    us: list[int] = []
    vs: list[int] = []
    stop = len(text) - text.endswith("\n")
    while start < stop:
        end = text.find("\n", start + PIECE_CHARS - 1, stop)
        if end < 0:
            end = stop
        piece = text[start:end]
        start = end + 1
        tokens = None
        if "\n\n" not in piece and "#" not in piece and not (tag and "c" in piece):
            tokens = _tokens(piece.replace("\n", " ; "), piece.count("\n") + 1, tag)
        if tokens is None:  # blank or comment lines, or a fault
            lines = _content(piece, tag)
            tokens = _tokens(" ; ".join(lines), len(lines), tag)
        if tokens is None:
            return None
        try:
            ends = _ints(tokens, labels)
        except ValueError:
            return None
        us += ends[0::2]
        vs += ends[1::2]
    return us, vs


# _tokens splits L lines at once, with the marker token ";" between each two (a
# piece's line breaks replaced by it, or its filtered lines joined by it), and
# checks that the L - 1 markers fell into their slots, every third token
# (DIMACS: fourth) from index 2 (DIMACS: 3) of width * L - 1 tokens (of none if
# L = 0).  That is as strict as splitting each line.  Every token outside the slots must convert
# to an int (or, in DIMACS, be the "e" of its line), and ";" does neither, so
# the markers can only sit in the slots.  They fill them only if every line has
# exactly 2 (DIMACS: 3) tokens, and a literal ";" in a line or a marker next to
# a blank line then falls outside the slots and fails.  The token count alone is
# not enough: the DIMACS lines "e 1 2 e" and "3 4" have as many tokens as two
# edge lines.


def _tokens(marked: str, lines: int, tag: str) -> list[str] | None:
    """The endpoint tokens of `lines` marked lines that are all 'u v' lines
    (tag "") or all 'e u v' lines (tag "e"), or None if one breaks a line rule."""
    width = 4 if tag else 3
    tokens = marked.split()
    if len(tokens) != max(width * lines - 1, 0) or set(tokens[width - 1::width]) - {";"}:
        return None
    del tokens[width - 1::width]
    if tag:
        if set(tokens[0::3]) - {tag}:
            return None
        del tokens[0::3]
    return tokens


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
    ends = _ends(text, body, n, m, "")
    if ends is not None and not all(map(lt, *ends)):
        ends = None
    return _graph(n, m, ends, text, number, partial(_edge_list_walk, m=m), "header", oriented=True)


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
    return _graph(n, m, _ends(text, body, n, m, "e"), text, number, _dimacs_walk, "problem line")


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
