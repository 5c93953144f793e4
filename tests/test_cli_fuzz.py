"""A seeded fuzz of every graph-reading subcommand through cli.main: small
valid files, some dense enough for the parser's table of labels, mutated
harshly (junk tokens, deleted spans, repeated lines) or gently (reordered,
dropped or added edge lines, one relabelled endpoint, valid spellings that are
not canonical), must each end in a clean exit code with at most one line on
stderr, parse as the streaming reference of the detected or forced format
does, and print only codes that identify the graph."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lexid import Graph, ParseError, is_identifying_code, parse_graph
from lexid.cli import main

from oracles import ReferenceLines, reference_parse_dimacs, reference_parse_edge_list

JUNK = ["\ufeff", "\x00", "+", "-", "1e3", "\u0663", "01", "#", "e", "p edge 3 1", "99999999999999999999"]
HARSH = ["junk", "replace", "delete", "repeat"]
GENTLE = ["shuffle", "reverse", "duplicate", "relabel", "drop", "add", "respell"]
# valid spellings that are not canonical: separators, endpoints int() reads
# and JSON does not, and lines the parse skips
SPELLINGS = ["tab", "double space", "trailing space", "01", "+1", "blank line", "# line"]


@st.composite
def mutated_files(draw):
    """The text of a valid graph file on at most 12 vertices, in either format,
    with up to three harsh or gentle mutations.  One in four has n >= 10 and
    m >= 4(n + 1) edges, which gets the parser's table of labels."""
    dense = draw(st.integers(0, 3)) == 0
    n = draw(st.integers(10, 12) if dense else st.integers(1, 12))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    if dense:
        edges = draw(st.permutations(pairs))[:draw(st.integers(4 * (n + 1), len(pairs)))]
    else:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)) if pairs else []
    dimacs = draw(st.booleans())
    tag = "e " if dimacs else ""

    def header(m: int) -> list[str]:
        return [f"p edge {n} {m}" if dimacs else f"{n} {m}"]

    head = header(len(edges))
    body = [f"{tag}{u} {v}" for u, v in sorted(edges)]
    for mutation in draw(st.lists(st.sampled_from(HARSH + GENTLE), max_size=3)):
        if mutation == "shuffle":
            body = draw(st.permutations(body))
        elif mutation == "reverse":
            body = body[::-1]
        elif mutation == "duplicate" and body:
            body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(body)))
        elif mutation == "relabel" and body:
            i = draw(st.integers(0, len(body) - 1))
            tokens = body[i].split()
            tokens[draw(st.integers(len(tokens) - 2, len(tokens) - 1))] = str(draw(st.integers(0, n + 1)))
            body[i] = " ".join(tokens)
        elif mutation in ("drop", "add"):
            if mutation == "drop" and body:
                del body[draw(st.integers(0, len(body) - 1))]
            elif mutation == "add" and n > 1:
                u, v = sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)))
                body.insert(draw(st.integers(0, len(body))), f"{tag}{u} {v}")
            if head and draw(st.booleans()):  # the header declares the new count
                head = header(len(body))
        elif mutation == "respell" and body:
            spelling = draw(st.sampled_from(SPELLINGS + ["c line"] if dimacs else SPELLINGS))
            i = draw(st.integers(0, len(body) - 1))
            tokens = body[i].split(" ")
            if spelling.endswith("line"):
                body.insert(draw(st.integers(0, len(body))), {"b": "", "#": "# note", "c": "c note"}[spelling[0]])
            elif spelling == "trailing space":
                body[i] += " "
            elif spelling in ("01", "+1"):
                at = draw(st.integers(max(len(tokens) - 2, 0), len(tokens) - 1))
                tokens[at] = spelling[0] + tokens[at]
                body[i] = " ".join(tokens)
            else:
                body[i] = ("\t" if spelling == "tab" else "  ").join(tokens)
        elif mutation in HARSH:
            text = "\n".join(head + body)
            at = draw(st.integers(0, len(text)))
            if mutation == "junk":
                text = text[:at] + draw(st.sampled_from(JUNK)) + text[at:]
            elif mutation == "replace":
                tokens = text.split(" ")
                tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(JUNK))
                text = " ".join(tokens)
            elif mutation == "delete":
                text = text[:at] + text[at + draw(st.integers(1, 8)):]
            else:
                lines = text.split("\n")
                i = draw(st.integers(0, len(lines) - 1))
                lines.insert(i, lines[i])
                text = "\n".join(lines)
            head, body = [], text.split("\n")
    return "\n".join(head + body) + draw(st.sampled_from(["", "\n"]))


def _reference(text: str, fmt: str = "auto") -> Graph | ParseError:
    """The streaming reference's graph of a file's text as `lexid` reads it in
    the format `fmt`, or its ParseError."""
    text = text.removeprefix("\ufeff")
    if fmt == "auto":
        first = next((line for _, line in ReferenceLines(text)), "1")
        fmt = "dimacs" if first.split()[0] in ("c", "p", "e") else "edgelist"
    parse = reference_parse_dimacs if fmt == "dimacs" else reference_parse_edge_list
    try:
        n, edges = parse(text)
    except ParseError as exc:
        return exc
    return Graph(n, sorted(edges))


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def _printed_code(argv: list[str], out: str) -> list[int]:
    """The code members that a successful command printed."""
    if "--json" in argv:
        return json.loads(out)["code"]
    if argv[0] == "restarts":
        return [int(v) for v in out.splitlines()[2].removeprefix("best:").split()]
    return [int(v) for v in out.splitlines()[0].split()]


@settings(max_examples=250, derandomize=True, deadline=None)
@given(mutated_files())
def test_every_command_ends_cleanly_on_a_mutated_file(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "g.txt")
        path.write_bytes(text.encode())
        read = path.read_text(encoding="utf-8")
        wants = {fmt: _reference(read, fmt) for fmt in ("auto", "edgelist", "dimacs")}
        for fmt, want in wants.items():
            if not isinstance(want, ParseError):
                assert parse_graph(read.removeprefix("\ufeff"), fmt) == want, fmt
        want = wants["auto"]
        every = "1,2,3" if isinstance(want, ParseError) else ",".join(map(str, range(1, want.n + 1)))
        commands = [["code"], ["code", "--dense"], ["code", "--json"], ["code", "--ordering", "random"],
                    ["verify", "--code", every], ["twins"], ["minimum"], ["greedy"],
                    ["minimalize", "--code", every], ["restarts", "--restarts", "3"],
                    ["code", "--input-format", "edgelist"], ["code", "--input-format", "dimacs"]]
        for command in commands:
            argv = [command[0], str(path), *command[1:]]
            want = wants[command[-1] if "--input-format" in command else "auto"]
            status, out, err = _run(argv)
            assert status in (0, 1, 2, 3), (argv, status)
            assert err == "" or (err.count("\n") == 1 and err.startswith(("lexid:", "error:"))), (argv, err)
            assert "Traceback" not in err
            if isinstance(want, ParseError):
                assert (status, err) == (1, f"lexid: parse error: {want}\n"), argv
            elif status == 0 and command[0] in ("code", "minimum", "greedy", "minimalize", "restarts"):
                assert is_identifying_code(want, _printed_code(argv, out)), argv
