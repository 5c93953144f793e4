"""A seeded fuzz of every graph-reading subcommand through cli.main: small
valid files, mutated harshly (junk tokens, deleted spans, repeated lines) or
gently (reordered edge lines, one relabelled endpoint), must each end in a
clean exit code with at most one line on stderr, parse as the streaming
reference does, and print only codes that identify the graph."""

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
GENTLE = ["shuffle", "reverse", "duplicate", "relabel"]


@st.composite
def mutated_files(draw):
    """The text of a valid graph file on at most 12 vertices, in either format,
    with up to three harsh or gentle mutations."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)) if pairs else []
    dimacs = draw(st.booleans())
    tag = "e " if dimacs else ""
    head = [f"p edge {n} {len(edges)}" if dimacs else f"{n} {len(edges)}"]
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


def _reference(text: str) -> Graph | ParseError:
    """The streaming reference's graph of a file's text as `lexid` reads it, or its ParseError."""
    text = text.removeprefix("\ufeff")
    first = next((line for _, line in ReferenceLines(text)), "1")
    parse = reference_parse_dimacs if first.split()[0] in ("c", "p", "e") else reference_parse_edge_list
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
        want = _reference(read)
        if isinstance(want, ParseError):
            every = "1,2,3"
        else:
            assert parse_graph(read.removeprefix("\ufeff")) == want
            every = ",".join(map(str, range(1, want.n + 1)))
        commands = [["code"], ["code", "--dense"], ["code", "--json"], ["code", "--ordering", "random"],
                    ["verify", "--code", every], ["twins"], ["greedy"], ["minimalize", "--code", every],
                    ["restarts", "--restarts", "3"]]
        for command in commands:
            argv = [command[0], str(path), *command[1:]]
            status, out, err = _run(argv)
            assert status in (0, 1, 2, 3), (argv, status)
            assert err == "" or (err.count("\n") == 1 and err.startswith(("lexid:", "error:"))), (argv, err)
            assert "Traceback" not in err
            if isinstance(want, ParseError):
                assert (status, err) == (1, f"lexid: parse error: {want}\n"), argv
            elif status == 0 and command[0] in ("code", "greedy", "minimalize", "restarts"):
                assert is_identifying_code(want, _printed_code(argv, out)), argv
