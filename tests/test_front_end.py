"""The parsers and Graph against the streaming reference front end, with the
body read in pieces of any size, and the front end's cost: no allocation
sized by n before a view, transient memory of a few pieces, and no per-edge
calls."""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lexid.graphio
from lexid import (
    Graph, ParseError, apply_sequence, find_twins, gnp_graph, grid_graph, is_identifying_code,
    lex_code_dense, lex_code_sparse, parse_dimacs, parse_edge_list, parse_graph, path_graph, to_dimacs,
    to_edge_list,
)
from lexid.cli import main
from lexid.generate import FAMILIES
from lexid.graph import EdgeError, _first_fault
from lexid.graphio import detect_format

from calls import python_calls, traced_peak
from oracles import (
    neighborhood_sets, reference_edge_set, reference_parse_dimacs, reference_parse_edge_list,
    reference_serialization,
)

# Characters str.splitlines() breaks at but graph files do not; all of them are
# whitespace to str.split().
NOT_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SEPARATORS = [" ", "\t", "  ", *NOT_LINE_BREAKS]
BAD_TOKENS = ["x", "1.5", "0x1", "-", "1e3", "+", "2a"]
FAULTS = [
    "token", "count", "swap", "loop", "range", "duplicate", "extra",
    "declared", "vertices", "problem", "edge first", "kind", "delete",
]


def _endpoint_slots(tokens: list[str], dimacs: bool) -> list[int]:
    """Positions of the endpoint tokens of an edge line, or [] for any other line."""
    if dimacs:
        return [1, 2] if len(tokens) == 3 and tokens[0] == "e" else []
    return [0, 1] if len(tokens) == 2 else []


def _inject(draw, fault: str, lines: list[list[str]], n: int, dimacs: bool) -> None:
    """Apply one fault to the token lines in place; lines[0] is the header."""
    if not lines:
        return
    header = len(lines) == 1 or draw(st.integers(0, 4)) == 0
    i = 0 if header else draw(st.integers(1, len(lines) - 1))
    tokens = lines[i]
    slots = _endpoint_slots(tokens, dimacs) if i else []
    if fault == "token" and tokens:
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(BAD_TOKENS))
    elif fault == "count":
        if tokens and draw(st.booleans()):
            tokens.pop(draw(st.integers(0, len(tokens) - 1)))
        else:
            tokens.append(str(draw(st.integers(1, n))))
        if not tokens:
            tokens.append("1")
    elif fault == "swap" and slots:
        tokens[slots[0]], tokens[slots[1]] = tokens[slots[1]], tokens[slots[0]]
    elif fault == "loop" and slots:
        tokens[slots[1]] = tokens[slots[0]]
    elif fault == "range" and slots:
        tokens[draw(st.sampled_from(slots))] = str(draw(st.sampled_from([0, -1, n + 1, n + 5])))
    elif fault == "duplicate" and len(lines) > 1:
        copy = list(lines[draw(st.integers(1, len(lines) - 1))])
        if draw(st.booleans()):
            slots = _endpoint_slots(copy, dimacs)
            if slots:
                copy[slots[0]], copy[slots[1]] = copy[slots[1]], copy[slots[0]]
        lines.insert(draw(st.integers(1, len(lines))), copy)
    elif fault == "extra":
        u, v = sorted(draw(st.lists(st.integers(1, n + 1), min_size=2, max_size=2, unique=True)))
        lines.append(["e", str(u), str(v)] if dimacs else [str(u), str(v)])
    elif fault == "declared" and lines[0]:
        lines[0][-1] = str(draw(st.integers(-1, len(lines) + 1)))
    elif fault == "vertices" and len(lines[0]) >= 2:
        lines[0][-2] = str(draw(st.integers(-1, n)))
    elif fault == "problem":
        lines.insert(draw(st.integers(1, len(lines))), list(lines[0]))
    elif fault == "edge first":
        lines.insert(0, ["e", "1", "2"] if dimacs else ["1", "2"])
    elif fault == "kind" and tokens:
        tokens[0] = draw(st.sampled_from(["q", "p", "c", "e"]))
    elif fault == "delete" and lines:
        del lines[i]


@st.composite
def graph_texts(draw):
    """(format, text): a small graph in either format with up to three injected
    faults, noise lines between its lines, any line-break style and any separators."""
    dimacs = draw(st.booleans())
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9)) if pairs else []
    if dimacs:
        lines = [["p", "edge", str(n), str(len(edges))]]
        lines += [["e", *map(str, draw(st.permutations(e)))] for e in edges]
    else:
        lines = [[str(n), str(len(edges))]] + [[str(u), str(v)] for u, v in edges]
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        _inject(draw, fault, lines, n, dimacs)
    text = st.text(st.sampled_from(["a", "1", " ", "\t", *NOT_LINE_BREAKS]), max_size=4)
    noise = st.one_of(
        st.sampled_from(["", " ", "\t", *NOT_LINE_BREAKS]),
        text.map(lambda t: "#" + t),
        st.tuples(st.sampled_from(["", *SEPARATORS]), text).map(lambda p: "c" + "".join(p))
        if dimacs else st.nothing(),
    )
    out = []
    for tokens in lines:
        out += draw(st.lists(noise, max_size=2))
        lead, sep, trail = (draw(st.sampled_from(["", *SEPARATORS])) for _ in range(3))
        out.append(lead + (sep or " ").join(tokens) + trail)
    out += draw(st.lists(noise, max_size=2))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(out), max_size=len(out)))
    if ends and draw(st.booleans()):
        ends[-1] = ""
    native, other = ("dimacs", "edgelist") if dimacs else ("edgelist", "dimacs")
    fmt = draw(st.sampled_from([native, native, native, other]))
    return fmt, "".join(line + end for line, end in zip(out, ends))


def _reference(fmt: str, text: str):
    return (reference_parse_dimacs if fmt == "dimacs" else reference_parse_edge_list)(text)


@settings(max_examples=400)
@given(graph_texts())
def test_parsers_agree_with_the_streaming_reference(case):
    fmt, text = case
    try:
        n, edges = _reference(fmt, text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            parse_graph(text, fmt)
        assert (str(info.value), info.value.line) == (str(exc), exc.line)
    else:
        g = parse_graph(text, fmt)
        assert (g.n, g.edges) == (n, edges)


# Bodies the bulk parsers' line-end markers must judge as the per-line rules
# do: token counts that balance out over two lines, a literal ';' token, no
# edge line at all, and a last line with no line break.  The generator above
# draws these only rarely.
LINE_RULE_CASES = [
    ("edgelist", "5 2\n1 2 3\n4"),
    ("edgelist", "5 2\n1\n2 3 4"),
    ("edgelist", "5 3\n1 2 3\n# x\n4\n3 5"),
    ("edgelist", "3 1\n1 ;"),
    ("edgelist", "3 1\n; 2"),
    ("edgelist", "3 2\n1 ;\n2 3"),
    ("edgelist", "3 2\n1 2 ;\n3"),
    ("edgelist", "3 2\n1\n; 2 3"),
    ("dimacs", "p edge 5 2\ne 1 2 e\n3 4"),
    ("dimacs", "p edge 5 2\ne 1 2 e\nc x\n3 4"),
    ("dimacs", "p edge 3 1\ne ; 2"),
    ("dimacs", "p edge 3 1\ne 1 ;"),
    ("dimacs", "p edge 3 1\n; 1 2"),
    ("dimacs", "p edge 3 2\ne 1 2 ;\ne 3"),
    ("edgelist", "3 0"),
    ("edgelist", "3 0\n\n# x\n"),
    ("edgelist", "3 1\n# x\n"),
    ("dimacs", "p edge 3 0"),
    ("dimacs", "p edge 3 0\nc x\n"),
    ("dimacs", "p edge 3 1\nc x"),
    ("edgelist", "3 1\n1 2"),
    ("edgelist", "3 2\n1 2\n2 3 "),
    ("edgelist", "3 1\n1 2 3"),
    ("dimacs", "p edge 3 1\ne 2 1"),
    ("dimacs", "p edge 3 2\ne 1 2\ne 3 2\t"),
    ("dimacs", "p edge 3 1\ne 1 2 3"),
]


@pytest.mark.parametrize("fmt, text", LINE_RULE_CASES)
def test_the_bulk_parse_keeps_the_line_rules(fmt, text):
    try:
        n, edges = _reference(fmt, text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            parse_graph(text, fmt)
        assert (str(info.value), info.value.line) == (str(exc), exc.line)
    else:
        g = parse_graph(text, fmt)
        assert (g.n, g.edges) == (n, edges)


@settings(max_examples=200)
@given(graph_texts(), st.integers(1, 8))
def test_pieces_of_a_few_characters_keep_the_reference_results(case, piece_chars):
    # most line ends, blank, '#' and 'c' lines now fall on or across a piece boundary
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lexid.graphio, "PIECE_CHARS", piece_chars)
        test_parsers_agree_with_the_streaming_reference.hypothesis.inner_test(case)


@pytest.mark.parametrize("piece_chars", [1, 2, 3, 5])
def test_pieces_of_a_few_characters_keep_the_line_rules(monkeypatch, piece_chars):
    monkeypatch.setattr(lexid.graphio, "PIECE_CHARS", piece_chars)
    for fmt, text in LINE_RULE_CASES:
        test_the_bulk_parse_keeps_the_line_rules(fmt, text)


def _many_piece_text(fmt: str, fault: str) -> str:
    """A path on 20000 vertices, more than three pieces long, with one fault
    on its last line."""
    n = 20000
    dimacs = fmt == "dimacs"
    tag = "e " if dimacs else ""
    lines = [f"{tag}{v} {v + 1}" for v in range(1, n)]
    m = len(lines)
    if fault == "duplicate":
        lines[-1] = lines[0]
    elif fault == "reversed":
        lines[-1] = f"{tag}{n} {n - 1}"
    elif fault == "self-loop":
        lines[-1] = f"{tag}{n} {n}"
    elif fault == "token":
        lines[-1] = f"{tag}{n - 1} x"
    elif fault == "extra":
        lines.append(f"{tag}1 3")
    elif fault == "count":
        m += 1
    return "\n".join([f"p edge {n} {m}" if dimacs else f"{n} {m}", *lines])


@pytest.mark.parametrize("fault", ["duplicate", "reversed", "self-loop", "token", "extra", "count"])
@pytest.mark.parametrize("fmt", ["edgelist", "dimacs"])
def test_a_fault_in_the_last_piece_is_named_at_its_line(fmt, fault):
    text = _many_piece_text(fmt, fault)
    last_line = text.count("\n") + 1
    assert text.find("\n", 1) < lexid.graphio.PIECE_CHARS  # the first edge line is in the first piece
    assert text.rfind("\n") > 3 * lexid.graphio.PIECE_CHARS  # the last is in a fourth piece or later
    if (fmt, fault) == ("dimacs", "reversed"):  # DIMACS takes either order
        assert parse_graph(text, fmt).n == 20000
    else:
        with pytest.raises(ParseError) as info:
            _reference(fmt, text)
        assert info.value.line == last_line
    test_the_bulk_parse_keeps_the_line_rules(fmt, text)


def _refuse_the_line_walks(monkeypatch) -> None:
    """Make the per-line rules of both formats fail the test if a body reaches them."""
    def refuse(*args, **kwargs):
        raise AssertionError("line walk reached")

    monkeypatch.setattr(lexid.graphio, "_edge_list_walk", refuse)
    monkeypatch.setattr(lexid.graphio, "_dimacs_walk", refuse)


@pytest.mark.parametrize("final_break", [True, False])
@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("serialize", [to_edge_list, to_dimacs])
def test_a_canonical_body_never_reaches_the_line_walk(monkeypatch, serialize, line_end, final_break):
    # every piece of a canonical file goes through the JSON scanner, the last
    # one too, whether the file ends with a line break or not; the path gets no
    # table of labels, G(512, 0.29) gets one
    _refuse_the_line_walks(monkeypatch)
    for g in (path_graph(20000), gnp_graph(512, 0.29, seed=0)):
        text = serialize(g).replace("\n", line_end)
        if not final_break:
            text = text[:-len(line_end)]
        assert len(text) > 3 * lexid.graphio.PIECE_CHARS
        assert parse_graph(text) == g


@pytest.mark.parametrize("auto", [True, False])
@pytest.mark.parametrize("line_end", ["\r\n", "\r"])
@pytest.mark.parametrize("serialize", [to_edge_list, to_dimacs])
def test_a_file_with_cr_line_breaks_is_normalized_once(monkeypatch, serialize, line_end, auto):
    # detect_format and the parser find the text parse_graph normalized and
    # copy nothing more; each copy is a call that returns a new string
    g = gnp_graph(64, 0.2, seed=0)
    normalized, copies = lexid.graphio._normalized, []

    def counted(piece):
        out = normalized(piece)
        if out is not piece:
            copies.append(out)
        return out

    monkeypatch.setattr(lexid.graphio, "_normalized", counted)
    fmt = "auto" if auto else "dimacs" if serialize is to_dimacs else "edgelist"
    assert parse_graph(serialize(g).replace("\n", line_end), fmt) == g
    assert copies == [serialize(g)]


@pytest.mark.parametrize("line_end", ["\r\n", "\r"])
@pytest.mark.parametrize("serialize, parse, fmt", [(to_edge_list, parse_edge_list, "edgelist"),
                                                   (to_dimacs, parse_dimacs, "dimacs")])
def test_the_parsers_and_detect_format_take_cr_line_breaks_on_their_own(serialize, parse, fmt, line_end):
    g = gnp_graph(64, 0.2, seed=0)
    text = ("c a comment\n" if fmt == "dimacs" else "# a comment\n") + serialize(g)
    text = text.replace("\n", line_end)
    assert detect_format(text) == fmt
    assert parse(text) == g
    # a fault is named at its line of the un-normalized text: after the comment, the header and the edges
    with pytest.raises(ParseError) as info:
        parse(text + ("e 1 x" if fmt == "dimacs" else "1 x") + line_end)
    assert info.value.line == len(g.edges) + 3


# Bodies with blank lines, whitespace-only lines, '#' lines, DIMACS 'c' lines
# and literal ';' tokens, which the pieces holding them must filter or refuse
# as the per-line rules do.  In the last case of each format, a literal ';' and
# the marker of a whitespace-only line keep the token count and the slots
# right, so only the conversion to ints refuses the piece.
NOISY_BODY_CASES = [
    ("edgelist", "4 3\n1 2\n\n2 3\n3 4\n"),
    ("edgelist", "4 3\n1 2\n \n2 3\n\v\n3 4"),
    ("edgelist", "4 3\n\x1c\n1 2\n2 3\n\u2028\n3 4\n\n"),
    ("edgelist", "4 3\n1 2\n# a ; b\n2 3\n  #\n3 4\n# c"),
    ("edgelist", "4 3\n1 2\n\n2 1\n3 4"),
    ("edgelist", "4 3\n1 2\n# x\n1 2\n3 4"),
    ("edgelist", "4 3\n1 2\n\v\n2 3\n3 4\n\n4 1"),
    ("edgelist", "4 3\n1 2\n2 ; 3\n3 4"),
    ("edgelist", "4 3\n1 2\n\n2 3 ;\n3 4"),
    ("edgelist", "4 2\n1 2 ; 3\n \n3 4"),
    ("dimacs", "p edge 4 3\nc x\ne 1 2\ne 3 2\nc\ne 4 3\n"),
    ("dimacs", "p edge 4 3\ne 1 2\n\x1c\ne 3 2\n\u2028\ne 4 3\n \n"),
    ("dimacs", "p edge 4 3\ne 1 2\nc ; x\n# y\ne 2 3\n\v\ne 4 3"),
    ("dimacs", "p edge 4 3\ne 1 2\n\ne 2 ;\ne 3 4"),
    ("dimacs", "p edge 4 3\ne 1 2\nc\ne 2 1\ne 3 4"),
    ("dimacs", "p edge 4 3\ne 1 2\n\nc x\ne 2 3\nc 3 4\n"),
    ("dimacs", "p edge 4 2\ne 1 2 ; e 3\n \ne 3 4"),
]


@pytest.mark.parametrize("piece_chars", [None, *range(1, 9)])
def test_noisy_bodies_keep_the_reference_results(monkeypatch, piece_chars):
    if piece_chars is not None:
        monkeypatch.setattr(lexid.graphio, "PIECE_CHARS", piece_chars)
    for fmt, text in NOISY_BODY_CASES:
        test_the_bulk_parse_keeps_the_line_rules(fmt, text)


# Lines the JSON scanner must leave to the line walk, in graphs with no table
# of labels, whose other lines it reads: endpoints that int() takes and JSON
# refuses ('01', '00', '+1', '1_0', an Arabic-Indic three), JSON values that
# are not vertices, tokens of 4300 digits (int()'s limit) and 4301, and lines
# that are not canonical.
SPELLINGS = ["01", "00", "+1", "1_0", "\u0663", "null", "true", "-0", "1E3", "[1]", "9" * 4300, "9" * 4301]
NOT_CANONICAL_LINES = ["2 3", "2  3", " 2 3", "2 3 ", "2\t3", "e  2 3", "e 2 3 ", "E 2 3", "e2 3", "e 2\t3", "e 2 e3"]
SPELLING_CASES = [
    *((fmt, text) for s in SPELLINGS for fmt, text in [
        ("edgelist", f"12 3\n1 2\n{s} 11\n3 4\n"),
        ("edgelist", f"12 3\n1 2\n3 4\n2 {s}"),
        ("dimacs", f"p edge 12 3\ne 1 2\ne 11 {s}\ne 3 4\n"),
        ("dimacs", f"p edge 12 3\ne 1 2\ne 3 4\ne {s} 2"),
    ]),
    *((fmt, text) for line in NOT_CANONICAL_LINES for fmt, text in [
        ("edgelist", f"4 3\n1 2\n{line}\n3 4\n"),
        ("edgelist", f"4 3\n1 2\n3 4\n{line}"),
        ("dimacs", f"p edge 4 3\ne 1 2\n{line}\ne 3 4\n"),
        ("dimacs", f"p edge 4 3\ne 1 2\ne 3 4\n{line}"),
    ]),
]


@pytest.mark.parametrize("piece_chars", [None, *range(1, 9)])
def test_spellings_off_the_json_route_keep_the_reference_results(monkeypatch, piece_chars):
    if piece_chars is not None:
        monkeypatch.setattr(lexid.graphio, "PIECE_CHARS", piece_chars)
    for fmt, text in SPELLING_CASES:
        test_the_bulk_parse_keeps_the_line_rules(fmt, text)


@pytest.mark.parametrize("output_format", ["edgelist", "dimacs"])
def test_the_output_of_gen_never_reaches_the_line_walk(capsys, output_format):
    # path, cycle and grid get no table of labels; gnp and the hypercube get one
    families = [["path", "20000"], ["cycle", "20000"], ["grid", "100", "100"], ["gnp", "512", "0.29"],
                ["hypercube", "10"], ["fixture"]]
    assert {family[0] for family in families} == {*FAMILIES, "fixture"}
    tables = []
    for family in families:
        assert main(["gen", *family, "--output-format", output_format]) == 0
        text, err = capsys.readouterr()
        assert err == ""
        want = parse_graph(text)
        tables.append(lexid.graphio._labels(want.n, len(want.edges)) is not None)
        with pytest.MonkeyPatch.context() as patch:
            _refuse_the_line_walks(patch)
            assert parse_graph(text) == want
    assert tables == [False, False, False, True, True, False]


@pytest.mark.parametrize("serialize", [to_edge_list, to_dimacs])
def test_a_label_table_graph_is_scanned_to_one_int_per_label(monkeypatch, serialize):
    _refuse_the_line_walks(monkeypatch)
    g = gnp_graph(512, 0.29, seed=0)
    assert lexid.graphio._labels(g.n, len(g.edges)) is not None
    parsed = parse_graph(serialize(g))
    assert parsed == g
    assert len(set(map(id, parsed._us + parsed._vs))) <= g.n + 1


@pytest.mark.parametrize("at", ["first", "middle", "last"])
@pytest.mark.parametrize("endpoint", ["0", "n + 1"])
@pytest.mark.parametrize("fmt", ["edgelist", "dimacs"])
def test_a_label_table_graph_with_an_endpoint_out_of_range_gets_the_reference_line(fmt, endpoint, at):
    # the table holds the labels 0..n: a 0 is looked up and Graph refuses it,
    # an n + 1 is refused by the scanner and its piece goes through the walk;
    # G(300, 0.2) takes two pieces
    g = gnp_graph(300, 0.2, seed=3)
    n = g.n
    lines = (to_dimacs if fmt == "dimacs" else to_edge_list)(g).split("\n")
    assert lexid.graphio._labels(n, len(g.edges)) is not None
    i = {"first": 1, "middle": len(lines) // 2, "last": len(lines) - 2}[at]
    tokens = lines[i].split(" ")
    if endpoint == "0":
        tokens[-2] = "0"
    else:
        tokens[-1] = str(n + 1)
    lines[i] = " ".join(tokens)
    text = "\n".join(lines)
    assert len(text) > lexid.graphio.PIECE_CHARS
    with pytest.raises(ParseError) as want:
        _reference(fmt, text)
    assert want.value.line == i + 1
    test_the_bulk_parse_keeps_the_line_rules(fmt, text)


@st.composite
def pair_lists(draw):
    """(n, pairs): short lists of mostly int pairs, with bools, floats, wrong-length
    items, self-loops, out-of-range endpoints and duplicates in either orientation."""
    n = draw(st.integers(1, 6))
    endpoint = st.one_of(st.integers(-1, n + 2), st.sampled_from([True, False, 1.0]))
    pair = st.one_of(
        st.tuples(st.integers(1, n), st.integers(1, n)),
        st.tuples(endpoint, endpoint),
        st.lists(st.integers(1, n), min_size=1, max_size=3).map(tuple),
        st.lists(st.integers(1, n), min_size=2, max_size=2),
    )
    return n, draw(st.lists(pair, max_size=10))


@settings(max_examples=400)
@given(pair_lists(), st.booleans())
def test_graph_agrees_with_the_per_pair_rules(case, as_iterator):
    n, pairs = case
    edges = iter(pairs) if as_iterator else pairs
    try:
        want = reference_edge_set(n, list(pairs))
    except (ValueError, TypeError) as exc:
        with pytest.raises(type(exc)) as info:
            Graph(n, edges)
        assert str(info.value) == str(exc)
    else:
        assert Graph(n, edges).edges == want


@st.composite
def endpoint_lists(draw):
    """(n, us, vs): equal-length lists of int endpoints, drawn as pair_lists
    draws its int endpoints."""
    n = draw(st.integers(1, 6))
    endpoint = st.integers(-1, n + 2)
    pair = st.one_of(st.tuples(st.integers(1, n), st.integers(1, n)), st.tuples(endpoint, endpoint))
    pairs = draw(st.lists(pair, max_size=10))
    return n, [u for u, _ in pairs], [v for _, v in pairs]


@settings(max_examples=400)
@given(endpoint_lists())
def test_from_endpoints_agrees_with_the_constructor(case):
    n, us, vs = case
    try:
        want = Graph(n, list(zip(us, vs)))
    except ValueError as exc:
        with pytest.raises(type(exc)) as info:
            Graph._from_int_endpoints(n, list(us), list(vs))
        assert str(info.value) == str(exc)
        assert getattr(info.value, "index", None) == getattr(exc, "index", None)
    else:
        g = Graph._from_int_endpoints(n, list(us), list(vs))
        assert (g.n, g.pairs, g.edges) == (want.n, want.pairs, want.edges)


@settings(max_examples=200, derandomize=True)
@given(st.integers(2, 12), st.data(), st.sampled_from(["0", "n + 1"]), st.booleans(), st.booleans())
def test_an_endpoint_out_of_range_is_named_as_the_per_pair_walk_names_it(n, data, bad, flip, increasing):
    # both branches of the bulk range check: one us[0] and one max(vs) pass on
    # pairs that increase, min(us) and max(vs) before the sort on any others
    edges = sorted(data.draw(st.sets(st.sampled_from(list(combinations(range(1, n + 1), 2))))))
    other = data.draw(st.integers(1, n))
    fault = (0, other) if bad == "0" else (other, n + 1)
    if increasing:
        pairs = sorted([*edges, fault])
    else:
        pairs = data.draw(st.permutations([*edges, fault]))
        assume(pairs != sorted(pairs))
    at = pairs.index(fault)
    if flip:
        pairs[at] = fault[::-1]
    want = _first_fault(n, pairs)
    assert (want.index, str(want)) == (at, f"edge {pairs[at]} has an endpoint outside 1..{n}")
    us, vs = [u for u, _ in pairs], [v for _, v in pairs]
    builds = [lambda: Graph(n, pairs), lambda: Graph(n, iter(pairs)),
              lambda: Graph._from_int_endpoints(n, list(us), list(vs))]
    if not flip:  # every pair is u < v, as a caller of `oriented` vouches
        builds.append(lambda: Graph._from_int_endpoints(n, list(us), list(vs), oriented=True))
    for build in builds:
        with pytest.raises(EdgeError) as info:
            build()
        assert (info.value.index, str(info.value)) == (want.index, str(want))


def test_graph_keeps_no_second_copy_of_each_edge():
    # two endpoint lists that point at the caller's ints: no tuple or set per edge
    pairs = [(u, v) for u in range(1, 400) for v in range(u + 1, 400, 7)]
    assert len(pairs) >= 10000
    _, live = traced_peak(lambda: Graph(400, pairs))
    assert live <= 24 * len(pairs)
    text = to_edge_list(gnp_graph(512, 0.29, seed=0))
    _, live = traced_peak(lambda: parse_graph(text))
    assert live < 2**20


def _first_repeat(pairs: list[tuple[int, int]]) -> int | None:
    """Index of the first pair whose edge came before, in either orientation."""
    seen = set()
    for index, (u, v) in enumerate(pairs):
        if (min(u, v), max(u, v)) in seen:
            return index
        seen.add((min(u, v), max(u, v)))
    return None


def _text(n: int, pairs: list[tuple[int, int]], dimacs: bool) -> str:
    tag = "e " if dimacs else ""
    head = f"p edge {n} {len(pairs)}" if dimacs else f"{n} {len(pairs)}"
    return "\n".join([head, *(f"{tag}{u} {v}" for u, v in pairs)]) + "\n"


def _builds(n: int, pairs: list[tuple[int, int]]) -> list:
    """Each way to hand the pairs, in order, to Graph: as given, as two
    endpoint lists, and as files, an edge list only when every u < v."""
    builds = [lambda: Graph(n, pairs), lambda: Graph(n, iter(pairs)),
              lambda: Graph._from_int_endpoints(n, [u for u, _ in pairs], [v for _, v in pairs]),
              lambda: parse_graph(_text(n, pairs, True), "dimacs")]
    if all(u < v for u, v in pairs):
        builds.append(lambda: parse_graph(_text(n, pairs, False), "edgelist"))
    return builds


@st.composite
def edge_orders(draw):
    """(n, edges, copy): a sorted edge set and a copy of it, sorted or
    shuffled, with some pairs flipped, or with one duplicate put next to its
    twin or anywhere."""
    n = draw(st.integers(2, 12))
    edges = sorted(draw(st.sets(st.sampled_from(list(combinations(range(1, n + 1), 2))), min_size=1)))
    copy = draw(st.permutations(edges)) if draw(st.booleans()) else list(edges)
    kind = draw(st.sampled_from(["flip", "twin", "anywhere", "none"]))
    if kind == "flip":
        copy = [(v, u) if draw(st.booleans()) else (u, v) for u, v in copy]
    elif kind != "none":
        i = draw(st.integers(0, len(copy) - 1))
        at = i + 1 if kind == "twin" else draw(st.integers(0, len(copy)))
        copy.insert(at, copy[i][::-1] if draw(st.booleans()) else copy[i])
    return n, edges, copy


@settings(max_examples=150)
@given(edge_orders())
def test_the_increasing_check_and_the_duplicate_set_agree(case):
    n, edges, copy = case
    repeat = _first_repeat(copy)
    if repeat is not None:
        with pytest.raises(ValueError) as want:
            reference_edge_set(n, copy)
        for build in _builds(n, copy):
            with pytest.raises((EdgeError, ParseError)) as info:
                build()
            where = info.value.index if isinstance(info.value, EdgeError) else info.value.line - 2
            assert (str(info.value).removeprefix(f"line {repeat + 2}: "), where) == (str(want.value), repeat)
        return
    lists = tuple(tuple(sorted(members)) for members in neighborhood_sets(Graph(n, edges)).values())
    for build in _builds(n, copy):
        g = build()
        assert list(zip(g._us, g._vs)) == edges  # edges is the sorted edge set: the pairs strictly increase
        assert (g.n, g.edges) == (n, frozenset(edges))
        assert g.degrees[1:] == tuple(len(members) - 1 for members in lists)
        assert g.neighborhood_array._lists[1:] == lists
        assert to_edge_list(g) == reference_serialization(g, dimacs=False)
        assert to_dimacs(g) == reference_serialization(g, dimacs=True)
        assert g.pairs == tuple(edges)
        assert repr(g) == f"Graph(n={n}, pairs={tuple(edges)!r})"
        assert g == Graph(n, edges) and hash(g) == hash((n, frozenset(edges)))


@pytest.mark.parametrize("fault", [None, "duplicate", "self-loop", "range"])
def test_every_pair_reversed_builds_what_the_forward_pairs_build(fault):
    # the orientation pass runs on every pair: a DIMACS file of 'e v u' lines
    # and Graph given (v, u) pairs
    n = 60
    forward = list(gnp_graph(n, 0.2, seed=5).pairs)
    at = len(forward) // 2
    forward.insert(at, {None: (n - 1, n), "duplicate": forward[7], "self-loop": (9, 9), "range": (3, n + 1)}[fault])
    reversed_pairs = [(v, u) for u, v in forward]
    outcomes = []
    for pairs in (forward, reversed_pairs):
        for build in _builds(n, pairs)[:4]:  # the edge-list format refuses u > v, so no edge-list file
            try:
                g = build()
            except (EdgeError, ParseError) as exc:
                where = exc.index if isinstance(exc, EdgeError) else exc.line - 2
                outcomes.append((type(exc), where, str(exc) if fault != "range" else None))
            else:
                assert list(zip(g._us, g._vs)) == sorted(set(zip(g._us, g._vs)))  # strictly increasing
                outcomes.append((g.n, g.pairs, repr(g)))
    assert outcomes == outcomes[:4] * 2
    if fault is None:
        assert outcomes[0][1] == tuple(sorted(forward))
        assert outcomes[0][2] == f"Graph(n={n}, pairs={tuple(sorted(forward))!r})"
    else:
        assert [where for _, where, _ in outcomes] == [at] * 8


@pytest.mark.parametrize("build", ["Graph", "parse"])
def test_an_unsorted_input_is_decoded_to_one_int_per_vertex(build):
    # fresh ints for every endpoint, past the small ints the interpreter shares
    g = grid_graph(30, 30)
    pairs = [(int(str(v)), int(str(u))) for u, v in reversed(g.pairs)]
    built = Graph(g.n, pairs) if build == "Graph" else parse_graph(_text(g.n, pairs, True), "dimacs")
    assert built.pairs == g.pairs
    assert len(set(map(id, built._us + built._vs))) <= g.n


def test_nothing_reads_the_pairs_tuple(monkeypatch, tmp_path, capsys):
    def refuse(self):
        raise AssertionError("Graph.pairs read")

    monkeypatch.setattr(Graph, "pairs", property(refuse))
    g = parse_graph(to_edge_list(gnp_graph(40, 0.3, seed=1)))
    assert find_twins(g) is None
    assert sum(g.degrees) == 2 * len(g.edges)
    code = lex_code_sparse(g.neighborhood_array)
    assert lex_code_dense(g.neighborhood_matrix) == code
    assert is_identifying_code(g, code)
    sequence = list(range(g.n, 0, -1))
    relabeled = apply_sequence(g, sequence)
    assert parse_graph(to_dimacs(relabeled)) == relabeled
    assert parse_graph(to_edge_list(Graph(g.n, sorted(g.edges, reverse=True)))) == g
    path = tmp_path / "g.txt"
    path.write_text(to_edge_list(g))
    assert main(["code", "--json", str(path)]) == 0
    assert main(["gen", "gnp", "30", "0.2", "--seed", "4"]) == 0
    capsys.readouterr()


@st.composite
def dense_texts(draw):
    """(format, text) of a graph dense enough that the parser looks its
    endpoints up in its table of labels, with any line-break style."""
    g = gnp_graph(draw(st.integers(16, 40)), draw(st.sampled_from([0.7, 1.0])), draw(st.integers(0, 9)))
    fmt = draw(st.sampled_from(["edgelist", "dimacs"]))
    text = (to_dimacs if fmt == "dimacs" else to_edge_list)(g)
    return fmt, text.replace("\n", draw(st.sampled_from(["\n", "\r\n", "\r"])))


@settings(max_examples=200)
@given(st.one_of(graph_texts(), dense_texts()))
def test_the_parsers_hand_graph_only_exact_ints(case):
    fmt, text = case
    entry = Graph._from_int_endpoints.__func__
    handed = []

    def recording(cls, n, us, vs, oriented=False):
        handed.extend(map(type, [n, *us, *vs]))
        return entry(cls, n, us, vs, oriented)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Graph, "_from_int_endpoints", classmethod(recording))
        try:
            parse_graph(text, fmt)
        except ParseError:
            pass
    assert set(handed) <= {int}


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_the_public_entries_keep_the_type_rule(bad):
    us, vs = [1, 2, bad], [2, 3, 3]
    for build in (lambda: Graph(3, list(zip(us, vs))), lambda: Graph(3, zip(us, vs))):
        with pytest.raises(EdgeError) as info:
            build()
        assert (str(info.value), info.value.index) == (f"edge endpoints must be integers, got ({bad!r}, 3)", 2)


@pytest.mark.parametrize("text", ["1000000 0", "p edge 1000000 0"])
def test_a_huge_header_allocates_nothing_sized_by_n(text):
    peak, _ = traced_peak(lambda: parse_graph(text))
    assert parse_graph(text).n == 1000000
    assert peak < 2**20


@pytest.mark.parametrize("serialize, graph, bound", [
    pytest.param(to_edge_list, "gnp", 4.5 * 2**20, id="to_edge_list"),
    pytest.param(to_dimacs, "gnp", 4.5 * 2**20, id="to_dimacs"),
    pytest.param(to_edge_list, "grid", 0.5 * 2**20, id="to_edge_list-no-table"),
    pytest.param(to_dimacs, "grid", 0.5 * 2**20, id="to_dimacs-no-table"),
])
def test_the_parse_holds_little_beyond_the_graph(serialize, graph, bound):
    # G(512, 0.29), 38k edges in a 0.3 MB text: the transient bytes are ~3.2 MiB,
    # most of them Graph's own checks; a whole-file tokenization took ~6.3 MiB.
    # The 64x64 grid, 8064 edges, gets no table of labels and is read by the
    # JSON scanner: ~0.21 MiB transient (edge list) and ~0.25 MiB (DIMACS),
    # where its split() tokens took ~1.02 and ~0.73 MiB
    g = gnp_graph(512, 0.29, seed=0) if graph == "gnp" else grid_graph(64, 64)
    text = serialize(g)
    peak, live = traced_peak(lambda: parse_graph(text))
    assert peak - live < bound


def test_minimum_refuses_a_huge_header_before_any_view(tmp_path, capsys):
    # a view of this graph would need tens of GB; the cap must refuse it first
    path = tmp_path / "huge.txt"
    path.write_text("1000000000 0")
    assert main(["minimum", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "lexid: error: exact search refused for n=1000000000 > cap 24; raise max_vertices to force\n"
    )


@pytest.mark.parametrize("serialize, graph", [
    pytest.param(to_edge_list, "gnp", id="to_edge_list"),
    pytest.param(to_dimacs, "gnp", id="to_dimacs"),
    pytest.param(to_edge_list, "grid", id="to_edge_list-no-table"),
    pytest.param(to_dimacs, "grid", id="to_dimacs-no-table"),
])
def test_the_front_end_makes_no_call_per_edge(serialize, graph):
    # G(300, 0.2) gets a table of labels and the 64x64 grid does not; the
    # pieces of both go through the JSON scanner
    g = gnp_graph(300, 0.2, seed=3) if graph == "gnp" else grid_graph(64, 64)
    text = serialize(g)
    m = len(g.edges)
    assert m > 8000
    assert (lexid.graphio._labels(g.n, m) is None) == (graph == "grid")
    parse_graph(text)  # the first call's one-time costs are not counted
    calls = python_calls(lambda: parse_graph(text).neighborhood_array)
    assert calls < m / 100
