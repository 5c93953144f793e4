import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lexid.graphio
from lexid import (
    Graph,
    ParseError,
    SplitMix64,
    cycle_graph,
    find_twins,
    gen,
    gnp_graph,
    grid_graph,
    hypercube_graph,
    nonminimal_grid_fixture,
    parse_dimacs,
    parse_edge_list,
    parse_graph,
    path_graph,
    to_dimacs,
    to_edge_list,
)
from lexid.graph import EdgeError
from lexid.graphio import detect_format

from corpus import graphs, small_corpus
from oracles import ReferenceLines, reference_gnp, reference_serialization

# p at the edges of the float grid the draws live on: draws are k * 2**-53
GRID_PS = [0.0, 5e-324, 2**-53, 1 - 2**-53, 1.0] + [
    q for k in (1, 3, 2**52 - 1, 2**52, 0x1234_5678_9ABC_D, 2**53 - 1)
    for q in (k / 2**53, math.nextafter(k / 2**53, 0), math.nextafter(k / 2**53, 1))
]
SEEDS = [0, 2**64 - 1, 2**64, 2**64 + 7, 2**80 + 3, -1, -(2**64) - 5]

FIXTURE_EDGES = {
    (1, 2), (2, 9), (3, 4), (3, 8), (6, 7), (5, 7),
    (1, 4), (4, 6), (2, 3), (3, 7), (8, 9), (5, 8),
}


class TestParseEdgeList:
    def test_p3(self):
        assert parse_edge_list("3 2\n1 2\n2 3") == path_graph(3)

    def test_single_vertex(self):
        assert parse_edge_list("1 0") == Graph(1)

    def test_self_loop_reports_line(self):
        with pytest.raises(ParseError, match="self-loop") as info:
            parse_edge_list("2 1\n1 1")
        assert info.value.line == 2

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ParseError, match="u < v"):
            parse_edge_list("3 1\n2 1")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_edge_list("3 2\n1 2\n1 2")

    def test_count_mismatch(self):
        with pytest.raises(ParseError, match="declares 2"):
            parse_edge_list("3 2\n1 2")

    def test_extra_line(self):
        with pytest.raises(ParseError, match="extra"):
            parse_edge_list("3 1\n1 2\n2 3")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_edge_list("")

    def test_non_integer_token(self):
        with pytest.raises(ParseError, match="integer"):
            parse_edge_list("3 x")

    def test_comments_blanks_and_crlf(self):
        text = "# a comment\r\n\r\n3 2\r\n1 2\r\n\r\n# eof\r\n2 3\r\n"
        assert parse_edge_list(text) == path_graph(3)


class TestParseDimacs:
    def test_p3(self):
        assert parse_dimacs("p edge 3 2\ne 1 2\ne 2 3") == path_graph(3)

    def test_comment_then_single_vertex(self):
        assert parse_dimacs("c comment\np edge 1 0") == Graph(1)

    def test_edge_before_problem_line(self):
        with pytest.raises(ParseError, match="before problem"):
            parse_dimacs("e 1 2")

    def test_duplicate_problem_line(self):
        with pytest.raises(ParseError, match="duplicate problem"):
            parse_dimacs("p edge 2 0\np edge 2 0")

    def test_unknown_line_type(self):
        with pytest.raises(ParseError, match="unknown"):
            parse_dimacs("p edge 2 0\nq 1 2")

    def test_either_endpoint_order_accepted(self):
        assert parse_dimacs("p edge 3 2\ne 2 1\ne 2 3") == path_graph(3)

    def test_duplicate_across_orientations(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_dimacs("p edge 3 2\ne 1 2\ne 2 1")


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 0", "line 1: vertex count must be >= 1, got 0"),
        ("3 -1", "line 1: edge count must be >= 0, got -1"),
        ("3 1\n\n2 2", "line 3: self-loop at vertex 2"),
        ("3 1\n1 4", "line 2: edge (1, 4) has an endpoint outside 1..3"),
        ("3 1\n0 2", "line 2: edge (0, 2) has an endpoint outside 1..3"),
        ("3 2\n1 2\n1 2", "line 3: duplicate edge (1, 2)"),
        ("p edge 0 0", "line 1: vertex count must be >= 1, got 0"),
        ("p edge 3 -1", "line 1: edge count must be >= 0, got -1"),
        ("c x\np edge 3 1\ne 2 2", "line 3: self-loop at vertex 2"),
        ("p edge 3 1\ne 4 1", "line 2: edge (4, 1) has an endpoint outside 1..3"),
        ("p edge 3 2\ne 1 2\ne 2 1", "line 3: duplicate edge (1, 2)"),
        ("3", "line 1: header must be 'n m', got '3'"),
        ("3 1\n1 2 3", "line 2: edge line must be 'u v', got '1 2 3'"),
        ("c x\nc y", "missing 'p edge n m' problem line"),
        ("c x\nq 1 2", "line 2: unknown line type 'q'"),
        ("p edge 3", "line 1: problem line must be 'p edge n m', got 'p edge 3'"),
        ("p edge 3 1\ne 1", "line 2: edge line must be 'e u v', got 'e 1'"),
    ],
)
def test_shared_checks_report_exact_message_and_line(text, message):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 3\n1 2\n1 2\nx y", "line 3: duplicate edge (1, 2)"),
        ("3 1\n1 1\n2 3", "line 2: self-loop at vertex 1"),
        ("p edge 3 2\ne 1 1\nq", "line 2: self-loop at vertex 1"),
        ("3 2\n1 2\n# tail\n", "line 2: header declares 2 edges but 1 found"),
        ("p edge 3 2\ne 1 2\nc tail", "line 3: problem line declares 2 edges but 1 found"),
        ("3 1", "line 1: header declares 1 edges but 0 found"),
    ],
)
def test_first_fault_in_file_order_and_count_mismatch_line(text, message):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert str(info.value) == message


def test_cr_only_line_endings():
    assert parse_edge_list("3 2\r1 2\r2 3\r") == path_graph(3)


# Characters str.splitlines() breaks at but graph files do not: only LF, CRLF
# and CR end a line.
NOT_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_LINE_BREAKS)
class TestLineBreaks:
    def test_edge_list_comment(self, char):
        assert parse_edge_list(f"# a{char}b\n3 1\n1 2") == Graph(3, [(1, 2)])
        with pytest.raises(ParseError) as info:
            parse_edge_list(f"# a{char}b\n3 1\n1 1")
        assert str(info.value) == "line 3: self-loop at vertex 1"

    def test_dimacs_comment(self, char):
        assert parse_dimacs(f"c a{char}b\np edge 3 1\ne 1 2") == Graph(3, [(1, 2)])
        with pytest.raises(ParseError) as info:
            parse_dimacs(f"c a{char}b\np edge 3 1\ne 1 1")
        assert str(info.value) == "line 3: self-loop at vertex 1"


class TestGraphIsTheEdgeValidator:
    """The parsers check the file format only; Graph checks every edge rule."""

    class RecordingGraph:
        def __init__(self, n, edges):
            self.n = n
            self.edges = list(edges)

        @classmethod
        def from_endpoints(cls, n, us, vs):
            return cls(n, zip(us, vs))

        @classmethod
        def _from_int_endpoints(cls, n, us, vs, oriented=False):
            return cls(n, zip(us, vs))

    class FailingAtIndexOne:
        def __init__(self, n, edges):
            raise EdgeError("x", 1)

        @classmethod
        def from_endpoints(cls, n, us, vs):
            return cls(n, zip(us, vs))

        @classmethod
        def _from_int_endpoints(cls, n, us, vs, oriented=False):
            return cls(n, zip(us, vs))

    @pytest.mark.parametrize(
        "text, drawn",
        [("3 2\n1 2\n1 2", [(1, 2), (1, 2)]), ("p edge 3 2\ne 1 2\ne 2 1", [(1, 2), (2, 1)])],
    )
    def test_edges_reach_graph_unchecked(self, monkeypatch, text, drawn):
        monkeypatch.setattr(lexid.graphio, "Graph", self.RecordingGraph)
        assert parse_graph(text).edges == drawn

    @pytest.mark.parametrize("text", ["3 2\n1 2\n2 3", "p edge 3 2\ne 1 2\ne 2 3"])
    def test_graph_error_is_reported_at_the_line_of_its_index(self, monkeypatch, text):
        monkeypatch.setattr(lexid.graphio, "Graph", self.FailingAtIndexOne)
        with pytest.raises(ParseError) as info:
            parse_graph(text)
        assert str(info.value) == "line 3: x"

    @pytest.mark.parametrize("fake", [None, RecordingGraph])
    def test_parse_error_is_not_wrapped(self, monkeypatch, fake):
        if fake is not None:
            monkeypatch.setattr(lexid.graphio, "Graph", fake)
        with pytest.raises(ParseError) as info:
            parse_edge_list("3 2\n1 2\nx y")
        assert str(info.value) == "line 3: expected integer endpoint, got 'x'"
        assert info.value.line == 3


@st.composite
def noisy_files(draw):
    """A corpus graph in either format, with blank and comment lines between its
    lines and each line ended by LF, CRLF or CR."""
    g = draw(st.sampled_from(small_corpus()[:60]))
    dimacs = draw(st.booleans())
    lines = (to_dimacs(g) if dimacs else to_edge_list(g)).splitlines()
    text = st.text(st.sampled_from(["a", "1", " ", "\t", *NOT_LINE_BREAKS]), max_size=6)
    noise = st.one_of(
        st.sampled_from(["", " ", "\t", *NOT_LINE_BREAKS]),
        text.map(lambda t: "#" + t),
        text.map(lambda t: "c " + t) if dimacs else st.nothing(),
    )
    out = []
    for line in lines:
        out += draw(st.lists(noise, max_size=2))
        out.append(line)
    out += draw(st.lists(noise, max_size=2))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(out), max_size=len(out)))
    return g, "".join(line + end for line, end in zip(out, ends))


@settings(max_examples=200)
@given(noisy_files())
def test_noisy_round_trip(case):
    g, text = case
    assert parse_graph(text) == g


class TestRoundTrip:
    def test_both_formats_on_corpus_sample(self):
        for g in small_corpus()[:40]:
            assert parse_edge_list(to_edge_list(g)) == g
            assert parse_dimacs(to_dimacs(g)) == g

    @settings(max_examples=200)
    @given(graphs(max_n=30))
    @example(Graph(1))
    @example(Graph(7))
    @example(gnp_graph(200, 0.3, 5))
    def test_serializers_match_the_per_line_form(self, g):
        assert to_edge_list(g) == reference_serialization(g, dimacs=False)
        assert to_dimacs(g) == reference_serialization(g, dimacs=True)

    def test_auto_detection(self):
        g = path_graph(4)
        assert parse_graph(to_edge_list(g)) == g
        assert parse_graph(to_dimacs(g)) == g

    @settings(max_examples=300)
    @given(st.text(st.sampled_from(["\n", "\r", " ", "#", "c", "p", "e", "1", *NOT_LINE_BREAKS])))
    def test_detection_reads_the_first_significant_line(self, text):
        first = next((line for _, line in ReferenceLines(text)), "1")
        assert detect_format(text) == ("dimacs" if first.split()[0] in ("c", "p", "e") else "edgelist")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            parse_graph("1 0", fmt="graphml")


class TestGenerators:
    def test_path(self):
        assert gen("path", [3]) == path_graph(3) == parse_edge_list("3 2\n1 2\n2 3")

    def test_grid_3x3_shape(self):
        g = gen("grid", [3, 3])
        assert g.n == 9 and len(g.edges) == 12

    def test_grid_row_major_labels(self):
        assert grid_graph(2, 3).edges == frozenset(
            {(1, 2), (2, 3), (4, 5), (5, 6), (1, 4), (2, 5), (3, 6)}
        )

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.n == 5 and (1, 5) in g.edges and len(g.edges) == 5
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_hypercube(self):
        g = hypercube_graph(3)
        assert g.n == 8 and len(g.edges) == 12
        assert hypercube_graph(0) == Graph(1)

    def test_gnp_deterministic(self):
        assert gnp_graph(8, 0.5, seed=7) == gnp_graph(8, 0.5, seed=7)
        assert gen("gnp", [8, 0.5], seed=7) == gnp_graph(8, 0.5, seed=7)

    def test_gnp_seed_matters(self):
        runs = {gnp_graph(12, 0.5, seed=s).edges for s in range(6)}
        assert len(runs) > 1

    def test_gnp_extremes(self):
        assert not gnp_graph(6, 0.0, seed=1).edges
        assert len(gnp_graph(6, 1.0, seed=1).edges) == 15

    @settings(max_examples=300)
    @given(
        st.integers(1, 80),
        st.one_of(st.floats(0, 1), st.sampled_from(GRID_PS)),
        st.one_of(st.sampled_from(SEEDS), st.integers(-(2**70), 2**70)),
    )
    def test_gnp_matches_the_per_pair_reference(self, n, p, seed):
        assert gnp_graph(n, p, seed).pairs == reference_gnp(n, p, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gnp_matches_the_reference_on_the_grid_edges(self, seed):
        for p in GRID_PS:
            assert gnp_graph(23, p, seed).pairs == reference_gnp(23, p, seed)

    @settings(max_examples=100)
    @given(st.integers(2, 40), st.integers(0, 2**64 - 1), st.data())
    def test_gnp_cuts_exactly_at_a_draw(self, n, seed, data):
        # p equal to one pair's draw drops that pair; the next float up keeps it
        rng = SplitMix64(seed)
        draws = [rng.random() for _ in range(n * (n - 1) // 2)]
        draw = data.draw(st.sampled_from(draws))
        for p in (math.nextafter(draw, 0), draw, math.nextafter(draw, 1)):
            assert gnp_graph(n, p, seed).pairs == reference_gnp(n, p, seed)

    def test_gnp_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            gen("gnp", [8, 0.5])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            gen("path", [])
        with pytest.raises(ValueError):
            gen("grid", [0, 3])
        with pytest.raises(ValueError):
            gen("gnp", [8, 1.5], seed=1)
        with pytest.raises(ValueError):
            gen("nonsense", [3])


class TestFixture:
    def test_shape(self):
        g = nonminimal_grid_fixture()
        assert g.n == 9 and len(g.edges) == 12
        assert g.edges == frozenset(FIXTURE_EDGES)

    def test_vertex_three_neighborhood(self):
        g = nonminimal_grid_fixture()
        assert g.neighborhood_array.neighborhood(3) == (2, 3, 4, 7, 8)

    def test_twin_free(self):
        assert find_twins(nonminimal_grid_fixture()) is None

    def test_is_relabeled_3x3_grid(self):
        g = nonminimal_grid_fixture()
        assert sorted(g.degrees[1:]) == sorted(grid_graph(3, 3).degrees[1:])
