import argparse
import csv
import gc
import io
import json
import os
import re
import sys

import pytest

import lexid.cli
import lexid.dense
import lexid.graph
import lexid.orderings
import lexid.restarts
import lexid.sparse
from lexid import (
    ClosedNeighborhoodMatrix,
    OrderingStrategy,
    SplitMix64,
    apply_sequence,
    code_to_original,
    derive_seed,
    gnp_graph,
    grid_graph,
    lex_code_dense,
    lex_code_sparse,
    nonminimal_grid_fixture,
    parse_edge_list,
    parse_graph,
    path_graph,
    to_dimacs,
    to_edge_list,
)
from lexid.cli import main

from calls import traced_peak
from oracles import relabeled_array


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "fixture.txt"
    path.write_text(to_edge_list(nonminimal_grid_fixture()))
    return str(path)


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text("2 1\n1 2\n")
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("3 2\n1 2\n2 3\n")
    return str(path)


@pytest.fixture
def twins_file(tmp_path):
    # three twin classes, {1, 6}, {2, 3} and {4, 5}: each ordering meets a different pair first
    path = tmp_path / "twins.txt"
    path.write_text("6 3\n1 6\n2 3\n4 5\n")
    return str(path)


# graph file fixture, n, --ordering flags, outcome on the original labels
ORDERING_CASES = [
    ("fixture_file", 9, ["identity"], ("code", [1, 2, 3, 4, 5, 6])),
    ("fixture_file", 9, ["degree-desc"], ("code", [2, 3, 4, 7])),
    ("fixture_file", 9, ["random", "--seed", "3"], ("code", [3, 4, 5, 6, 8, 9])),
    ("fixture_file", 9, ["explicit", "--perm", "9,8,7,6,5,4,3,2,1"], ("code", [4, 5, 6, 7, 8, 9])),
    ("twins_file", 6, ["identity"], ("twins", [2, 3])),
    ("twins_file", 6, ["degree-desc"], ("twins", [2, 3])),
    ("twins_file", 6, ["random", "--seed", "3"], ("twins", [1, 6])),
    ("twins_file", 6, ["explicit", "--perm", "6,5,4,3,2,1"], ("twins", [4, 5])),
]


class TestCodeCommand:
    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("graph, n, ordering, outcome", ORDERING_CASES)
    def test_ordering_exact_output(self, graph, n, ordering, outcome, dense, as_json, request, capsys):
        flags = ["--ordering", *ordering] + ["--dense"] * dense + ["--json"] * as_json
        status = main(["code", *flags, request.getfixturevalue(graph)])
        captured = capsys.readouterr()
        kind, members = outcome
        algorithm = "dense" if dense else "sparse"
        head = f'{{"schema": 1, "n": {n}, "algorithm": "{algorithm}", "ordering": "{ordering[0]}", '
        listed = ", ".join(map(str, members))
        if kind == "code":
            expected = (0, f"{' '.join(map(str, members))}\n{len(members)}\n", "")
            if as_json:
                body = f'"code": [{listed}], "cardinality": {len(members)}, "verified": true}}\n'
                expected = (0, head + body, "")
        elif as_json:
            expected = (2, head + f'"twins": [{listed}]}}\n', "")
        else:
            message = f"error: graph is not twin-free (twins {members[0]} {members[1]})\n"
            expected = (2, "", message)
        assert (status, captured.out, captured.err) == expected

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    def test_the_identity_ordering_maps_no_code_back(self, fixture_file, dense, monkeypatch, capsys):
        # under the identity ordering positions are the labels
        def refusing(code, sequence):
            raise AssertionError("code_to_original called")

        monkeypatch.setattr(lexid.cli, "code_to_original", refusing)
        assert main(["code", *["--dense"] * dense, fixture_file]) == 0
        assert capsys.readouterr().out == "1 2 3 4 5 6\n6\n"

    def test_dense_on_fixture(self, fixture_file, capsys):
        assert main(["code", "--dense", fixture_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "1 2 3 4 5 6"
        assert out[1] == "6"

    def test_sparse_is_default_and_agrees(self, fixture_file, capsys):
        assert main(["code", fixture_file]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "1 2 3 4 5 6"

    def test_json_schema(self, fixture_file, capsys):
        assert main(["code", "--json", fixture_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "schema": 1,
            "n": 9,
            "algorithm": "sparse",
            "ordering": "identity",
            "code": [1, 2, 3, 4, 5, 6],
            "cardinality": 6,
            "verified": True,
        }

    def test_twins_exit_two_with_pair(self, k2_file, capsys):
        assert main(["code", k2_file]) == 2
        assert "twins 1 2" in capsys.readouterr().err

    def test_twins_json(self, k2_file, capsys):
        assert main(["code", "--json", k2_file]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["twins"] == [1, 2] and doc["schema"] == 1

    def test_ordering_random_seeded(self, fixture_file, capsys):
        assert main(["code", "--ordering", "random", "--seed", "4", fixture_file]) == 0
        first = capsys.readouterr().out
        assert main(["code", "--ordering", "random", "--seed", "4", fixture_file]) == 0
        assert capsys.readouterr().out == first

    def test_explicit_ordering(self, p3_file, capsys):
        assert main(["code", "--ordering", "explicit", "--perm", "3,2,1", p3_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "1 3"  # symmetric relabeling of the path

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    def test_an_explicit_order_is_checked_once(self, fixture_file, dense, monkeypatch, capsys):
        checks = []
        check = lexid.graph._positions

        def recording_check(sequence, n):
            checks.append(tuple(sequence))
            return check(sequence, n)

        for module in (lexid.orderings, lexid.sparse, lexid.dense):
            monkeypatch.setattr(module, "_positions", recording_check)
        flags = ["code", "--ordering", "explicit", *["--dense"] * dense, fixture_file, "--perm"]
        assert main([*flags, "9,8,7,6,5,4,3,2,1"]) == 0
        assert capsys.readouterr() == ("4 5 6 7 8 9\n6\n", "")
        assert checks == [(9, 8, 7, 6, 5, 4, 3, 2, 1)]
        for bad in ("1,1,3", ""):
            checks.clear()
            assert main([*flags, bad]) == 1
            message = f"lexid: error: not a permutation of 1..9: ({bad.replace(',', ', ')})\n"
            assert capsys.readouterr() == ("", message)
            assert len(checks) == 1

    def test_env_seed_matches_flag(self, fixture_file, capsys, monkeypatch):
        monkeypatch.setenv("LEXID_SEED", "4")
        assert main(["code", "--ordering", "random", fixture_file]) == 0
        via_env = capsys.readouterr().out
        monkeypatch.delenv("LEXID_SEED")
        assert main(["code", "--ordering", "random", "--seed", "4", fixture_file]) == 0
        assert capsys.readouterr().out == via_env

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n1 2\n2 3\n"))
        assert main(["code", "-"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "1 3"

    def test_dimacs_input_autodetected(self, tmp_path, capsys):
        path = tmp_path / "p3.col"
        path.write_text(to_dimacs(path_graph(3)))
        assert main(["code", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "1 3"

    def test_parse_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n1 1\n")
        assert main(["code", str(path)]) == 1
        assert "self-loop" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["3 2\n1 2\n1 2\n", "p edge 3 2\ne 1 2\ne 2 1\n"])
    def test_duplicate_edge_message_and_exit(self, tmp_path, capsys, text):
        path = tmp_path / "dup.txt"
        path.write_text(text)
        assert main(["code", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "lexid: parse error: line 3: duplicate edge (1, 2)\n"

    @pytest.mark.parametrize("text", ["3 2\n1 2\n2 3\n", "p edge 3 2\ne 1 2\ne 3 2\n", "c x\r\np edge 3 0"])
    @pytest.mark.parametrize("stdin", [False, True])
    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path, capsys, monkeypatch, text, stdin):
        def run(text):
            if stdin:
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                return main(["code", "-"]), capsys.readouterr()
            path = tmp_path / "graph.txt"
            path.write_text(text, encoding="utf-8")
            return main(["code", str(path)]), capsys.readouterr()

        assert run("\ufeff" + text) == run(text)

    @pytest.mark.parametrize("text, err", [
        ("\ufeff\ufeff3 0", "line 1: expected integer vertex count, got '\\ufeff3'"),
        ("3 1\n\ufeff1 2", "line 2: expected integer endpoint, got '\\ufeff1'"),
    ])
    def test_any_other_byte_order_mark_is_a_parse_error(self, tmp_path, capsys, text, err):
        path = tmp_path / "graph.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["twins", str(path)]) == 1
        assert capsys.readouterr() == ("", f"lexid: parse error: {err}\n")

    def test_missing_file_exit_one(self, capsys):
        assert main(["code", "/nonexistent/graph.txt"]) == 1


class TestVerifyCommand:
    def test_valid(self, fixture_file, capsys):
        assert main(["verify", "--code", "2,3,4,5,6", fixture_file]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_invalid_exit_three(self, fixture_file, capsys):
        assert main(["verify", "--code", "1", fixture_file]) == 3
        assert capsys.readouterr().out.strip() == "invalid"

    def test_out_of_range_member_is_usage_error(self, p3_file):
        assert main(["verify", "--code", "9", p3_file]) == 1

    def test_space_separated_code(self, fixture_file, capsys):
        assert main(["verify", "--code", "2 3 4 5 6", fixture_file]) == 0


@pytest.mark.parametrize("command", ["verify", "minimalize"])
@pytest.mark.parametrize("member", ["0", "10"])
def test_out_of_range_member_message(command, member, fixture_file, capsys):
    assert main([command, "--code", member, fixture_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lexid: error: code member {member} out of range 1..9\n"


class TestTwinsCommand:
    def test_twins_found(self, k2_file, capsys):
        assert main(["twins", k2_file]) == 2
        assert capsys.readouterr().out.strip() == "1 2"

    def test_twin_free(self, p3_file, capsys):
        assert main(["twins", p3_file]) == 0
        assert capsys.readouterr().out.strip() == "twin-free"

    def test_gnp_pair_exact(self, tmp_path, capsys):
        path = tmp_path / "gnp.txt"
        path.write_text(to_edge_list(gnp_graph(60, 0.08, 95)))
        assert main(["twins", str(path)]) == 2
        assert capsys.readouterr() == ("8 44\n", "")


class TestExactCommands:
    def test_minimum_p3(self, p3_file, capsys):
        assert main(["minimum", p3_file]) == 0
        assert capsys.readouterr().out.splitlines() == ["1 3", "2"]

    def test_minimum_on_twins(self, k2_file):
        assert main(["minimum", k2_file]) == 2

    def test_minimum_default_cap_refuses_large(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(to_edge_list(path_graph(30)))
        assert main(["minimum", str(path)]) == 1

    def test_minimum_cap_is_adjustable(self, tmp_path):
        path = tmp_path / "p5.txt"
        path.write_text(to_edge_list(path_graph(5)))
        assert main(["minimum", "--max-n", "4", str(path)]) == 1
        assert main(["minimum", "--max-n", "5", str(path)]) == 0

    def test_minimalize_fixture(self, fixture_file, capsys):
        assert main(["minimalize", "--code", "1,2,3,4,5,6", fixture_file]) == 0
        assert capsys.readouterr().out.splitlines() == ["2 3 4 5 6", "5"]

    def test_minimalize_rejects_non_identifying(self, fixture_file):
        assert main(["minimalize", "--code", "1", fixture_file]) == 1

    def test_greedy_p3(self, p3_file, capsys):
        assert main(["greedy", p3_file]) == 0
        assert capsys.readouterr().out.splitlines() == ["1 3", "2"]

    def test_greedy_on_twins(self, k2_file, capsys):
        assert main(["greedy", k2_file]) == 2


class TestGenCommand:
    def test_grid(self, capsys):
        assert main(["gen", "grid", "3", "3"]) == 0
        g = parse_edge_list(capsys.readouterr().out)
        assert g.n == 9 and len(g.edges) == 12

    def test_gnp_deterministic(self, capsys):
        assert main(["gen", "gnp", "8", "0.5", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "gnp", "8", "0.5", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_fixture_family(self, capsys):
        assert main(["gen", "fixture"]) == 0
        assert parse_edge_list(capsys.readouterr().out) == nonminimal_grid_fixture()

    def test_only_seeded_families_read_the_seed_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("LEXID_SEED", "zz")
        assert main(["gen", "fixture"]) == 0
        assert parse_edge_list(capsys.readouterr().out) == nonminimal_grid_fixture()
        assert main(["gen", "path", "3"]) == 1
        assert capsys.readouterr().err == "lexid: error: LEXID_SEED must be an integer, got 'zz'\n"

    def test_dimacs_output(self, capsys):
        assert main(["gen", "path", "3", "--output-format", "dimacs"]) == 0
        assert capsys.readouterr().out.startswith("p edge 3 2")

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.txt"
        assert main(["gen", "path", "4", "-o", str(target)]) == 0
        assert parse_edge_list(target.read_text()) == path_graph(4)

    def test_bad_params_exit_one(self, capsys):
        assert main(["gen", "grid", "3"]) == 1
        assert main(["gen", "fixture", "3"]) == 1

    def test_unknown_family_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["gen", "torus", "3"])
        assert info.value.code == 1


class TestRestartsCommand:
    def test_report_lines(self, fixture_file, capsys):
        assert main(["restarts", "--restarts", "20", "--seed", "1", fixture_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "strategy: random"
        assert out[1] == "restarts: 20"
        assert out[2].startswith("best: ")
        best = int(out[3].removeprefix("best cardinality: "))
        assert best <= 5
        assert len([line for line in out if line.startswith("restart ")]) == 20

    def test_twins_exit_two(self, k2_file):
        assert main(["restarts", "--restarts", "3", k2_file]) == 2

    def test_zero_restarts_usage_error(self, p3_file, capsys):
        assert main(["restarts", "--restarts", "0", p3_file]) == 1
        assert capsys.readouterr().err == "lexid: error: restarts must be >= 1, got 0\n"

    def test_a_failing_restart_exits_one(self, fixture_file, monkeypatch, capsys):
        constructions = []

        def construct(array, order, position):
            constructions.append(array)
            if len(constructions) == 3:
                raise ValueError("restart 2 failed")
            return lexid.sparse._run(array, order, position)

        monkeypatch.setattr(lexid.restarts, "_run", construct)
        assert main(["restarts", "--restarts", "4", fixture_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "lexid: error: restart 2 failed\n"
        assert len(constructions) == 3

    def test_a_batch_runs_in_this_process(self, tmp_path, monkeypatch, capsys):
        # restarts-gnp128's call: a process's own resource usage sees all of its memory
        g = gnp_graph(128, 0.1, derive_seed(0, 128))
        path = tmp_path / "gnp128.txt"
        path.write_text(to_edge_list(g))
        lines = []
        best = None
        for i in range(200):
            restart_seed = derive_seed(0, i)
            sequence = OrderingStrategy("random").sequence_for(g, SplitMix64(restart_seed))
            outcome = lex_code_sparse(relabeled_array(g.neighborhood_array, sequence))
            if best is None or len(outcome) < len(best):
                best = code_to_original(outcome, sequence)
            lines.append(f"restart {i}: seed={restart_seed} cardinality={len(outcome)} seconds=*")
        expected = ["strategy: random", "restarts: 200", "best: " + " ".join(map(str, best)),
                    f"best cardinality: {len(best)}"] + lines

        def refusing_fork():
            raise OSError("a restart batch forked")

        monkeypatch.setattr(os, "fork", refusing_fork)
        assert main(["restarts", "--restarts", "200", "--seed", "0", str(path)]) == 0
        out = re.sub(r"seconds=\d+\.\d{6}$", "seconds=*", capsys.readouterr().out, flags=re.M)
        assert out.splitlines() == expected
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestBenchCommand:
    def test_csv_output(self, capsys):
        assert main(["bench", "--families", "grid", "--sizes", "16,25", "--reps", "1"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][0] == "record"
        assert any(row[0] == "sample" for row in rows)

    def test_csv_exact_with_timings_masked(self, capsys):
        argv = ["bench", "--families", "path,grid,gnp", "--sizes", "2,9,16", "--reps", "1"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = list(csv.reader(io.StringIO(captured.out)))
        for row in rows[1:]:
            if row[0] == "sample":
                assert float(row[5]) >= 0
                row[5] = "T"
        assert "\n".join(",".join(row) for row in rows) == "\n".join([
            "record,family,n,max_degree,algorithm,median_seconds,work_units,value",
            "sample,path,9,2,dense,T,388,",
            "sample,path,9,2,sparse,T,86,",
            "sample,path,16,2,dense,T,1867,",
            "sample,path,16,2,sparse,T,217,",
            "sample,grid,9,4,dense,T,327,",
            "sample,grid,9,4,sparse,T,76,",
            "sample,grid,16,4,dense,T,1827,",
            "sample,grid,16,4,sparse,T,231,",
            "sample,gnp,2,0,dense,T,11,",
            "sample,gnp,2,0,sparse,T,6,",
            "sample,gnp,9,5,dense,T,420,",
            "sample,gnp,9,5,sparse,T,83,",
            "sample,gnp,16,6,dense,T,1518,",
            "sample,gnp,16,6,sparse,T,210,",
            "slope,path,,,dense,,,2.7306",
            "slope,path,,,sparse,,,1.6086",
            "slope,grid,,,dense,,,2.9902",
            "slope,grid,,,sparse,,,1.9321",
            "slope,gnp,,,dense,,,2.3800",
            "slope,gnp,,,sparse,,,1.7172",
            "skipped,path,2,,,,,twins 1 2",
            "skipped,grid,2,,,,,twins 1 2",
        ])
        assert captured.out.endswith("\r\n")

    def test_output_file(self, tmp_path):
        target = tmp_path / "bench.csv"
        code = main(["bench", "--families", "path", "--sizes", "16", "--reps", "1", "-o", str(target)])
        assert code == 0 and target.exists()

    def test_unknown_family(self, capsys):
        assert main(["bench", "--families", "torus", "--sizes", "16"]) == 1
        assert capsys.readouterr().err == (
            "lexid: error: unknown bench family 'torus'; "
            "choose from path, cycle, grid, gnp, hypercube\n"
        )

    def test_bad_sizes_message(self, capsys):
        assert main(["bench", "--sizes", "4,x"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "lexid: error: sizes must be a list of integers, got '4,x'\n"

    def test_zero_size_is_a_skipped_row(self, capsys):
        assert main(["bench", "--sizes", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "record,family,n,max_degree,algorithm,median_seconds,work_units,value",
            'skipped,grid,0,,,,,"grid size must be >= 1, got 0"',
        ]
        assert main(["bench", "--families", "hypercube", "--sizes", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "record,family,n,max_degree,algorithm,median_seconds,work_units,value",
            'skipped,hypercube,0,,,,,"hypercube size must be a power of two, got 0"',
        ]


class TestMatrixBuilds:
    """Only the dense paths build the n²-bit matrix; the sparse paths read the sorted lists."""

    @pytest.fixture
    def isolated_file(self, tmp_path):
        # at n = 40000 the matrix alone is ~100 MB; the sparse path needs a few MiB
        path = tmp_path / "isolated.txt"
        path.write_text("40000 0\n")
        return str(path)

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []

        def refusing_init(self, *args):
            built.append(args)
            raise AssertionError("the bit matrix was built")

        monkeypatch.setattr(ClosedNeighborhoodMatrix, "__init__", refusing_init)
        return built

    @pytest.mark.parametrize("graph, n", [("fixture_file", 9), ("isolated_file", 40000)])
    @pytest.mark.parametrize("argv", [
        ["code"],
        ["code", "--json"],
        ["code", "--ordering", "random"],
        ["verify", "--code", "ALL"],
        ["twins"],
        ["restarts", "--restarts", "2"],
        ["minimalize", "--code", "ALL"],
    ], ids=" ".join)
    def test_sparse_paths_build_none(self, graph, n, argv, builds, request, capsys):
        everything = ",".join(str(v) for v in range(1, n + 1))
        argv = [everything if a == "ALL" else a for a in argv]
        assert main([*argv, request.getfixturevalue(graph)]) == 0
        assert capsys.readouterr().err == ""
        assert builds == []

    def test_greedy_builds_none(self, fixture_file, builds, capsys):
        # not on the isolated file: greedy scans all 40000 vertices per pick there
        assert main(["greedy", fixture_file]) == 0
        assert capsys.readouterr() == ("2 3 4 7\n4\n", "")
        assert builds == []

    def test_dense_code_builds_one(self, fixture_file, monkeypatch, capsys):
        built = []
        init = ClosedNeighborhoodMatrix.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(ClosedNeighborhoodMatrix, "__init__", counting_init)
        assert main(["code", "--dense", "--ordering", "random", "--seed", "3", fixture_file]) == 0
        assert capsys.readouterr().out == "3 4 5 6 8 9\n6\n"
        assert len(built) == 1  # the counter does see a build

    def test_an_ordered_dense_run_holds_no_second_matrix(self):
        # a second row set, in processing order, would add a whole matrix: n²/8 bytes
        g = grid_graph(64, 64)
        relabeling, sequence = list(range(1, g.n + 1)), list(range(1, g.n + 1))
        SplitMix64(derive_seed(0, g.n)).shuffle(relabeling)
        SplitMix64(derive_seed(1, g.n)).shuffle(sequence)
        b = apply_sequence(g, relabeling).neighborhood_matrix
        identity_peak, _ = traced_peak(lambda: lex_code_dense(b))
        ordered_peak, _ = traced_peak(lambda: lex_code_dense(b, sequence))
        assert ordered_peak <= identity_peak + g.n * g.n // 16


class TestBrokenPipe:
    def test_early_closed_pipe_is_quiet(self, fixture_file):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import lexid

        # the child imports the same lexid as this process, installed or not
        package_root = str(Path(lexid.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            f"{sys.executable} -m lexid.cli restarts --restarts 50 --seed 1 {fixture_file} | head -1",
            shell=True,
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0  # head's status
        assert "Broken pipe" not in result.stderr
        assert result.stdout.startswith("strategy:")

    @pytest.mark.parametrize("command", [["code"], ["twins"], ["restarts", "--restarts", "3"]])
    def test_a_closed_pipe_exits_141_quietly_with_buffered_output(self, fixture_file, command):
        import subprocess
        from pathlib import Path

        # buffered stdout: output that fits the buffer is written only when the command is done
        package_root = str(Path(lexid.cli.__file__).resolve().parent.parent)
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the command starts
        try:
            result = subprocess.run([sys.executable, "-m", "lexid.cli", *command, fixture_file],
                                    stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (141, b"")


class TestUsageErrors:
    def test_missing_required_flag_exits_one(self, fixture_file):
        with pytest.raises(SystemExit) as info:
            main(["verify", fixture_file])
        assert info.value.code == 1

    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_perm_without_explicit_ordering(self, p3_file):
        assert main(["code", "--perm", "1,2,3", p3_file]) == 1

    def test_explicit_ordering_without_perm(self, p3_file):
        assert main(["code", "--ordering", "explicit", p3_file]) == 1

    @pytest.mark.parametrize("argv, env_seed, message", [
        (["verify", "--code", ", ,"], None, "empty code argument"),
        (["minimalize", "--code", "2,x"], None, "code must be a list of integers, got '2,x'"),
        (["code", "--ordering", "explicit", "--perm", "1,x"], None,
         "permutation must be a list of integers, got '1,x'"),
        (["restarts", "--ordering", "explicit", "--perm", "1 2.0 3"], None,
         "permutation must be a list of integers, got '1 2.0 3'"),
        (["code"], "zz", "LEXID_SEED must be an integer, got 'zz'"),
        (["restarts"], "1.5", "LEXID_SEED must be an integer, got '1.5'"),
    ])
    def test_bad_argument_message(self, p3_file, capsys, monkeypatch, argv, env_seed, message):
        if env_seed is not None:
            monkeypatch.setenv("LEXID_SEED", env_seed)
        assert main(argv + [p3_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"lexid: error: {message}\n"

    def test_out_of_memory_is_a_clean_exit_one(self, p3_file, capsys, monkeypatch):
        def exhausted(text, fmt):
            raise MemoryError

        monkeypatch.setattr("lexid.cli.parse_graph", exhausted)
        assert main(["code", p3_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "lexid: error: out of memory\n"


# every subcommand, in the order `lexid --help` lists them
COMMAND_NAMES = ["code", "verify", "twins", "minimum", "minimalize", "greedy", "gen", "restarts", "bench"]


def _exit_outcome(parse, argv, capsys):
    """(stdout, stderr, exit status) of a call that ends in SystemExit, as help and usage errors do."""
    with pytest.raises(SystemExit) as info:
        parse(argv)
    return (*capsys.readouterr(), info.value.code)


@pytest.mark.parametrize("argv", [
    ["--help"],
    *([name, "--help"] for name in COMMAND_NAMES),
    [],
    ["nosuch"],
    ["code", "FILE", "extra"],  # the top-level parser reports the extra argument
    ["code", "--dense", "--sparse", "FILE"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_help_and_usage_errors_match_the_full_parser(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    full = _exit_outcome(lexid.cli.build_parser().parse_args, argv, capsys)
    assert _exit_outcome(main, argv, capsys) == full
    out, err, status = full
    if "--help" in argv:
        assert (err, status) == ("", 0) and out.startswith("usage: lexid")
    else:
        assert (out, status) == ("", 1) and err.startswith("usage: lexid")


class TestSubparsersBuilt:
    """A call builds the parser of its subcommand alone; one that names none builds them all."""

    @pytest.fixture
    def added(self, monkeypatch):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def recording(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
        return names

    @pytest.mark.parametrize("argv, out", [
        (["code", "--json", "P3"], None),
        (["code", "--dense", "P3"], "1 3\n2\n"),
        (["twins", "P3"], "twin-free\n"),
        (["gen", "path", "2"], "2 1\n1 2\n"),
    ])
    def test_a_command_builds_one_subparser(self, added, argv, out, p3_file, capsys):
        assert main([p3_file if a == "P3" else a for a in argv]) == 0
        assert out is None or capsys.readouterr().out == out
        assert added == [argv[0]]

    def test_the_console_script_builds_one_subparser(self, added, p3_file, monkeypatch, capsys):
        # the `lexid` entry point calls main() with no argv, which reads sys.argv
        monkeypatch.setattr(sys, "argv", ["lexid", "code", "--json", p3_file])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["code"] == [1, 3]
        assert added == ["code"]

    @pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["nosuch"], ["-x", "code"]],
                             ids=lambda argv: " ".join(argv) or "no-arguments")
    @pytest.mark.parametrize("from_sys_argv", [False, True])
    def test_no_command_builds_them_all(self, added, argv, from_sys_argv, monkeypatch, capsys):
        if from_sys_argv:
            monkeypatch.setattr(sys, "argv", ["lexid", *argv])
        with pytest.raises(SystemExit):
            main(None if from_sys_argv else argv)
        assert added == COMMAND_NAMES

    def test_build_parser_builds_them_all(self, added):
        parser = lexid.cli.build_parser()
        assert added == COMMAND_NAMES
        assert list(parser._subparsers._group_actions[0].choices) == COMMAND_NAMES


class TestCollectorPause:
    """main pauses the cyclic collector for the command and restores it however the command ends."""

    @pytest.fixture(autouse=True)
    def collector_on(self):
        gc.enable()
        yield
        gc.enable()

    @pytest.fixture
    def bad_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n1 x\n")
        return str(path)

    def test_the_collector_is_off_inside_a_command(self, p3_file, monkeypatch, capsys):
        seen = []

        def recording(text, fmt):
            seen.append(gc.isenabled())
            return parse_graph(text, fmt)

        monkeypatch.setattr("lexid.cli.parse_graph", recording)
        assert main(["code", p3_file]) == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("graph, argv, code", [
        ("p3_file", ["code"], 0),
        ("bad_file", ["code"], 1),
        ("k2_file", ["code"], 2),
        ("fixture_file", ["verify", "--code", "1"], 3),
    ])
    def test_the_collector_is_on_after_each_exit(self, graph, argv, code, request, capsys):
        assert main([*argv, request.getfixturevalue(graph)]) == code
        assert gc.isenabled()

    @pytest.mark.parametrize("error, raised", [(MemoryError, None), (KeyboardInterrupt, KeyboardInterrupt)])
    def test_the_collector_is_on_after_an_exception(self, error, raised, p3_file, monkeypatch, capsys):
        def failing(text, fmt):
            raise error

        monkeypatch.setattr("lexid.cli.parse_graph", failing)
        if raised is None:
            assert main(["code", p3_file]) == 1
        else:
            with pytest.raises(raised):
                main(["code", p3_file])
        assert gc.isenabled()

    def test_a_collector_the_caller_disabled_stays_off(self, p3_file, capsys):
        gc.disable()
        assert main(["code", p3_file]) == 0
        assert not gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_usage_error_leaves_the_collector_as_it_was(self, enabled, fixture_file):
        if not enabled:
            gc.disable()
        with pytest.raises(SystemExit):
            main(["verify", fixture_file])
        assert gc.isenabled() == enabled
