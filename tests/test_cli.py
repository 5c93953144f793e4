import csv
import gc
import io
import json
import os

import pytest

import lexid.restarts
from lexid import (
    ClosedNeighborhoodMatrix,
    gnp_graph,
    lex_code_sparse,
    nonminimal_grid_fixture,
    parse_edge_list,
    parse_graph,
    path_graph,
    to_dimacs,
    to_edge_list,
)
from lexid.cli import main


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
    ("fixture_file", 9, ["degree-desc"], ("code", [2, 3, 4, 7])),
    ("fixture_file", 9, ["random", "--seed", "3"], ("code", [3, 4, 5, 6, 8, 9])),
    ("fixture_file", 9, ["explicit", "--perm", "9,8,7,6,5,4,3,2,1"], ("code", [4, 5, 6, 7, 8, 9])),
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

    def test_a_worker_that_dies_exits_one(self, fixture_file, monkeypatch, capsys):
        parent = os.getpid()

        def construct(array):
            if os.getpid() != parent:
                os._exit(3)
            return lex_code_sparse(array)

        monkeypatch.setattr(lexid.restarts, "MIN_BLOCK", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(lexid.restarts, "lex_code_sparse", construct)
        assert main(["restarts", "--restarts", "4", fixture_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("lexid: error: restart worker ")
        assert captured.err.endswith(" ended without a result (exit code 3)\n")
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
