"""Every command's output is the same under any string-hash seed: one child
process per PYTHONHASHSEED runs a fixed list of commands through cli.main,
and their stdout and exit codes must agree once the timings are masked."""

import json
import os
import re
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path

import lexid
from lexid import gnp_graph, nonminimal_grid_fixture, to_dimacs, to_edge_list

HASH_SEEDS = ("0", "1", "12345")

# runs each command of the JSON list in argv[1] and prints [[status, stdout], ...]
CHILD = """
import contextlib, io, json, sys
from lexid.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    results.append([status, out.getvalue()])
print(json.dumps(results))
"""


def _commands(gnp_file: str, fixture_file: str) -> list[list[str]]:
    per_graph = [
        ["code"], ["code", "--dense"], ["code", "--json", "--ordering", "random", "--seed", "3"],
        ["code", "--ordering", "degree-desc"], ["greedy"], ["twins"],
        ["restarts", "--restarts", "20", "--seed", "1"],
    ]
    commands = [[*command, path] for path in (gnp_file, fixture_file) for command in per_graph]
    all_vertices = ",".join(map(str, range(1, 41)))
    return [
        *commands,
        ["minimalize", "--code", all_vertices, gnp_file],
        ["minimalize", "--code", "1,2,3,4,5,6,7,8,9", fixture_file],
        ["gen", "gnp", "40", "0.2", "--seed", "5"],
        ["bench", "--families", "path,grid,gnp", "--sizes", "9,16", "--reps", "1"],
    ]


def _masked(stdout: str) -> str:
    """stdout with each restart's seconds and each bench sample's median_seconds replaced by T."""
    stdout = re.sub(r"seconds=\d+\.\d+", "seconds=T", stdout)
    return re.sub(r"^(sample,[^,]*,[^,]*,[^,]*,[^,]*),[^,]*,", r"\1,T,", stdout, flags=re.MULTILINE)


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    gnp_file, fixture_file = tmp_path / "gnp.col", tmp_path / "fixture.txt"
    gnp_file.write_text(to_dimacs(gnp_graph(40, 0.2, seed=1)))
    fixture_file.write_text(to_edge_list(nonminimal_grid_fixture()))
    commands = _commands(str(gnp_file), str(fixture_file))
    # the children import the same lexid as this process, installed or not
    package_root = str(Path(lexid.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    with ExitStack() as stack:  # started together, each waited for on exit
        children = [
            stack.enter_context(subprocess.Popen(
                [sys.executable, "-c", CHILD, json.dumps(commands)], env={**env, "PYTHONHASHSEED": seed},
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
            for seed in HASH_SEEDS
        ]
        outputs = [child.communicate(timeout=60) for child in children]
    for child, (_, stderr) in zip(children, outputs):
        assert (child.returncode, stderr) == (0, "")
    runs = [[(status, _masked(stdout)) for status, stdout in json.loads(out)] for out, _ in outputs]
    assert len(runs[0]) == len(commands)
    assert all(status == 0 and stdout for status, stdout in runs[0])
    masked = "".join(stdout for _, stdout in runs[0])  # both masks took effect
    assert "seconds=T" in masked and "\r\nsample,path,9,2,dense,T,388,\r\n" in masked
    for seed, run in zip(HASH_SEEDS[1:], runs[1:]):
        for command, first, other in zip(commands, runs[0], run):
            assert other == first, (seed, command)
