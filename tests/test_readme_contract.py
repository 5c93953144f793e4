"""README states the contract: no measured figure, and CLI examples that run as written."""

import io
import json
import re
import shlex
from pathlib import Path

from lexid.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# a number with a unit of time or memory, or a word that reports a measurement
FIGURE = re.compile(r"\d\s*(?:µs|ms|s|MiB|MB|GB)\b|\b(?:[Mm]edians?|VM)\b")


def test_readme_holds_no_measured_figure():
    found = [(number, line) for number, line in enumerate(README.splitlines(), 1) if FIGURE.search(line)]
    assert found == []


def test_cli_examples_run_as_written(tmp_path, capsys, monkeypatch):
    block = re.search(r"^Examples:\n\n```sh\n(.*?)^```", README, re.S | re.M).group(1)
    monkeypatch.chdir(tmp_path)
    checked = 0
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        stages = [shlex.split(stage) for stage in command.split("|")]
        assert all(stage[0] == "lexid" for stage in stages), line
        if stages[0][1] == "bench":  # the acceptance suite runs its arguments through the library
            continue
        out = None
        for stage in stages:
            if out is not None:  # a pipe: the previous stage's output is this one's stdin
                monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(out.encode("utf-8")), encoding="utf-8"))
            status = main(stage[1:])
            out, err = capsys.readouterr()
            assert (status, err) == (0, ""), line
        if "--json" in stages[-1]:
            assert json.loads(out)["verified"] is True
        expected = re.findall(r'"([^"]*)"', comment.partition("->")[2])
        if expected:
            assert out.splitlines() == expected, line
            checked += 1
    assert checked == 2
