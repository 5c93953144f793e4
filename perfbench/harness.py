"""Benchmark driver: set up one workload, call the CLI in-process, check, report.

One run measures one workload from one process and one thread.  With
``--trace 0`` it times whole ``lexid.cli.main(argv)`` calls and reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced calls with
traced replays (see traced.py) and reports the per-layer metrics.  The last
line of standard output is the JSON result; the lines before it are a
readable table and a ``# report`` line with the environment and samples.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from lexid import cli, nonminimal_grid_fixture, to_edge_list

from .traced import DENSE_PARTS, SPARSE_PARTS, Tracer, layer_metrics, layer_self_shares, replay, tallies
from .workloads import WORKLOADS, Output, TwinsInInput, Workload, check, expected_output, parse_output

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
OUT_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 0
HELD_OUT_SEED = 1
SETUP_REPS = 5  # set-ups per run, at least; setup_s is their normalized median
SETUP_SECONDS = 3.0  # cheap set-ups repeat until this much set-up time is spent
MIN_CALLS = 3  # untraced calls per run, at least
# calibration_unit()'s time on the reference host (2-vCPU Xeon VM) in its fast
# state; normalized times are expressed in seconds at that speed
REFERENCE_UNIT_S = 0.00085

END_TO_END = {
    "setup_s": "s",
    "code_s": "s",
    "code_cardinality": "count",
    "restarts_per_s": "1/s",
    "best_cardinality": "count",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "cli.read_s": "s", "cli.emit_s": "s", "cli.self_s": "s",
    "graphio.parse_s": "s", "graphio.bytes": "bytes", "graphio.edges": "count",
    "graph.array_view_s": "s", "graph.matrix_view_s": "s", "graph.verify_s": "s", "graph.twins_s": "s",
    "orderings.sequence_s": "s", "orderings.relabel_s": "s", "orderings.map_back_s": "s",
    "sparse.construct_s": "s", "sparse.model_touches": "count",
    **{f"sparse.{p}": "count" for p in SPARSE_PARTS},
    "dense.construct_s": "s", "dense.model_bits": "count",
    **{f"dense.{p}": "count" for p in DENSE_PARTS},
    "restarts.restart_s.p50": "s", "restarts.restart_s.p95": "s", "restarts.best_hits": "ratio",
    "trace.overhead_s": "s",
}


@dataclass
class Outcome:
    """Everything one run produced: the attempts, their errors and the metrics."""

    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    shares: dict[str, float] = field(default_factory=dict)
    call_seconds: list[float] = field(default_factory=list)

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.errors.append(error)


def calibration_unit() -> int:
    """A fixed mix of dict, list, set, int and str work that does not touch lexid."""
    rows: dict[int, list[int]] = {}
    acc = 0
    for i in range(2000):
        row = rows.setdefault((i * 7919) % 1031, [])
        row.append(i)
        acc += len(row) ^ i
    members = set(range(0, 3000, 3))
    acc += sum(1 for x in range(3000) if x in members)
    return acc + sum(int(t) for t in " ".join(map(str, range(500))).split())


def host_speed(seconds: float) -> float:
    """Run calibration units for at least `seconds`; returns the seconds one unit took.

    Run right after a timed call, it measures how fast the host was then, so
    that time / host_speed is free of the host's speed switches (see README).
    """
    units = 0
    start = time.perf_counter()
    while True:
        calibration_unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / units


def at_reference_speed(times: list[float], units: list[float]) -> list[float]:
    """Each time in seconds at the reference speed, REFERENCE_UNIT_S per calibration unit."""
    return [t / u * REFERENCE_UNIT_S for t, u in zip(times, units)]


def call_cli(argv: list[str]) -> tuple[float, str, str | None]:
    """Time one ``lexid.cli.main(argv)`` call; returns (seconds, stdout, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed call, not a crashed run
            return time.perf_counter() - start, out.getvalue(), f"raised {exc!r}"
        seconds = time.perf_counter() - start
    error = None if rc == 0 else f"exit {rc}: {err.getvalue().strip()}"
    return seconds, out.getvalue(), error


def check_calls(workload: Workload, calls, n: int, expected: Output, pin: dict | None,
                outcome: Outcome) -> list[Output]:
    """Record every call as an attempt; returns the outputs that passed the checks."""
    verdicts: dict[str, tuple[Output | None, str | None]] = {}
    passed = []
    for text, error in calls:
        if error is None:
            if text not in verdicts:
                try:
                    printed = parse_output(workload, text, n)
                    verdicts[text] = printed, check(printed, expected, pin)
                except (ValueError, KeyError, TypeError) as exc:
                    verdicts[text] = None, f"unparsable output: {exc!r}"
            printed, error = verdicts[text]
            if error is None:
                passed.append(printed)
        outcome.record(error)
    return passed


def set_up(workload: Workload, seed: int, smoke: bool, workdir: Path) -> tuple[Path, list[float], list[float]]:
    """Write the input file and warm up, at least SETUP_REPS times and for SETUP_SECONDS;
    returns (path, seconds per set-up, host speed after each set-up).

    Nothing built here outlives the set-up, so that peak RSS is the CLI's.
    """
    path = workdir / ("input.dimacs" if workload.input_format == "dimacs" else "input.txt")
    fixture = workdir / "fixture.txt"
    times, units = [], []
    min_seconds = 0.0 if smoke else SETUP_SECONDS
    while len(times) < SETUP_REPS or sum(times) < min_seconds:
        start = time.perf_counter()
        path.write_text(workload.serialize(workload.graph(seed, smoke)), encoding="utf-8")
        fixture.write_text(to_edge_list(nonminimal_grid_fixture()), encoding="utf-8")
        _, _, warm_error = call_cli(["code", "--json", str(fixture)])  # imports, first-call costs
        times.append(time.perf_counter() - start)
        if warm_error is not None:
            raise RuntimeError(f"warm-up call failed: {warm_error}")
        gc.collect()
        units.append(host_speed(times[-1]))
    return path, times, units


def _normalized(text: str) -> str:
    return re.sub(r" seconds=\S+", "", text)  # per-restart timings differ run to run


def measure(workload: Workload, argv: list[str], seconds: float, tracer: Tracer | None):
    """CLI calls for `seconds`, at least MIN_CALLS; returns (times, host speeds, [(stdout, error)]).

    Without a tracer, each call is followed by a host_speed() measurement as
    long as the call.  With a tracer, each untraced call is followed by a
    traced replay whose output must equal the call's; replays are attempts
    too, but not timed here.
    """
    times, units, calls = [], [], []
    start = time.perf_counter()
    while len(times) < MIN_CALLS or time.perf_counter() - start < seconds:
        gc.collect()
        call_seconds, text, error = call_cli(argv)
        times.append(call_seconds)
        calls.append((text, error))
        if tracer is None:
            units.append(host_speed(call_seconds))
            continue
        gc.collect()
        lines: list[str] = []
        try:
            replay(workload, argv, tracer, lines.append)
        except Exception as exc:  # a replay that raises is a failed attempt
            calls.append(("", f"traced replay raised {exc!r}"))
            continue
        replayed = "\n".join(lines) + "\n"
        same = _normalized(replayed) == _normalized(text)
        calls.append((replayed, None if same else "traced output differs from untraced output"))
    return times, units, calls


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool,
                 golden: dict) -> Outcome:
    """Set up, measure, then check one workload; the metrics are in the returned Outcome."""
    pin = golden["smoke" if smoke else "full"].get(workload.name, {}).get(str(seed))
    outcome = Outcome()
    tracer = Tracer()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        path, setup_times, setup_units = set_up(workload, seed, smoke, Path(tmp))
        argv = workload.argv(str(path), seed, smoke)
        times, units, calls = measure(workload, argv, seconds, tracer if trace else None)
    scale = 2**20 if sys.platform == "darwin" else 2**10  # ru_maxrss is bytes there, KiB on Linux
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale

    # Checking comes after the peak is read: the reference needs the graph in memory again.
    g = workload.graph(seed, smoke)
    expected = expected_output(workload, g, seed, smoke)
    passed = check_calls(workload, calls, g.n, expected, pin, outcome)
    emitted = passed[-1] if passed else expected
    # host speed switches; see README "Why times are normalized"
    code_s = statistics.median(at_reference_speed(times, units) if units else times)
    outcome.call_seconds = times
    outcome.samples.update({"setup_s": len(setup_times), "code_s": len(times),
                            "median_call_s": statistics.median(times), "fastest_call_s": min(times),
                            "median_unit_s": statistics.median(units) if units else None})
    outcome.metrics.update({
        "setup_s": statistics.median(at_reference_speed(setup_times, setup_units)),
        "code_s": code_s,
        "code_cardinality": emitted.mean_cardinality,
        "restarts_per_s": max(1, len(expected.cardinalities)) / code_s,
        "best_cardinality": len(emitted.code),
        "peak_rss_mib": peak_rss_mib,
    })
    if trace:
        spans = OUT_DIR / f"spans-{workload.name}-seed{seed}{'-smoke' if smoke else ''}.jsonl"
        tracer.write(spans)
        outcome.samples["traced_replays"] = tracer.run_id
        outcome.shares = layer_self_shares(tracer)
        outcome.metrics.update(per_layer_metrics(workload, g, seed, expected, tracer, times, pin, outcome))
    return outcome


def per_layer_metrics(workload, g, seed, expected: Output, tracer: Tracer, untraced_times, pin, outcome):
    """Span totals, input counts, tallies (checked against the pin) and restart statistics."""
    layers = layer_metrics(tracer)
    tally = tallies(workload, g, len(expected.cardinalities), seed)
    wrong = next((key for key in tally if pin is not None and key in pin and pin[key] != tally[key]), None)
    # the tallied call is one more attempt
    outcome.record(None if wrong is None else f"golden {wrong} mismatch: pinned {pin[wrong]}, got {tally[wrong]}")
    cards = expected.cardinalities
    return {
        **{name: layers[name] for name in PER_LAYER if name in layers},
        **tally,
        "graphio.bytes": tracer.counts.get("graphio.bytes", 0),
        "graphio.edges": tracer.counts.get("graphio.edges", 0),
        "restarts.best_hits": cards.count(min(cards)) / len(cards) if cards else 0.0,
        "trace.overhead_s": layers["cli.wall_s"] - statistics.median(untraced_times),
    }


def environment(seed: int) -> dict:
    """Where and on what the numbers were measured."""
    revision, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                      text=True, timeout=30, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"], capture_output=True,
                                        text=True, timeout=30, check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_revision": revision,
        "git_dirty": dirty,
        "seed": seed,
        "pinned_seed": seed in (DEFAULT_SEED, HELD_OUT_SEED),
    }


def result_line(outcome: Outcome, trace: bool) -> dict:
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": len(outcome.errors),
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()},
    }


def print_run(workload: Workload, seed: int, trace: bool, smoke: bool, outcome: Outcome) -> None:
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}{'  smoke' if smoke else ''}")
    for name, unit in (PER_LAYER if trace else END_TO_END).items():
        value = outcome.metrics[name]
        print(f"  {name:<28} {value:>16{'d' if isinstance(value, int) else '.6g'}} {unit}")
    rate = len(outcome.errors) / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'error_rate':<28} {rate:>16.6g} ratio ({len(outcome.errors)}/{outcome.attempted})")
    if outcome.shares:
        print("  layer self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in outcome.shares.items()))
    for error in outcome.errors[:5]:
        print(f"  FAILED: {error}")
    report = {"workload": workload.name, "env": environment(seed), "samples": outcome.samples,
              "call_seconds": outcome.call_seconds, "error_rate": rate, "errors": outcome.errors[:20]}
    print("# report " + json.dumps(report))


def run_all(args) -> int:
    """Each workload in a fresh child process, one after another; a table of all metrics."""
    results, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve().parent / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and results[name]["correct"]
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description="lexid benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced per-layer run")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    try:
        outcome = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.smoke, golden)
    except TwinsInInput as exc:
        print(f"perfbench: {exc}; choose another seed", file=sys.stderr)
        return 1
    print_run(workload, args.seed, bool(args.trace), args.smoke, outcome)
    print(json.dumps(result_line(outcome, bool(args.trace))))
    return 0
