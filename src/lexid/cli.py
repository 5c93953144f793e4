"""Command-line interface.

Exit codes: 0 success, 1 usage or parse error, 2 graph not twin-free (the
twin pair is printed), 3 verification rejected the supplied code, 141 stdout
is a pipe with no reader (nothing is printed on stderr).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import Callable

from .bench import bench
from .exact import DEFAULT_EXACT_CAP, greedy_code, minimalize, minimum_code
from .generate import FAMILIES, gen, nonminimal_grid_fixture
from .graph import ClosedNeighborhoodMatrix, Code, Graph, TwinFailure, TwinsError
from .graph import find_twins, is_identifying_code
from .graphio import ParseError, parse_graph, to_dimacs, to_edge_list
from .orderings import STRATEGY_KINDS, OrderingStrategy, code_to_original
from .restarts import run_restarts
from .rng import SplitMix64
from .sparse import lex_code_sparse
from .dense import lex_code_dense

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TWINS = 2
EXIT_INVALID = 3

ENV_SEED = "LEXID_SEED"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _seed(args: argparse.Namespace) -> int:
    """--seed, else $LEXID_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_SEED} must be an integer, got {raw!r}") from None


def _add_graph_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help="graph file path, or '-' for standard input")
    parser.add_argument(
        "--input-format",
        choices=("auto", "edgelist", "dimacs"),
        default="auto",
        help="input format (default: auto-detect)",
    )


def _read_graph(args: argparse.Namespace) -> Graph:
    if args.graph == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.graph).read_text(encoding="utf-8")
    return parse_graph(text.removeprefix("\ufeff"), args.input_format)  # a UTF-8 byte-order mark


def _int_list(raw: str, what: str) -> tuple[int, ...]:
    """The integers of a comma- or space-separated list; `what` names it in the error."""
    try:
        return tuple(int(t) for t in raw.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"{what} must be a list of integers, got {raw!r}") from None


def _parse_code_arg(raw: str) -> tuple[int, ...]:
    members = _int_list(raw, "code")
    if not members:
        raise ValueError("empty code argument")
    return tuple(sorted(set(members)))


def _strategy_from_args(args: argparse.Namespace) -> OrderingStrategy:
    if args.ordering == "explicit":
        if args.perm is None:
            raise ValueError("--ordering explicit requires --perm")
        return OrderingStrategy("explicit", _int_list(args.perm, "permutation"))
    if args.perm is not None:
        raise ValueError("--perm only applies with --ordering explicit")
    return OrderingStrategy(args.ordering)


def _print_code(code: Code) -> None:
    print(" ".join(str(v) for v in code))
    print(code.cardinality)


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_code(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    algorithm = "dense" if args.dense else "sparse"
    strategy = _strategy_from_args(args)
    seed = _seed(args)  # read under every ordering, so a bad LEXID_SEED fails any code run
    identity = strategy.kind == "identity"
    # an explicit order goes to the constructor unchecked: the constructor's check is its only one
    sequence = range(1, g.n + 1) if identity else (
        strategy.sequence or strategy.sequence_for(g, SplitMix64(seed)))
    if algorithm == "dense":
        outcome = lex_code_dense(ClosedNeighborhoodMatrix(g.neighborhood_array), None if identity else sequence)
    else:
        outcome = lex_code_sparse(g.neighborhood_array, None if identity else sequence)
    header = {"schema": 1, "n": g.n, "algorithm": algorithm, "ordering": strategy.kind}
    if isinstance(outcome, TwinFailure):
        pair = tuple(sorted((sequence[outcome.k - 1], sequence[outcome.j - 1])))
        if not args.json:
            raise TwinsError(pair)
        print(json.dumps({**header, "twins": list(pair)}))
        return EXIT_TWINS
    code = outcome if identity else code_to_original(outcome, sequence)  # identity positions are labels
    if args.json:
        print(json.dumps({
            **header,
            "code": list(code),
            "cardinality": code.cardinality,
            "verified": is_identifying_code(g, code),
        }))
    else:
        _print_code(code)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    if is_identifying_code(g, _parse_code_arg(args.code)):
        print("valid")
        return EXIT_OK
    print("invalid")
    return EXIT_INVALID


def _cmd_twins(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    pair = find_twins(g)
    if pair is None:
        print("twin-free")
        return EXIT_OK
    print(f"{pair[0]} {pair[1]}")
    return EXIT_TWINS


def _cmd_minimum(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    _print_code(minimum_code(g, max_vertices=args.max_n).code)
    return EXIT_OK


def _cmd_minimalize(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    # raw members, not a Code: the range check must name a member <= 0 first
    _print_code(minimalize(g, _parse_code_arg(args.code)))
    return EXIT_OK


def _cmd_greedy(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    outcome = greedy_code(g)
    if isinstance(outcome, TwinFailure):
        raise TwinsError(outcome.pair)
    _print_code(outcome)
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "fixture":
        if args.params:
            raise ValueError("family 'fixture' takes no parameters")
        g = nonminimal_grid_fixture()
    else:
        g = gen(args.family, args.params, _seed(args))
    _write(to_dimacs(g) if args.output_format == "dimacs" else to_edge_list(g), args.output)
    return EXIT_OK


def _cmd_restarts(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    report = run_restarts(g, _strategy_from_args(args), args.restarts, _seed(args))
    print(f"strategy: {report.strategy}")
    print(f"restarts: {len(report.cardinalities)}")
    print("best: " + " ".join(str(v) for v in report.best_code))
    print(f"best cardinality: {report.best_cardinality}")
    for i, (card, restart_seed, seconds) in enumerate(
        zip(report.cardinalities, report.seeds, report.elapsed_seconds)
    ):
        print(f"restart {i}: seed={restart_seed} cardinality={card} seconds={seconds:.6f}")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    sizes = list(_int_list(args.sizes, "sizes"))
    for family in families:
        if family not in FAMILIES:
            raise ValueError(f"unknown bench family {family!r}; choose from {', '.join(FAMILIES)}")
    report = bench(families, sizes, repetitions=args.reps, seed=_seed(args), gnp_p=args.gnp_p)
    _write(report.to_csv(), args.output)
    return EXIT_OK


def _code_args(p: argparse.ArgumentParser) -> None:
    _add_graph_arg(p)
    algo = p.add_mutually_exclusive_group()
    algo.add_argument("--dense", action="store_true", help="use the bit-matrix algorithm")
    algo.add_argument("--sparse", action="store_true", help="use the adjacency-list algorithm (default)")
    p.add_argument("--ordering", choices=STRATEGY_KINDS, default="identity",
                   help="vertex ordering before the run (default: identity)")
    p.add_argument("--perm", help="processing order for --ordering explicit, e.g. '3,1,2'")
    p.add_argument("--seed", type=int, help=f"seed for random ordering (default: ${ENV_SEED} or 0)")
    p.add_argument("--json", action="store_true", help="emit a JSON object instead of text")


def _verify_args(p: argparse.ArgumentParser) -> None:
    _add_graph_arg(p)
    p.add_argument("--code", required=True, help="code members, e.g. '2,3,4,5,6'")


def _minimum_args(p: argparse.ArgumentParser) -> None:
    _add_graph_arg(p)
    p.add_argument("--max-n", type=int, default=DEFAULT_EXACT_CAP,
                   help=f"refuse graphs larger than this (default: {DEFAULT_EXACT_CAP})")


def _minimalize_args(p: argparse.ArgumentParser) -> None:
    _add_graph_arg(p)
    p.add_argument("--code", required=True, help="identifying code to shrink")


def _gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=FAMILIES + ("fixture",), help="graph family")
    p.add_argument("params", nargs="*", help="family parameters, e.g. 'grid 3 3' or 'gnp 16 0.3'")
    p.add_argument("--seed", type=int, help=f"seed for gnp (default: ${ENV_SEED} or 0)")
    p.add_argument("--output-format", choices=("edgelist", "dimacs"), default="edgelist",
                   help="output format (default: edgelist)")
    p.add_argument("-o", "--output", help="write to a file instead of standard output")


def _restarts_args(p: argparse.ArgumentParser) -> None:
    _add_graph_arg(p)
    p.add_argument("--restarts", type=int, default=100, help="number of restarts (default: 100)")
    p.add_argument("--ordering", choices=STRATEGY_KINDS, default="random",
                   help="ordering strategy per restart (default: random)")
    p.add_argument("--perm", help="processing order for --ordering explicit")
    p.add_argument("--seed", type=int, help=f"master seed (default: ${ENV_SEED} or 0)")


def _bench_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--families", default="grid", help="comma-separated families (default: grid)")
    p.add_argument("--sizes", default="256,512,1024", help="comma-separated sizes (default: 256,512,1024)")
    p.add_argument("--reps", type=int, default=3, help="timing repetitions per instance (default: 3)")
    p.add_argument("--seed", type=int, help=f"seed for gnp instances (default: ${ENV_SEED} or 0)")
    p.add_argument("--gnp-p", type=float, default=0.3, help="edge probability for gnp (default: 0.3)")
    p.add_argument("-o", "--output", help="write CSV to a file instead of standard output")


# name -> (help line, adds the arguments, runs the command), in the order `lexid --help` lists them
_AddArguments = Callable[[argparse.ArgumentParser], None]
COMMANDS: dict[str, tuple[str, _AddArguments, Callable[[argparse.Namespace], int]]] = {
    "code": ("construct an identifying code", _code_args, _cmd_code),
    "verify": ("check whether a code identifies the graph", _verify_args, _cmd_verify),
    "twins": ("report the first twin pair, if any", _add_graph_arg, _cmd_twins),
    "minimum": ("exact minimum identifying code (small graphs)", _minimum_args, _cmd_minimum),
    "minimalize": ("shrink an identifying code to a minimal one", _minimalize_args, _cmd_minimalize),
    "greedy": ("set-cover greedy baseline", _add_graph_arg, _cmd_greedy),
    "gen": ("generate a graph and print it", _gen_args, _cmd_gen),
    "restarts": ("random-restart search for a small code", _restarts_args, _cmd_restarts),
    "bench": ("benchmark both constructors; emits CSV", _bench_args, _cmd_bench),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `lexid` parser with the subparser of `command` alone if it names
    one, else with every subparser.  A usage error or help text of the one
    command is the same either way."""
    parser = _Parser(prog="lexid", description="Lexicographic identifying codes for graphs.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in (command,) if command in COMMANDS else COMMANDS:
        help_line, add_arguments, run = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.set_defaults(func=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the parser of the subcommand that runs, not all nine: on a small graph
    # the full tree takes longer to build than the command's verify
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    # A command allocates millions of tuples and lists that never form a cycle;
    # the cyclic collector would walk them all, so it pauses for the command.
    collecting = gc.isenabled()
    gc.disable()
    try:
        status = args.func(args)
        sys.stdout.flush()  # here, not at exit, so that a closed pipe is caught below
        return status
    except BrokenPipeError:
        # downstream consumer closed the pipe (e.g. `lexid ... | head`);
        # point stdout at devnull so interpreter shutdown does not re-raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the shell convention
    except TwinsError as exc:  # before ValueError, its base class
        print(f"error: graph is not twin-free (twins {exc.pair[0]} {exc.pair[1]})", file=sys.stderr)
        return EXIT_TWINS
    except ParseError as exc:
        print(f"lexid: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"lexid: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("lexid: error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
