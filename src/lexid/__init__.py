"""Lexicographic identifying codes for graphs.

An identifying code is a vertex subset whose intersections with all closed
neighborhoods are non-empty and pairwise distinct.  This package provides two
constructors for them (a bit-matrix one and an adjacency-list one for
bounded-degree graphs), twin detection, exact and greedy baselines, graph
I/O and generators, ordering strategies with random restarts, and a
benchmark harness.
"""

from .bench import BenchReport, BenchSample, bench, fit_loglog_slope
from .dense import DenseWorkTally, lex_code_dense, min2
from .exact import MinimumResult, greedy_code, minimalize, minimum_code
from .generate import (
    cycle_graph,
    gen,
    gnp_graph,
    grid_graph,
    hypercube_graph,
    near_square_grid,
    nonminimal_grid_fixture,
    path_graph,
)
from .graph import (
    ClosedNeighborhoodMatrix,
    Code,
    Graph,
    NeighborhoodArray,
    RunOutcome,
    TwinFailure,
    TwinsError,
    find_twins,
    is_identifying_code,
)
from .graphio import (
    ParseError,
    parse_dimacs,
    parse_edge_list,
    parse_graph,
    to_dimacs,
    to_edge_list,
)
from .orderings import (
    OrderingStrategy,
    apply_sequence,
    code_to_original,
    prefix_sequence,
)
from .restarts import RestartReport, run_restarts
from .rng import SplitMix64, derive_seed
from .sparse import SparseWorkTally, lex_code_sparse, min3

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "BenchSample",
    "ClosedNeighborhoodMatrix",
    "Code",
    "DenseWorkTally",
    "Graph",
    "MinimumResult",
    "NeighborhoodArray",
    "OrderingStrategy",
    "ParseError",
    "RestartReport",
    "RunOutcome",
    "SparseWorkTally",
    "SplitMix64",
    "TwinFailure",
    "TwinsError",
    "apply_sequence",
    "bench",
    "code_to_original",
    "cycle_graph",
    "derive_seed",
    "find_twins",
    "fit_loglog_slope",
    "gen",
    "gnp_graph",
    "greedy_code",
    "grid_graph",
    "hypercube_graph",
    "is_identifying_code",
    "lex_code_dense",
    "lex_code_sparse",
    "min2",
    "min3",
    "minimalize",
    "minimum_code",
    "near_square_grid",
    "nonminimal_grid_fixture",
    "parse_dimacs",
    "parse_edge_list",
    "parse_graph",
    "path_graph",
    "prefix_sequence",
    "run_restarts",
    "to_dimacs",
    "to_edge_list",
]
