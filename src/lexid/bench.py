"""Benchmark runner: wall times, model work counters, and log-log slopes.

The scaling claims are about abstract operation counts, not seconds, so work
counters are first-class outputs; wall times are reported alongside because
the sparse variant should also win in practice on bounded-degree inputs.

Every instance is uniformly relabeled (seeded, deterministic) before being
measured.  Generated labelings are degenerate best cases: on a row-major
grid or a sequential path, vertex j's smallest neighbor has index j-1 or
lower-by-one-row, coverage perpetually lags the scan front, and nearly every
step takes the cheap uncovered branch, so the duplicate-row search that
dominates the cost bounds never engages.  A random relabeling restores the
typical case those bounds describe.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
import time
from dataclasses import dataclass

from .dense import DenseWorkTally, lex_code_dense
from .generate import FAMILIES, _check_gnp_p, sized_instance
from .graph import TwinFailure, find_twins
from .orderings import OrderingStrategy, apply_sequence
from .rng import SplitMix64, derive_seed
from .sparse import SparseWorkTally, lex_code_sparse

CSV_COLUMNS = (
    "record",
    "family",
    "n",
    "max_degree",
    "algorithm",
    "median_seconds",
    "work_units",
    "value",
)


@dataclass(frozen=True)
class BenchSample:
    """One (instance, algorithm) measurement."""

    family: str
    n: int
    max_degree: int
    algorithm: str
    median_seconds: float
    work_units: int


@dataclass(frozen=True)
class BenchReport:
    """All samples plus per-(family, algorithm) slopes of the work counters."""

    samples: tuple[BenchSample, ...]
    slopes: tuple[tuple[str, str, float], ...]  # (family, algorithm, slope)
    skipped: tuple[tuple[str, int, str], ...]  # (family, requested size, reason)

    def slope(self, family: str, algorithm: str) -> float:
        for fam, alg, value in self.slopes:
            if fam == family and alg == algorithm:
                return value
        raise KeyError(f"no slope for ({family}, {algorithm})")

    def sample(self, family: str, n: int, algorithm: str) -> BenchSample:
        for s in self.samples:
            if s.family == family and s.n == n and s.algorithm == algorithm:
                return s
        raise KeyError(f"no sample for ({family}, {n}, {algorithm})")

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(CSV_COLUMNS)
        for s in self.samples:
            writer.writerow(
                ["sample", s.family, s.n, s.max_degree, s.algorithm,
                 f"{s.median_seconds:.6f}", s.work_units, ""]
            )
        for family, algorithm, value in self.slopes:
            writer.writerow(["slope", family, "", "", algorithm, "", "", f"{value:.4f}"])
        for family, size, reason in self.skipped:
            writer.writerow(["skipped", family, size, "", "", "", "", reason])
        return out.getvalue()


def fit_loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x); needs >= 2 distinct x."""
    if len(points) < 2:
        raise ValueError("slope fit needs at least two points")
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("slope fit needs at least two distinct sizes")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


def _median_time(run, repetitions: int) -> float:
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def bench(
    families: list[str],
    sizes: list[int],
    repetitions: int = 3,
    seed: int = 0,
    gnp_p: float = 0.3,
) -> BenchReport:
    """Measure both constructors on every (family, size); skip twin instances.

    Each instance is relabeled by a uniform permutation drawn from
    derive_seed(seed, n) before measurement (see the module docstring).  Per
    instance: one instrumented run per algorithm for the deterministic work
    counters, plus wall-time medians over `repetitions` uninstrumented runs.
    The instrumented dense run comes first; if it fails on twins, the instance
    is skipped with find_twins' pair.  Dense and sparse outputs are
    cross-checked on every instance.  An unknown family, or with gnp a gnp_p
    outside [0, 1], raises ValueError before any instance is built.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    for family in families:
        if family not in FAMILIES:
            raise ValueError(f"unknown bench family {family!r}; choose from {', '.join(FAMILIES)}")
    if "gnp" in families:
        _check_gnp_p(gnp_p)
    samples: list[BenchSample] = []
    skipped: list[tuple[str, int, str]] = []
    for family in families:
        for size in sizes:
            try:
                g = sized_instance(family, size, seed, gnp_p)
            except ValueError as exc:
                skipped.append((family, size, str(exc)))
                continue
            sequence = OrderingStrategy("random").sequence_for(g, SplitMix64(derive_seed(seed, g.n)))
            # runs in index order on the relabeled graph are faster than in-order scans
            relabeled = apply_sequence(g, sequence)
            array, matrix = relabeled.neighborhood_array, relabeled.neighborhood_matrix
            dense_tally = DenseWorkTally()
            dense_out = lex_code_dense(matrix, tally=dense_tally)
            if isinstance(dense_out, TwinFailure):  # twins survive any relabeling
                twins = find_twins(g)
                skipped.append((family, size, f"twins {twins[0]} {twins[1]}"))
                continue
            dense_seconds = _median_time(lambda: lex_code_dense(matrix), repetitions)
            sparse_seconds = _median_time(lambda: lex_code_sparse(array), repetitions)
            sparse_tally = SparseWorkTally()
            sparse_out = lex_code_sparse(array, tally=sparse_tally)
            if dense_out != sparse_out:
                raise RuntimeError(f"dense/sparse disagree on {family} n={g.n}")
            samples.append(
                BenchSample(family, g.n, g.max_degree, "dense", dense_seconds, dense_tally.total)
            )
            samples.append(
                BenchSample(family, g.n, g.max_degree, "sparse", sparse_seconds, sparse_tally.total)
            )
    slopes: list[tuple[str, str, float]] = []
    for family in families:
        for algorithm in ("dense", "sparse"):
            points = [
                (float(s.n), float(s.work_units))
                for s in samples
                if s.family == family and s.algorithm == algorithm
            ]
            if len(set(x for x, _ in points)) >= 2:
                slopes.append((family, algorithm, fit_loglog_slope(points)))
    return BenchReport(
        samples=tuple(samples),
        slopes=tuple(slopes),
        skipped=tuple(skipped),
    )
