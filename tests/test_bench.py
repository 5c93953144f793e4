import csv
import io

import pytest

from lexid import bench, fit_loglog_slope, near_square_grid


class TestHelpers:
    def test_near_square_grid(self):
        assert near_square_grid(256) == (16, 16)
        assert near_square_grid(512) == (16, 32)
        assert near_square_grid(300) == (15, 20)
        assert near_square_grid(7) == (1, 7)

    def test_near_square_grid_rejects_empty(self):
        with pytest.raises(ValueError, match="grid size must be >= 1, got 0"):
            near_square_grid(0)

    def test_fit_loglog_slope_exact(self):
        cubic = [(float(n), float(n) ** 3) for n in (64, 128, 256)]
        assert fit_loglog_slope(cubic) == pytest.approx(3.0)
        quadratic = [(float(n), 7.0 * float(n) ** 2) for n in (64, 128, 256)]
        assert fit_loglog_slope(quadratic) == pytest.approx(2.0)

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(4.0, 2.0)])


class TestBench:
    def test_samples_and_derived_rows(self):
        report = bench(["grid", "path"], [16, 36, 64], repetitions=1, seed=0)
        assert len(report.samples) == 12  # 2 families x 3 sizes x 2 algorithms
        grid_dense = report.sample("grid", 16, "dense")
        assert grid_dense.max_degree == 4
        assert grid_dense.work_units > 0
        assert report.slope("grid", "dense") > report.slope("grid", "sparse")
        assert dict(report.crossovers).keys() == {"grid", "path"}

    def test_work_counters_deterministic(self):
        a = bench(["grid"], [16, 25], repetitions=1, seed=3)
        b = bench(["grid"], [16, 25], repetitions=1, seed=3)
        for sa, sb in zip(a.samples, b.samples):
            assert (sa.family, sa.n, sa.algorithm, sa.work_units) == (
                sb.family,
                sb.n,
                sb.algorithm,
                sb.work_units,
            )

    def test_twin_instances_skipped_with_note(self):
        report = bench(["cycle"], [3, 8], repetitions=1, seed=0)  # C3 is all twins
        assert ("cycle", 3, "twins 1 2") in report.skipped
        assert {s.n for s in report.samples} == {8}

    def test_invalid_hypercube_size_skipped(self):
        report = bench(["hypercube"], [8, 12], repetitions=1, seed=0)
        assert {s.n for s in report.samples} == {8}
        assert any(fam == "hypercube" and size == 12 for fam, size, _ in report.skipped)

    def test_zero_size_skipped(self):
        report = bench(["grid", "path", "hypercube"], [0, 16], repetitions=1, seed=0)
        assert {s.n for s in report.samples} == {16}
        assert ("grid", 0, "grid size must be >= 1, got 0") in report.skipped
        assert ("hypercube", 0, "hypercube size must be a power of two, got 0") in report.skipped
        assert any(fam == "path" and size == 0 for fam, size, _ in report.skipped)

    def test_gnp_family_runs(self):
        report = bench(["gnp"], [24], repetitions=1, seed=5, gnp_p=0.4)
        assert {s.algorithm for s in report.samples} <= {"dense", "sparse"}

    def test_rejects_bad_repetitions(self):
        with pytest.raises(ValueError, match="repetitions"):
            bench(["grid"], [16], repetitions=0)

    def test_csv_shape(self):
        report = bench(["grid"], [16, 25], repetitions=1, seed=0)
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        header, body = rows[0], rows[1:]
        assert header == [
            "record", "family", "n", "max_degree", "algorithm",
            "median_seconds", "work_units", "value",
        ]
        kinds = {row[0] for row in body}
        assert {"sample", "slope", "crossover"} <= kinds
        samples = [row for row in body if row[0] == "sample"]
        assert len(samples) == 4
        for row in samples:
            assert float(row[5]) >= 0.0
            assert int(row[6]) > 0
