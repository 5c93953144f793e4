import csv
import importlib
import io

import pytest

from lexid import Code, bench, fit_loglog_slope, near_square_grid
from lexid.cli import main


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
        with pytest.raises(ValueError, match="at least two distinct sizes"):
            fit_loglog_slope([(4.0, 2.0), (4.0, 3.0)])


class TestBench:
    def test_samples_and_derived_rows(self):
        report = bench(["grid", "path"], [16, 36, 64], repetitions=1, seed=0)
        assert len(report.samples) == 12  # 2 families x 3 sizes x 2 algorithms
        grid_dense = report.sample("grid", 16, "dense")
        assert grid_dense.max_degree == 4
        assert grid_dense.work_units > 0
        assert report.slope("grid", "dense") > report.slope("grid", "sparse")
        with pytest.raises(KeyError, match=r"no slope for \(cycle, dense\)"):
            report.slope("cycle", "dense")
        with pytest.raises(KeyError, match=r"no sample for \(grid, 25, dense\)"):
            report.sample("grid", 25, "dense")

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

    def test_a_dense_sparse_disagreement_raises(self, monkeypatch):
        module = importlib.import_module("lexid.bench")  # the package's `bench` is the function
        monkeypatch.setattr(module, "lex_code_dense", lambda matrix, tally=None: Code((1,)))
        with pytest.raises(RuntimeError, match="dense/sparse disagree on grid n=16"):
            bench(["grid"], [16], repetitions=1, seed=0)

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

    @pytest.mark.parametrize("p", [float("nan"), float("inf"), 2.0, -0.1])
    def test_rejects_a_bad_gnp_p_before_any_instance(self, p, monkeypatch):
        module = importlib.import_module("lexid.bench")
        monkeypatch.setattr(module, "sized_instance", None)  # building any instance would fail
        with pytest.raises(ValueError) as info:
            bench(["grid", "gnp"], [8], repetitions=1, gnp_p=p)
        assert str(info.value) == f"gnp needs 0 <= p <= 1, got {p}"
        bench(["grid"], [], gnp_p=p)  # p matters only to gnp

    def test_unknown_family_fails_before_any_instance(self, monkeypatch):
        module = importlib.import_module("lexid.bench")
        monkeypatch.setattr(module, "sized_instance", None)
        with pytest.raises(ValueError, match="^unknown bench family 'torus'; choose from path, "):
            bench(["grid", "torus"], [8], repetitions=1)

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
        assert kinds == {"sample", "slope"}
        samples = [row for row in body if row[0] == "sample"]
        assert len(samples) == 4
        for row in samples:
            assert float(row[5]) >= 0.0
            assert int(row[6]) > 0

    def test_a_twin_free_bench_never_looks_for_twins(self, monkeypatch):
        module = importlib.import_module("lexid.bench")
        calls = []
        find_twins = module.find_twins
        monkeypatch.setattr(module, "find_twins", lambda g: calls.append(g) or find_twins(g))
        report = bench(["grid", "path"], [16, 36], repetitions=1, seed=0)
        assert len(report.samples) == 8 and report.skipped == ()
        assert calls == []

    def test_a_twin_instance_keeps_its_skipped_row(self, capsys):
        assert main(["bench", "--families", "path", "--sizes", "2,8", "--reps", "1"]) == 0
        rows = capsys.readouterr().out.splitlines(keepends=True)
        assert [row for row in rows if row.startswith("skipped")] == ["skipped,path,2,,,,,twins 1 2\r\n"]
        assert [row.split(",")[2] for row in rows if row.startswith("sample")] == ["8", "8"]
