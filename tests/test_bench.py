"""Benchmark driver: per-cell rows, validation gate, CSV output."""

import csv

import numpy as np
import pytest

from conftest import as_pairs, oracle_top_k
from ipstat import DatasetSpec, ValidationFailure, generate, load_truth, run_bench, run_method, write_csv
from ipstat import bench
from ipstat.bench import validate_entries


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    out = root / "ds.txt"
    generate(DatasetSpec(records=30_000, distinct=300, seed=31, first_octet_cap=3), out)
    return out, root / "ds.txt.truth"


class TestRunMethod:
    def test_each_method_answers_correctly(self, dataset):
        path, truth_path = dataset
        truth = load_truth(truth_path)
        from ipstat import open_stream

        values = open_stream(path).read_all()
        for method in ("tlmb", "ssmb", "hash", "ipmap"):
            entries, stats = run_method(path, method, 10)
            assert as_pairs(entries) == oracle_top_k(values, 10) == truth[:10], method
            assert stats["records_ingested"] == 30_000

    def test_parallel_methods_match_serial(self, dataset):
        path, _ = dataset
        for method in ("tlmb", "ssmb"):
            serial, _ = run_method(path, method, 10)
            parallel, stats = run_method(path, method, 10, workers=2)
            assert parallel == serial, method
            assert stats["records_ingested"] == 30_000


class TestValidation:
    def test_validate_passes_on_truth(self, dataset):
        path, truth_path = dataset
        truth = load_truth(truth_path)
        entries, _ = run_method(path, "tlmb", 5)
        validate_entries(entries, truth, 5, "tlmb k=5")

    def test_validate_names_first_divergent_rank(self, dataset):
        path, truth_path = dataset
        truth = load_truth(truth_path)
        entries, _ = run_method(path, "tlmb", 5)
        doctored = truth[:]
        doctored[2] = (doctored[2][0], doctored[2][1] + 1)
        with pytest.raises(ValidationFailure, match="rank 3"):
            validate_entries(entries, doctored, 5, "tlmb k=5")

    def test_bench_validates_every_timed_repetition(self, dataset, monkeypatch):
        path, truth_path = dataset
        calls = []

        def wrong_on_second_call(*args, **kwargs):
            entries, stats = run_method(*args, **kwargs)
            calls.append(1)
            return (entries[::-1] if len(calls) == 2 else entries), stats

        monkeypatch.setattr(bench, "run_method", wrong_on_second_call)
        with pytest.raises(ValidationFailure):
            run_bench(path, truth_path, ["tlmb"], [5], reps=3)
        assert len(calls) == 2

    def test_bench_aborts_on_wrong_truth(self, dataset, tmp_path):
        path, _ = dataset
        bogus = tmp_path / "bogus.truth"
        bogus.write_text("9.9.9.9\t99999\n")
        with pytest.raises(ValidationFailure):
            run_bench(path, bogus, ["tlmb"], [1], reps=1)


class TestRows:
    def test_row_per_cell_with_stats(self, dataset):
        path, truth_path = dataset
        rows = run_bench(path, truth_path, ["tlmb", "hash"], [1, 10], reps=2)
        assert [(r.method, r.k) for r in rows] == [("tlmb", 1), ("tlmb", 10), ("hash", 1), ("hash", 10)]
        for row in rows:
            assert row.n == 30_000
            assert row.repetitions == 2
            assert row.elapsed_seconds > 0
            assert row.mean == pytest.approx(row.elapsed_seconds / 2)
            assert isinstance(row.stddev, float)
            assert row.os_peak_bytes > 0
            assert row.dataset_path == str(path)

    def test_stddev_empty_for_single_rep(self, dataset):
        path, truth_path = dataset
        (row,) = run_bench(path, truth_path, ["hash"], [5], reps=1)
        assert row.stddev == ""

    def test_ssmb_row_reports_constant_tracked_bytes(self, dataset):
        path, truth_path = dataset
        (row,) = run_bench(path, truth_path, ["ssmb"], [10], reps=1)
        assert row.tracked_bytes == 134_217_728

    def test_warmup_runs_do_not_add_rows(self, dataset):
        path, truth_path = dataset
        rows = run_bench(path, truth_path, ["hash"], [5], reps=1, warmup=2)
        assert len(rows) == 1

    def test_reps_must_be_positive(self, dataset):
        path, truth_path = dataset
        with pytest.raises(ValueError):
            run_bench(path, truth_path, ["hash"], [5], reps=0)


class TestCsv:
    def test_csv_shape(self, dataset, tmp_path):
        path, truth_path = dataset
        rows = run_bench(path, truth_path, ["tlmb", "ssmb"], [10], reps=1)
        out = tmp_path / "rows.csv"
        write_csv(out, rows)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        with open(out) as handle:
            handle.readline()  # the comment line
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == 2
        assert parsed[0]["method"] == "tlmb"
        assert parsed[1]["tracked_bytes"] == "134217728"
        assert float(parsed[0]["elapsed_seconds"]) > 0
        assert parsed[0]["stddev"] == ""
