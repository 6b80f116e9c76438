"""Benchmark driver: per-cell rows, validation gate, CSV output."""

import csv
import gc
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import CountingSource, as_pairs, oracle_top_k, read_all
from ipstat import (
    CountOverflow,
    DatasetSpec,
    FileSource,
    InvalidPlan,
    TlmbCounter,
    ValidationFailure,
    generate,
    load_truth,
    query,
    run_bench,
    run_method,
    write_csv,
)
from ipstat import bench, model
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

        values = read_all(open_stream(path))
        for method in ("tlmb", "ssmb", "hash", "ipmap"):
            entries, stats = run_method(path, method, 10)
            assert as_pairs(entries) == oracle_top_k(values, 10) == truth[:10], method
            assert stats["records_ingested"] == 30_000

    def test_parallel_methods_match_serial(self, dataset):
        path, _ = dataset
        for method in ("tlmb", "ssmb"):
            serial, serial_stats = run_method(path, method, 10)
            parallel, stats = run_method(path, method, 10, workers=2)
            assert parallel == serial, method
            assert stats["records_ingested"] == 30_000
            assert stats.keys() >= serial_stats.keys() | {"workers"}, method
            # ssmb builds one spill for all its sweep threads, so it is reported once, not per thread
            for key in ("records_ingested", "q", "passes", "allocated_second_blocks", "first_layer_bytes", "spill_bytes"):
                assert stats.get(key) == serial_stats.get(key), (method, key)
        assert serial_stats["spill_bytes"] > 0

    @pytest.mark.parametrize("workers", [0, -1])
    @pytest.mark.parametrize("method", ["tlmb", "ssmb", "hash", "ipmap"])
    def test_worker_count_below_one_is_rejected_before_opening(self, dataset, method, workers):
        source = CountingSource(FileSource(dataset[0]))
        with pytest.raises(InvalidPlan, match="worker count must be at least 1"):
            query(source, method, 10, workers)
        assert source.opens == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_text_query_closes_its_file(self, tmp_path, monkeypatch, workers):
        path = tmp_path / "two_octets.txt"
        path.write_text("1.2.3.4\n200.1.1.1\n" * 10)
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        calls = []

        def fail(self, values, counts):
            calls.append(values.size)
            if len(calls) > allowed:
                raise CountOverflow("an address count would exceed the 64-bit range")

        monkeypatch.setattr(model, "open", recording_open, raising=False)
        monkeypatch.setattr(TlmbCounter, "add_runs", fail)
        # a batch of two or three lines, so later batches are still unread when one fails
        monkeypatch.setattr(model, "TEXT_CHUNK_BYTES", 24)
        # with the cyclic collector off, only reference counting can close the file
        gc.disable()
        try:
            # fail on the first batch, then on the third counter call (after the first batch)
            for allowed in (0, 2):
                handles.clear()
                calls.clear()
                with pytest.raises(CountOverflow):
                    query(FileSource(path), "tlmb", 1, workers)
                assert len(calls) > allowed
                assert len(handles) == 1 and handles[0].closed
        finally:
            gc.enable()


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

    @pytest.mark.parametrize("unpartitioned", ["hash", "ipmap"])
    def test_bench_rejects_a_method_without_partitions_before_any_query(self, dataset, monkeypatch, unpartitioned):
        path, truth_path = dataset
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return run_method(*args, **kwargs)

        monkeypatch.setattr(bench, "run_method", counted)
        with pytest.raises(InvalidPlan, match=f"method '{unpartitioned}' has no partition scheme"):
            run_bench(path, truth_path, ["ssmb", unpartitioned], [5], reps=1, workers=2)
        assert calls == []

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


class TestReadme:
    def test_library_example_runs(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
        assert blocks
        (tmp_path / "data.txt").write_text("1.2.3.4\n5.6.7.8\n1.2.3.4\n")
        monkeypatch.chdir(tmp_path)
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out.startswith("1.2.3.4 2\n5.6.7.8 1\n")


# One traced query per benchmark cell, as perfbench/child.py runs it, in a
# fresh interpreter: the tracer wraps ipstat's entry points by name, so a
# renamed or re-signed one breaks the benchmark's --trace 1 run.
_TRACED_CELLS = """
import sys, time
root, path, truth_path = sys.argv[1:]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import tracer as tracing
from run import CELLS
from ipstat.bench import run_method, validate_entries
from ipstat.datagen import load_truth

truth = load_truth(truth_path)
records = sum(count for _, count in truth)
octets = len({address >> 24 for address, _ in truth})
tracer = tracing.Tracer()
tracing.install(tracer)
for cell, (method, workers) in CELLS.items():
    tracer.spans.clear()
    tracer.counter_stats.clear()
    started = time.perf_counter()
    with tracer.span("bench.run_method"):
        entries, _ = run_method(path, method, 10, workers)
    seconds = time.perf_counter() - started
    validate_entries(entries, truth, 10, cell)
    trace = {
        "spans": tracer.spans,
        "counter_stats": [[layer, n, stats] for (layer, n), stats in tracer.counter_stats.items()],
        "worker_records": tracer.worker_records,
        "seconds": seconds,
    }
    values = tracing.layer_values(method, workers, trace, seconds)
    assert values["model.opens"] == 1 and values["model.records_decoded"] == records, (cell, values)
    assert values["topk.candidates"] > 0, (cell, values)
    if method == "ssmb":
        assert values["ssmb.zeroing_ok"] == 1 and values["ssmb.passes"] == octets, (cell, values)
    # the tracer times ingest by wrapping ingest_many; a serial cell that skips it would read 0
    if cell == "tlmb":
        assert values["tlmb.ingest_s"] > 0, (cell, values)
    if method in ("hash", "ipmap"):
        assert values["baselines.ingest_s"] > 0, (cell, values)
    print(cell)
"""


def test_traced_query_of_every_benchmark_cell(dataset):
    path, truth_path = dataset
    root = Path(__file__).resolve().parent.parent
    # -B: the test only reads perfbench/, it leaves no bytecode there
    done = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_CELLS, str(root), str(path), str(truth_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["tlmb", "tlmb_w2", "ssmb", "ssmb_w2", "hash", "ipmap"]
