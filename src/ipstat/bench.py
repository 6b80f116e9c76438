"""Query driver and benchmark: run, time and validate any method; emit CSV.

``query`` is the one entry point that answers a top-k query with any
method, serial or partitioned; ``run_method`` is ``query`` over a file.

A benchmark run covers the cartesian product methods x k values; each
cell is timed over ``reps`` repetitions and lands as one CSV row
carrying the total elapsed seconds plus the per-repetition mean and
sample standard deviation (empty under two repetitions). Every timed
repetition is a complete query — open the input, count, and extract
top-k — so rows compare end-to-end cost, including ssmb's spill of the
decoded input and every one of its passes and zero-fills, not warm
caches of a pre-parsed file.

Before any repetition of a cell is timed, its answer is checked against
the ground-truth sidecar, and so is the answer of every timed repetition
(outside the timer); a wrong answer aborts the run rather than producing
a timing for it. Rows report two memory figures:
``tracked_bytes`` is the method's own accounting of its counting
structures (handle tables and count blocks exactly; for the hash table a
lower bound, the table without its key and count objects; never ssmb's
on-disk spill), ``os_peak_bytes`` is the process peak RSS,
which only grows within a process and is informational.
"""

from __future__ import annotations

import csv
import resource
import statistics
import time
from dataclasses import dataclass, fields

from .baselines import HashCounter, IpMapCounter
from .datagen import load_truth
from .errors import InvalidPlan, ValidationFailure
from .model import FileSource, to_u32
from .parallel import PartitionPlan, run_parallel
from .ssmb import SsmbCounter
from .tlmb import TlmbCounter
from .topk import HeapEntry

METHODS = ("tlmb", "ssmb", "hash", "ipmap")
# the one-pass methods: ingest_many every batch, then top_k(k) and stats()
COUNTERS = {"tlmb": TlmbCounter, "hash": HashCounter, "ipmap": IpMapCounter}


@dataclass
class BenchRow:
    """One (method, k, workers) cell aggregated over its repetitions."""

    method: str
    dataset_path: str
    n: int
    k: int
    workers: int
    elapsed_seconds: float
    tracked_bytes: int
    os_peak_bytes: int
    repetitions: int
    mean: float
    stddev: float | str


def check_method(method: str, workers: int) -> None:
    """Raise InvalidPlan unless ``query`` can run ``method`` with ``workers``."""
    if method not in METHODS:
        raise InvalidPlan(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    if workers < 1:
        raise InvalidPlan(f"worker count must be at least 1, got {workers}")
    if workers > 1 and method not in ("tlmb", "ssmb"):
        raise InvalidPlan(f"method {method!r} has no partition scheme; run it with workers=1")


def query(source, method: str, k: int, workers: int = 1) -> tuple[list[HeapEntry], dict]:
    """One complete top-k query over a record source; returns (entries, stats).

    Every method opens ``source`` once. ssmb reads it into a spill and runs
    its subset passes over one block; with ``workers > 1`` it aggregates,
    scatters and sweeps on that many threads (at most 256 ranges), so its
    stats are one counter's for every W: one block of ``tracked_bytes``,
    ``passes`` == q, one ``spill_bytes``, and ``workers``, the sweep ranges.
    tlmb with ``workers > 1`` is partitioned; its stats carry every key of
    the serial stats, each the sum of the workers', plus ``workers``.
    """
    check_method(method, workers)
    if method == "ssmb":
        counter = SsmbCounter(workers)
        return counter.top_k(source, k), counter.stats()
    if workers > 1:
        # the plan has no owners yet: the query cuts them from the first batch it reads
        entries, results = run_parallel(source, PartitionPlan(workers), k)
        stats = {"workers": len(results)}
        for result in results:
            for key, value in result.stats.items():
                stats[key] = stats.get(key, 0) + value
        return entries, stats
    counter = COUNTERS[method]()
    for batch in source.open().batches():
        counter.ingest_many(batch)
    return counter.top_k(k), counter.stats()


def run_method(path, method: str, k: int, workers: int = 1, fmt: str = "auto") -> tuple[list[HeapEntry], dict]:
    """Run one complete top-k query from a file; returns (entries, stats)."""
    return query(FileSource(path, fmt=fmt), method, k, workers)


def validate_entries(entries: list[HeapEntry], truth: list[tuple[int, int]], k: int, label: str) -> None:
    """Raise ValidationFailure unless entries equal the true top-k exactly."""
    got = [(to_u32(e.address), e.count) for e in entries]
    want = truth[:k]
    if got != want:
        for position, (g, w) in enumerate(zip(got, want), start=1):
            if g != w:
                raise ValidationFailure(f"{label}: rank {position} is {g}, ground truth says {w}")
        raise ValidationFailure(f"{label}: got {len(got)} entries, ground truth has {len(want)}")


def run_bench(
    input_path,
    truth_path,
    methods: list[str],
    ks: list[int],
    reps: int,
    workers: int = 1,
    warmup: int = 0,
) -> list[BenchRow]:
    """Benchmark every (method, k) cell; the first and every timed answer are validated."""
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    # every (method, workers) pair is checked before any cell is timed
    for method in methods:
        check_method(method, workers)
    truth = load_truth(truth_path)
    rows = []
    for method in methods:
        for k in ks:
            label = f"{method} k={k} workers={workers}"
            entries, stats = run_method(input_path, method, k, workers)
            validate_entries(entries, truth, k, label)
            for _ in range(warmup):
                run_method(input_path, method, k, workers)
            times = []
            for _ in range(reps):
                started = time.perf_counter()
                entries, stats = run_method(input_path, method, k, workers)
                times.append(time.perf_counter() - started)
                validate_entries(entries, truth, k, label)
            rows.append(
                BenchRow(
                    method=method,
                    dataset_path=str(input_path),
                    n=stats.get("records_ingested", 0),
                    k=k,
                    workers=workers,
                    elapsed_seconds=sum(times),
                    tracked_bytes=stats.get("tracked_bytes", 0),
                    os_peak_bytes=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
                    repetitions=reps,
                    mean=sum(times) / reps,
                    stddev=statistics.stdev(times) if reps >= 2 else "",
                )
            )
    return rows


def write_csv(path, rows: list[BenchRow]) -> None:
    """Write rows with a header; a leading comment states what was timed."""
    names = [f.name for f in fields(BenchRow)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(
            "# timings span complete queries (read records, count, extract top-k; "
            "multi-pass methods include every pass and zero-fill); "
            "os_peak_bytes is process peak RSS and only grows within a run\n"
        )
        writer = csv.writer(handle)
        writer.writerow(names)
        for row in rows:
            writer.writerow([getattr(row, name) for name in names])
