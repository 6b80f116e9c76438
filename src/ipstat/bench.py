"""Benchmark driver: time the methods, validate answers, emit CSV.

One run covers the cartesian product methods x k values; each cell is
timed over ``reps`` repetitions and lands as one CSV row carrying the
total elapsed seconds plus the per-repetition mean and sample standard
deviation (empty under two repetitions). Every timed repetition is a
complete query — open the input, count, and extract top-k — so rows
compare end-to-end cost, including ssmb's spill of the decoded input and
every one of its passes and zero-fills, not warm caches of a pre-parsed
file.

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

from .baselines import hash_top_k, ipmap_top_k
from .datagen import load_truth
from .errors import InvalidPlan, ValidationFailure
from .model import FileSource, to_u32
from .parallel import combined_stats, parallel_top_k
from .ssmb import ssmb_top_k
from .tlmb import tlmb_top_k
from .topk import HeapEntry

METHODS = ("tlmb", "ssmb", "hash", "ipmap")


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


def run_method(path, method: str, k: int, workers: int = 1, fmt: str = "auto") -> tuple[list[HeapEntry], dict]:
    """Run one complete top-k query from a file; returns (entries, stats)."""
    source = FileSource(path, fmt=fmt)
    if workers > 1:
        if method not in ("tlmb", "ssmb"):
            raise InvalidPlan(f"method {method!r} has no partition scheme; run it with workers=1")
        entries, results = parallel_top_k(source, method, k, workers)
        return entries, combined_stats(results)
    runners = {"tlmb": tlmb_top_k, "ssmb": ssmb_top_k, "hash": hash_top_k, "ipmap": ipmap_top_k}
    if method not in runners:
        raise InvalidPlan(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    return runners[method](source, k)


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
    fmt: str = "auto",
) -> list[BenchRow]:
    """Benchmark every (method, k) cell; the first and every timed answer are validated."""
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    truth = load_truth(truth_path)
    rows = []
    for method in methods:
        for k in ks:
            label = f"{method} k={k} workers={workers}"
            entries, stats = run_method(input_path, method, k, workers, fmt)
            validate_entries(entries, truth, k, label)
            for _ in range(warmup):
                run_method(input_path, method, k, workers, fmt)
            times = []
            for _ in range(reps):
                started = time.perf_counter()
                entries, stats = run_method(input_path, method, k, workers, fmt)
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
