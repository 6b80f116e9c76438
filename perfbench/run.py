#!/usr/bin/env python3
"""Seeded per-method query benchmark for ipstat.

Run from the repository root:

    python3 perfbench/run.py --workload bin-cap4-zipf --seed 42 --seconds 55 --trace 0

One run takes about ``--seconds`` and has two steps.

1. Measurement. The workload's query cells take turns, each getting about
   the same share of ``--seconds``, until the next query would end past it;
   every cell runs at least once. Each query is one complete
   ``ipstat.bench.run_method`` call (k = 100) in a fresh process, forked
   by the query server of child.py. The load is closed-loop: one client,
   one query at a time. ``query_s.<cell>`` is the median wall time of that
   call, timed inside the query process. ``peak_rss_mb.<cell>`` is the
   median ``ru_maxrss`` of the query's own process. Every answer is
   compared with the truth. A wrong answer, an exception, a nonzero exit
   or a killed process counts as a failed query and gives no timing.

   A fixed reference work without ipstat (child.reference) takes its turn
   with the cells. ``query_vs_ref.<cell>`` is ``query_s.<cell>`` over its
   median ``reference_s``. A shared virtual machine can run up to about
   1.5 times slower for minutes at a time; the ratio cancels most of that,
   and the seconds do not (README.md, "Timing noise").

   ``setup_s`` is the median of SETUP_REPS set-ups, spread over the run. A
   set-up generates the workload's dataset and truth sidecar from its spec
   and ``--seed``, loads the truth, checks that the sidecar's total equals
   the records written, and warms the page cache with one read of the
   file. Nothing drops the page cache.
2. With ``--trace 1``, one more query per cell runs with the tracer of
   tracer.py installed, and the per-layer metrics ``<cell>.<layer>.<metric>``
   are reported in place of the end-to-end ones.

Every metric is printed as a named line with its unit and sample count.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Its metrics are ``setup_s`` and
the ``query_vs_ref`` and ``peak_rss_mb`` of the cells that every workload
runs (COMMON_CELLS); the other lines cover every cell of the workload. The
exit code is 0 only when every query was answered correctly. Why each
workload exists, and what each leaves out, is in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORKDIR = ROOT / ".perfbench_work"

K = 100
SETUP_REPS = 5
QUERY_TIMEOUT_S = 150
MIB = float(1 << 20)

# cell -> (method, workers)
CELLS = {
    "tlmb": ("tlmb", 1),
    "tlmb_w2": ("tlmb", 2),
    "ssmb": ("ssmb", 1),
    "ssmb_w2": ("ssmb", 2),
    "hash": ("hash", 1),
    "ipmap": ("ipmap", 1),
}
# The cells every workload runs; only their metrics go into the JSON line.
COMMON_CELLS = ("tlmb", "tlmb_w2", "ssmb", "ssmb_w2", "hash")
# The fixed work of child.reference; it runs in turn with the cells.
REFERENCE = "reference"


@dataclass(frozen=True)
class Workload:
    """A dataset spec (every DatasetSpec field but the seed) and the cells run on it."""

    spec: dict
    cells: tuple[str, ...] = COMMON_CELLS


WORKLOADS = {
    "text-cap4": Workload(dict(records=1_000_000, distinct=10_000, first_octet_cap=4, file_format="text")),
    "bin-cap4-zipf": Workload(
        dict(
            records=5_000_000,
            distinct=50_000,
            distribution="zipf",
            zipf_exponent=1.1,
            first_octet_cap=4,
            file_format="binary",
        ),
        COMMON_CELLS + ("ipmap",),
    ),
}


def end_to_end_units(cells) -> dict[str, str]:
    """The metrics the JSON line carries without --trace."""
    units = {"setup_s": "s"}
    units.update({f"query_vs_ref.{cell}": "ratio" for cell in cells})
    units.update({f"peak_rss_mb.{cell}": "MiB" for cell in cells})
    return units


def per_layer_units(cells) -> dict[str, str]:
    return {
        f"{cell}.{name}": unit for cell in cells for name, unit in tracer.layer_units(*CELLS[cell]).items()
    }


@dataclass
class Dataset:
    path: Path
    records: int
    first_octets: int
    top: list[list[int]]  # the true top-k as [address u32, count]


@dataclass
class Sample:
    seconds: float
    rss_mib: float
    tracked_bytes: int
    trace: dict | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    samples: dict[str, list[Sample]] = field(default_factory=dict)
    reference: list[float] = field(default_factory=list)


def set_up(name: str, workload: Workload, seed: int) -> tuple[Dataset, float]:
    """Generate, load and check the workload's dataset; returns it and the seconds taken."""
    from ipstat.datagen import DatasetSpec, generate, load_truth

    started = time.perf_counter()
    spec = DatasetSpec(seed=seed, **workload.spec)
    WORKDIR.mkdir(exist_ok=True)
    path = WORKDIR / f"{name}.{'txt' if spec.file_format == 'text' else 'bin'}"
    report = generate(spec, path)
    truth = load_truth(report["ground_truth_path"])
    total = sum(count for _, count in truth)
    if total != report["written_records"] or total != spec.records:
        raise RuntimeError(
            f"{name}: truth sidecar totals {total} records, "
            f"the dataset holds {report['written_records']}, the spec asks for {spec.records}"
        )
    with open(path, "rb") as handle:
        while handle.read(8 << 20):
            pass
    seconds = time.perf_counter() - started
    first_octets = len({address >> 24 for address, _ in truth})
    return Dataset(path, total, first_octets, [list(pair) for pair in truth[:K]]), seconds


class QueryServer:
    """The child.py server: forks one fresh process per query, one query at a time."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            text=True,
            start_new_session=True,
        )

    def run(self, job: dict) -> dict:
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"the query server exited with code {self.proc.wait()}")
        return json.loads(reply)

    def __enter__(self):
        return self

    def __exit__(self, kind, *_):
        try:
            if kind is None:
                self.proc.stdin.close()
                self.proc.wait(timeout=QUERY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self.proc.poll() is None:
                os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            self.proc.stdout.close()


def run_query(server: QueryServer, dataset: Dataset, cell: str, trace: bool) -> Sample | None:
    """One query in a fresh process; None when it failed (reported on stderr)."""
    method, workers = CELLS[cell]
    job = {"path": str(dataset.path), "method": method, "workers": workers, "k": K, "trace": trace}
    reply = server.run(dict(job, timeout=QUERY_TIMEOUT_S))
    code = reply["status"]
    if code != 0:
        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
        print(f"FAILED {cell}: query process {how}", file=sys.stderr)
        return None
    result = reply["result"]
    if result["entries"] != dataset.top:
        rank = next(
            (i for i, (got, want) in enumerate(zip(result["entries"], dataset.top), start=1) if got != want),
            min(len(result["entries"]), len(dataset.top)) + 1,
        )
        print(f"FAILED {cell}: answer differs from the truth at rank {rank}", file=sys.stderr)
        return None
    if result["records"] != dataset.records:
        print(f"FAILED {cell}: counted {result['records']} records of {dataset.records}", file=sys.stderr)
        return None
    return Sample(result["seconds"], reply["maxrss_kib"] / 1024.0, result["tracked_bytes"], result if trace else None)


def run_reference(server: QueryServer) -> float:
    """Seconds of child.py's fixed reference work, in a fresh process like a query."""
    reply = server.run({"method": "reference", "timeout": QUERY_TIMEOUT_S})
    if reply["status"] != 0:
        raise RuntimeError(f"the reference work failed with exit status {reply['status']}")
    return reply["result"]["seconds"]


def attempt(server: QueryServer, tally: Tally, dataset: Dataset, cell: str, trace: bool) -> Sample | None:
    tally.attempted += 1
    sample = run_query(server, dataset, cell, trace)
    if sample is None:
        tally.failed += 1
    return sample


def measure(server: QueryServer, name: str, workload: Workload, seed: int, seconds: float):
    """Set up SETUP_REPS times and query until the next query would overrun ``seconds``.

    Set-up number i starts once i / SETUP_REPS of ``seconds`` has passed, so
    the set-ups are spread over the run like the queries; a run too short
    for them ends with the rest. Every set-up must give the same dataset.
    The next query always goes to the cell with the least wall time spent
    so far, so cells take turns and each gets about the same share of the
    run: a fast cell collects more samples than a slow one. The reference
    work takes its turns as one more cell. Every cell runs at least once.
    Returns the dataset, the set-up seconds and the tally.
    """
    cells = workload.cells + (REFERENCE,)
    tally = Tally(samples={cell: [] for cell in workload.cells})
    spent = {cell: 0.0 for cell in cells}
    runs = {cell: 0 for cell in cells}
    setups: list[float] = []
    dataset = None

    def set_up_again() -> None:
        nonlocal dataset
        again, seconds_taken = set_up(name, workload, seed)
        if dataset is not None and (again.records, again.top) != (dataset.records, dataset.top):
            raise RuntimeError(f"{name}: seed {seed} gave a different dataset on set-up {len(setups) + 1}")
        dataset = again
        setups.append(seconds_taken)

    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if len(setups) < SETUP_REPS and elapsed >= len(setups) * seconds / SETUP_REPS:
            set_up_again()
            continue
        cell = min(cells, key=lambda c: (runs[c] > 0, spent[c]))
        if runs[cell] and elapsed + spent[cell] / runs[cell] > seconds:
            break
        query_started = time.perf_counter()
        if cell == REFERENCE:
            tally.reference.append(run_reference(server))
        else:
            sample = attempt(server, tally, dataset, cell, trace=False)
            if sample is not None:
                tally.samples[cell].append(sample)
        spent[cell] += time.perf_counter() - query_started
        runs[cell] += 1
    while len(setups) < SETUP_REPS:
        set_up_again()
    return dataset, setups, tally


def spread_note(values: list[float]) -> str:
    """Sample count, plus the highest tail percentile with ten samples beyond it."""
    note = f"median of n={len(values)}"
    for share in (0.99, 0.9):
        if len(values) * (1 - share) >= 10:
            cut = statistics.quantiles(values, n=100)[round(share * 100) - 1]
            return f"{note}, p{round(share * 100)} {cut:.6g}"
    return f"{note}; no tail percentile below 100 samples"


def line(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ipstat" / "__init__.py").is_file():
        print(f"perfbench: no ipstat sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    with QueryServer() as server:
        return run_workload(server, args, workloads[args.workload])


def run_workload(server: QueryServer, args, workload: Workload) -> int:
    dataset, setups, tally = measure(server, args.workload, workload, args.seed, args.seconds)
    setup_s = statistics.median(setups)
    spec = ", ".join(f"{key}={value}" for key, value in workload.spec.items())
    print(
        f"workload {args.workload}: seed={args.seed}, {spec}; {dataset.first_octets} first octets, "
        f"{dataset.path.stat().st_size} bytes; k={K}; closed loop, one query at a time"
    )
    print(f"{tally.attempted} queries over {len(workload.cells)} cells, each in a fresh forked process")
    e2e: dict[str, float] = {"setup_s": setup_s}
    line("setup_s", setup_s, "s", f"median of {SETUP_REPS} set-ups spread over the run")
    medians = {}
    for cell in workload.cells:
        samples = tally.samples[cell]
        if not samples:
            print(f"query_s.{cell} = n/a  (no correct sample)")
            continue
        times = [s.seconds for s in samples]
        medians[cell] = statistics.median(times)
        line(f"query_s.{cell}", medians[cell], "s", spread_note(times))
    reference_s = statistics.median(tally.reference)
    line("reference_s", reference_s, "s", spread_note(tally.reference))
    for cell, median in medians.items():
        e2e[f"query_vs_ref.{cell}"] = median / reference_s
        line(f"query_vs_ref.{cell}", e2e[f"query_vs_ref.{cell}"], "ratio", f"query_s.{cell} / reference_s")
    for cell in workload.cells:
        samples = tally.samples[cell]
        if samples:
            e2e[f"peak_rss_mb.{cell}"] = statistics.median(s.rss_mib for s in samples)
            tracked = statistics.median(s.tracked_bytes for s in samples) / MIB
            note = f"median of n={len(samples)}; tracked {tracked:.6g} MiB"
            line(f"peak_rss_mb.{cell}", e2e[f"peak_rss_mb.{cell}"], "MiB", note)

    layers: dict[str, float] = {}
    if args.trace:
        traces = {}
        for cell in workload.cells:
            sample = attempt(server, tally, dataset, cell, trace=True)
            if sample is None or cell not in medians:
                continue
            traces[cell] = sample.trace
            values = tracer.layer_values(*CELLS[cell], sample.trace, medians[cell])
            units = tracer.layer_units(*CELLS[cell])
            for name, value in values.items():
                layers[f"{cell}.{name}"] = value
                line(f"{cell}.{name}", value, units[name], "one traced query")
            share = tracer.self_time_share(sample.trace)
            kind = "serial: should be 1 within 5%" if CELLS[cell][1] == 1 else "workers overlap: above 1"
            print(f"{cell}.trace.self_time_share = {share:.4f}  (span self times / traced wall; {kind})")
        trace_path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({cell: t["spans"] for cell, t in traces.items()}))
        print(f"spans written to {trace_path.relative_to(ROOT)}")

    print(f"failed_share = {tally.failed / tally.attempted:.6g} share  ({tally.failed} failed of {tally.attempted})")
    if "ssmb" in medians and "tlmb" in medians:
        holds = "holds" if medians["ssmb"] > medians["tlmb"] else "DOES NOT HOLD"
        print(
            f"guardrail criterion 7, query_s.ssmb > query_s.tlmb: {holds} "
            f"({medians['ssmb']:.6g} s against {medians['tlmb']:.6g} s; reported, not gated)"
        )
    ssmb_tracked = {s.tracked_bytes for s in tally.samples.get("ssmb", [])}
    if ssmb_tracked:
        holds = "holds" if ssmb_tracked == {128 << 20} else "DOES NOT HOLD"
        seen = ", ".join(f"{b / MIB:.6g}" for b in sorted(ssmb_tracked))
        print(f"guardrail criterion 3, ssmb.tracked_mb = 128: {holds} (seen {seen} MiB; reported, not gated)")

    if args.trace:
        wanted, got = per_layer_units(COMMON_CELLS), layers
    else:
        wanted, got = end_to_end_units(COMMON_CELLS), e2e
    metrics = {name: {"value": got[name], "unit": unit} for name, unit in wanted.items() if name in got}
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
