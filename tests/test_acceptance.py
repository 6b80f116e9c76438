"""Acceptance criteria for the package, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL - ..." line (collected
again in the terminal summary). Reference answers always come from an
independent brute-force oracle (collections.Counter plus a full sort), or
from arithmetic done directly on the raw record arrays — never from the
code under test.
"""

import os
import time
from collections import Counter

import numpy as np
import pytest

from conftest import as_lines, as_pairs, oracle_top_k
from ipstat import (
    ArraySource,
    DatasetSpec,
    PartitionPlan,
    SsmbCounter,
    TlmbCounter,
    TopKHeap,
    build_dataset,
    from_u32,
    generate,
    load_truth,
    query,
    run_bench,
    run_parallel,
    to_u32,
    verify,
    write_csv,
)

from ipstat.ssmb import TILE_SLOTS, sweep_ranges

FIRST_LAYER_BYTES = 134_217_728

ALL_METHODS = ("tlmb", "ssmb", "hash", "ipmap")


@pytest.fixture(scope="session")
def full_scale_dataset(tmp_path_factory):
    """5M records over 50K distinct addresses, unrestricted first octets."""
    root = tmp_path_factory.mktemp("fullscale")
    out = root / "table1.txt"
    generate(DatasetSpec(records=5_000_000, distinct=50_000, seed=1001), out)
    return out, root / "table1.txt.truth"


@pytest.fixture(scope="session")
def bench_dataset(tmp_path_factory):
    """Same 5M x 50K shape, first octets capped at 4 so every method —
    including the one-block-per-octet baseline and the pass-per-octet
    counter — fits this machine's memory and time budget."""
    root = tmp_path_factory.mktemp("benchscale")
    out = root / "bench.txt"
    generate(DatasetSpec(records=5_000_000, distinct=50_000, seed=1002, first_octet_cap=4), out)
    return out, root / "bench.txt.truth"


def test_criterion_1_cross_method_exactness(record_criterion):
    """All four methods equal the brute-force oracle on randomized inputs."""
    rng = np.random.default_rng(20260814)
    shared_ssmb = SsmbCounter()
    trials = 200
    for trial in range(trials):
        n = int(10 ** rng.uniform(3, 5))
        d = min(int(10 ** rng.uniform(0.5, 4)), n)
        spec = DatasetSpec(
            records=n,
            distinct=d,
            seed=int(rng.integers(0, 2**32)),
            distribution="zipf" if trial % 2 else "uniform",
            zipf_exponent=float(rng.uniform(0.5, 1.5)),
            first_octet_cap=int(rng.integers(1, 4)),
        )
        records, _, _ = build_dataset(spec)
        k = int(rng.choice([1, 10, 100]))
        expected = oracle_top_k(records, k)
        source = ArraySource(records)
        rendered = []
        for name in ALL_METHODS:
            if name == "ssmb":
                entries = shared_ssmb.top_k(source, k)
            else:
                entries, _ = query(source, name, k)
            assert as_pairs(entries) == expected, f"trial {trial}: {name} diverged from oracle"
            rendered.append(as_lines(entries))
        assert all(lines == rendered[0] for lines in rendered), f"trial {trial}: outputs not byte-identical"
    record_criterion(1, True, f"{trials} randomized trials, 4 methods byte-identical to the sort oracle")


def test_criterion_2_serial_parallel_equivalence(record_criterion):
    """Partitioned runs reproduce serial output exactly, both schemes."""
    rng = np.random.default_rng(20260815)
    trials = 50
    for trial in range(trials):
        cap = int(rng.integers(1, 9))
        n = int(rng.integers(2_000, 30_000))
        records, _, _ = build_dataset(
            DatasetSpec(records=n, distinct=min(int(rng.integers(1, 2_000)), n),
                        seed=int(rng.integers(0, 2**32)), first_octet_cap=cap)
        )
        source = ArraySource(records)
        k = int(rng.choice([1, 10, 100]))

        serial_tlmb, _ = query(source, "tlmb", k)
        serial_lines = as_lines(serial_tlmb)
        for r in (0, 1, 2, 3):
            merged, _ = run_parallel(source, PartitionPlan.by_prefix_bits(r), k)
            assert as_lines(merged) == serial_lines, f"trial {trial}: tlmb r={r} diverged"

        serial_ssmb, _ = query(source, "ssmb", k)
        assert serial_ssmb == serial_tlmb
        for workers in (2, 4):
            merged, _ = query(source, "ssmb", k, workers)
            assert as_lines(merged) == serial_lines, f"trial {trial}: ssmb workers={workers} diverged"
    record_criterion(
        2, True, f"{trials} inputs: prefix-bit r in 0..3 and subset workers match serial byte-for-byte"
    )


def test_criterion_3_ssmb_constant_memory(record_criterion):
    """The subset-scan counter tracks exactly one block at every scale."""
    counter = SsmbCounter()
    seen = {}
    for n in (10**4, 10**6, 10**7):
        records, _, _ = build_dataset(
            DatasetSpec(records=n, distinct=max(n // 100, 1), seed=404, first_octet_cap=2)
        )
        counter.top_k(ArraySource(records), 10)
        stats = counter.stats()
        assert stats["records_ingested"] == n
        assert stats["tracked_bytes"] == FIRST_LAYER_BYTES, f"n={n}: tracked {stats['tracked_bytes']}"
        seen[n] = stats["tracked_bytes"]
    record_criterion(3, True, f"tracked_bytes = 134,217,728 at n = 1e4, 1e6, 1e7 (got {sorted(set(seen.values()))})")


def test_criterion_4_tlmb_lazy_allocation_accounting(record_criterion):
    """Block count equals independently counted distinct /24 prefixes."""
    rng = np.random.default_rng(20260816)
    checked = 0
    specs = [
        DatasetSpec(records=100_000, distinct=10_000, seed=1, first_octet_cap=4),
        DatasetSpec(records=50_000, distinct=500, seed=2),
        DatasetSpec(records=20_000, distinct=5_000, seed=3, distribution="zipf", zipf_exponent=1.1),
        DatasetSpec(records=1_000, distinct=1, seed=4),
        DatasetSpec(records=300_000, distinct=30_000, seed=5, first_octet_cap=16),
    ]
    for spec in specs:
        records, _, _ = build_dataset(spec)
        counter = TlmbCounter()
        for start in range(0, records.size, 1 << 18):
            counter.ingest_many(records[start : start + (1 << 18)])
        stats = counter.stats()
        prefixes = int(np.unique(records >> np.uint32(8)).size)
        assert stats["allocated_second_blocks"] == prefixes
        assert stats["tracked_bytes"] == FIRST_LAYER_BYTES + 2048 * prefixes
        checked += 1
    record_criterion(
        4, True, f"{checked} datasets: blocks = distinct /24 prefixes, tracked = 134,217,728 + 2048*s exactly"
    )


def test_criterion_5_tlmb_linear_scaling(record_criterion):
    """Ingest cost grows roughly linearly from 1e6 to 1e7 records."""
    small_spec = DatasetSpec(records=10**6, distinct=10**3, seed=777, first_octet_cap=16)
    large_spec = DatasetSpec(records=10**7, distinct=10**3, seed=777, first_octet_cap=16)
    small, small_distinct, _ = build_dataset(small_spec)
    large, large_distinct, _ = build_dataset(large_spec)
    assert np.array_equal(np.sort(small_distinct), np.sort(large_distinct)), "distinct sets must match"

    counter = TlmbCounter()

    def best_ingest_of_three(records: np.ndarray) -> float:
        # One warm counter, reset between repetitions: best-of-3 then
        # reports steady-state ingest cost rather than first-touch page
        # faults, which are a fixed startup cost independent of n.
        best = float("inf")
        for _ in range(3):
            counter.reset()
            started = time.perf_counter()
            for start in range(0, records.size, 1 << 17):
                counter.ingest_many(records[start : start + (1 << 17)])
            best = min(best, time.perf_counter() - started)
            assert len(counter.top_k(10)) == 10  # query outside the timed region
        return best

    t_small = best_ingest_of_three(small)
    t_large = best_ingest_of_three(large)
    ratio = t_large / t_small
    ok = 5 <= ratio <= 20
    record_criterion(
        5, ok, f"10x records took {ratio:.1f}x ingest time ({t_small:.3f}s -> {t_large:.3f}s), within [5, 20]"
    )


def test_criterion_6_full_scale_dataset_shape(record_criterion, full_scale_dataset):
    """5M x 50K generation: exact counts, mean multiplicity 100, plausible size."""
    path, truth_path = full_scale_dataset
    report = verify(path, truth_path)
    size = os.path.getsize(path)
    ok = (
        report["records"] == 5_000_000
        and report["distinct"] == 50_000
        and report["mean_multiplicity"] == 100.0
        and 62_000_000 <= size <= 93_000_000
    )
    record_criterion(
        6,
        ok,
        f"n={report['records']} d={report['distinct']} mean={report['mean_multiplicity']:.0f} "
        f"text size {size / 1e6:.1f} MB inside [62.0, 93.0]",
    )


def test_criterion_7_bench_harness_full_sweep(record_criterion, bench_dataset, tmp_path):
    """All four methods benched at 5M scale, validated, with the expected
    memory and pass-structure orderings."""
    path, truth_path = bench_dataset
    rows = run_bench(path, truth_path, ["tlmb", "ssmb", "hash", "ipmap"], [10, 100], reps=1)
    csv_path = tmp_path / "bench.csv"
    write_csv(csv_path, rows)

    assert len(rows) == 8
    assert all(row.n == 5_000_000 for row in rows)
    by_cell = {(row.method, row.k): row for row in rows}
    tracked = {method: by_cell[(method, 10)].tracked_bytes for method in ("tlmb", "ssmb", "ipmap")}
    elapsed = {method: by_cell[(method, 10)].mean for method in ("tlmb", "ssmb")}
    q = 4  # the dataset's first octets are capped at 4, all of them populated
    assert tracked["ipmap"] == q * FIRST_LAYER_BYTES
    ok = (
        tracked["ipmap"] > tracked["tlmb"] > tracked["ssmb"] == FIRST_LAYER_BYTES
        and elapsed["ssmb"] > elapsed["tlmb"]
        and csv_path.read_text().count("\n") == 10
    )
    record_criterion(
        7,
        ok,
        "8 validated cells (4 methods x k in {10,100}); tracked ipmap "
        f"{tracked['ipmap'] / 1e6:.0f} MB > tlmb {tracked['tlmb'] / 1e6:.0f} MB > ssmb "
        f"{tracked['ssmb'] / 1e6:.0f} MB; ssmb {elapsed['ssmb']:.2f}s > tlmb {elapsed['tlmb']:.2f}s",
    )


def test_criterion_8_k1_equals_max_scan(record_criterion):
    """A capacity-1 heap behaves as a max scan with smallest-address ties."""
    rng = np.random.default_rng(20260817)
    trials = 100
    for trial in range(trials):
        n = int(rng.integers(1, 4000))
        pool = rng.integers(0, 2**32, size=max(n // 8, 1), dtype=np.uint64).astype(np.uint32)
        records = rng.choice(pool, size=n).astype(np.uint32)
        table = Counter(records.tolist())
        best_value, best_count = None, -1
        for value, count in table.items():
            if count > best_count or (count == best_count and value < best_value):
                best_value, best_count = value, count
        heap = TopKHeap(1)
        for value, count in table.items():
            heap.offer_u32(value, count)
        assert as_pairs(heap.drain_sorted()) == [(best_value, best_count)], f"trial {trial}: heap"
        entries, _ = query(ArraySource(records), "tlmb", 1)
        assert as_pairs(entries) == [(best_value, best_count)], f"trial {trial}: counter"
    record_criterion(8, True, f"{trials} inputs: capacity-1 heap == direct max scan, ties to smaller address")


def test_criterion_9_property_suites(record_criterion):
    """The module invariants hold across >= 1e3 randomized cases each."""
    rng = np.random.default_rng(20260818)
    cases = {}

    # round-trip parsing: format -> parse -> identical address
    from ipstat import parse_dotted

    values = rng.integers(0, 2**32, size=1200, dtype=np.uint64).tolist()
    for value in values:
        addr = from_u32(value)
        assert parse_dotted(str(addr)) == addr
        assert to_u32(addr) == value
    cases["round-trip parsing"] = len(values)

    # conservation: sum of all counts equals records ingested
    conservation = 0
    for _ in range(1000):
        n = int(rng.integers(1, 64))
        records = rng.integers(0, 2**32, size=n, dtype=np.uint64).astype(np.uint32)
        counter = TlmbCounter()
        counter.ingest_many(records)
        assert counter.sum_counts() == n
        conservation += 1
    cases["count conservation"] = conservation

    # offer-order independence of the heap
    independence = 0
    for _ in range(1000):
        distinct = int(rng.integers(1, 40))
        values_pool = np.unique(rng.integers(0, 2**32, size=distinct * 2, dtype=np.uint64))[:distinct]
        pairs = list(
            zip(
                values_pool.tolist(),
                rng.integers(1, 8, size=values_pool.size).tolist(),
            )
        )
        k = int(rng.choice([1, 3, 8]))
        reference = None
        for _ in range(2):
            rng.shuffle(pairs)
            heap = TopKHeap(k)
            for value, count in pairs:
                heap.offer_u32(value, count)
            out = as_pairs(heap.drain_sorted())
            assert reference is None or out == reference
            reference = out
        independence += 1
    cases["offer-order independence"] = independence

    # subset zeroing: the same low 24 bits under different first octets
    # never bleed into each other across passes of the shared block
    zeroing = 0
    counter = SsmbCounter()
    for _ in range(3):
        lows = np.unique(rng.integers(0, 2**24, size=800, dtype=np.uint64))[:400]
        groups = int(lows.size)
        per_octet_counts = rng.integers(0, 5, size=(groups, 3))
        per_octet_counts[:, 0] += 1
        records = []
        for g in range(groups):
            for octet_index, octet in enumerate((5, 9, 200)):
                records.extend([int((octet << 24) | lows[g])] * int(per_octet_counts[g, octet_index]))
        records = np.array(records, dtype=np.uint32)
        expected = Counter(records.tolist())
        entries = counter.top_k(ArraySource(records), len(expected))
        assert {to_u32(e.address): e.count for e in entries} == dict(expected)
        zeroing += groups
    cases["subset zeroing"] = zeroing

    # partition coverage and disjointness: tlmb's owner cut and ssmb's sweep ranges
    coverage = 0
    for _ in range(500):
        r = int(rng.integers(0, 9))
        plan = PartitionPlan.by_prefix_bits(r)
        edges = np.arange(1, plan.workers, dtype=np.uint64) << np.uint64(32 - r)
        drawn = rng.integers(0, 2**32, size=200, dtype=np.uint64)
        values = np.unique(np.concatenate([drawn, edges, edges - 1]).astype(np.uint32))
        cuts = plan.bounds(values)
        # the cut covers every value once, in order, and gives it to the worker its top r bits name
        assert len(cuts) == plan.workers + 1 and cuts[0] == 0 and cuts[-1] == values.size
        assert all(lo <= hi for lo, hi in zip(cuts, cuts[1:]))
        owners = np.repeat(np.arange(plan.workers), np.diff(cuts))
        assert np.array_equal(owners, values.astype(np.uint64) >> np.uint64(32 - r))
        coverage += 1
    for workers in [1, 256, 257, 300, *rng.integers(1, 301, size=496).tolist()]:
        ranges = sweep_ranges(workers)
        los, his = (np.array(side, dtype=np.int64) for side in zip(*ranges))
        # min(W, 256) non-empty, tile-aligned ranges, each starting where the last ends, cover the block once
        assert len(ranges) == min(workers, 256)
        assert los[0] == 0 and his[-1] == 2**24 and np.array_equal(los[1:], his[:-1])
        assert np.all(los < his) and not np.any(los % TILE_SLOTS)
        # the pass's one cut of an ascending segment gives each slot to the range that holds it
        drawn = rng.integers(0, 2**24, size=200, dtype=np.int64)
        slots = np.unique(np.concatenate([drawn, los, his - 1]))
        cuts = np.searchsorted(slots, los[1:])
        owners = np.repeat(np.arange(len(ranges)), np.diff(cuts, prepend=0, append=slots.size))
        assert np.all((los[owners] <= slots) & (slots < his[owners]))
        coverage += 1
    cases["partition coverage/disjointness"] = coverage

    ok = all(count >= 1000 for count in cases.values())
    record_criterion(9, ok, "; ".join(f"{name}: {count} cases" for name, count in cases.items()))
