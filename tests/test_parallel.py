"""Partition plans and serial-parallel equivalence."""

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    CountingSource,
    PullCountingSource,
    aggregates_in_flight,
    as_pairs,
    oracle_top_k,
    pin_usable_cpus,
    property_settings,
    random_addresses,
)
from ipstat import (
    ArraySource,
    CountOverflow,
    FileSource,
    InvalidPlan,
    MalformedAddress,
    PartitionPlan,
    TlmbCounter,
    TopKHeap,
    parse_dotted,
    query,
    run_parallel,
    to_u32,
    write_binary,
)
from ipstat import bench, model, ssmb
from ipstat.cli import main


def cut(plan: PartitionPlan, addresses) -> list[list[int]]:
    """The slice of the ascending distinct addresses each worker of a tlmb plan gets."""
    values = np.unique(np.asarray(addresses, dtype=np.uint32))
    cuts = plan.bounds(values)
    return [values[lo:hi].tolist() for lo, hi in zip(cuts[:-1], cuts[1:])]


class TestPlans:
    def test_prefix_bits_assignment(self):
        plan = PartitionPlan.by_prefix_bits(2)
        assert plan.workers == 4
        low, mid, high = (to_u32(parse_dotted(a)) for a in ("10.1.2.3", "64.0.0.0", "192.1.2.3"))
        assert cut(plan, [high, low, mid]) == [[low], [mid], [], [high]]
        # a worker's first address opens its slice, the one below closes the previous
        assert cut(plan, [mid - 1, mid]) == [[mid - 1], [mid], [], []]

    def test_prefix_bits_zero_is_single_worker(self):
        plan = PartitionPlan.by_prefix_bits(0)
        assert plan.workers == 1
        assert cut(plan, [0, 2**32 - 1]) == [[0, 2**32 - 1]]
        assert plan.bounds(np.empty(0, dtype=np.uint32)) == [0, 0]

    def test_invalid_prefix_bits(self):
        for bad in (-1, 9, 100):
            with pytest.raises(InvalidPlan):
                PartitionPlan.by_prefix_bits(bad)

    def test_invalid_worker_counts(self):
        with pytest.raises(InvalidPlan):
            PartitionPlan(257)
        with pytest.raises(InvalidPlan):
            PartitionPlan(0, (0,))

    def test_tlmb_plan_takes_1_to_256_workers(self):
        # each worker owns at least one first octet; no thread starts here
        for workers in (0, 257, 10_000):
            with pytest.raises(InvalidPlan):
                PartitionPlan(workers)
        # the owners are left for the query to cut from its first batch
        for workers in (1, 3, 8, 255, 256):
            plan = PartitionPlan(workers)
            assert plan.workers == workers and plan.octets == ()

    def test_hash_and_ipmap_do_not_run_partitioned(self):
        source = ArraySource(np.array([1 << 24], dtype=np.uint32))
        for method in ("hash", "ipmap"):
            with pytest.raises(InvalidPlan, match="no partition scheme"):
                query(source, method, 1, 2)


class TestValueSharePlans:
    @staticmethod
    def octets_of(*octets) -> np.ndarray:
        return np.array([(a << 24) | low for a in octets for low in range(100)], dtype=np.uint32)

    def test_even_octets_split_evenly(self):
        values = self.octets_of(0, 1, 2, 3)
        assert PartitionPlan.by_value_share(values, 1).octets == (0,)
        assert PartitionPlan.by_value_share(values, 2).octets == (0, 2)
        assert PartitionPlan.by_value_share(values, 4).octets == (0, 1, 2, 3)

    def test_cut_falls_at_the_nearest_octet_boundary(self):
        # 30 | 60 | 10 values in octets 5, 6 and 9: 30 values lie below octet 6 and 90
        # below octet 7, so half of them is nearer the octet 6 boundary
        values = np.concatenate([self.octets_of(5)[:30], self.octets_of(6)[:60], self.octets_of(9)[:10]])
        assert PartitionPlan.by_value_share(values, 2).octets == (0, 6)
        # shares 25, 50, 75 pick octets 6, 6, 7; owners move up one octet to stay apart
        assert PartitionPlan.by_value_share(values, 4).octets == (0, 6, 7, 8)

    def test_every_owner_keeps_an_octet(self):
        assert PartitionPlan.by_value_share(self.octets_of(7), 2).octets == (0, 8)
        assert PartitionPlan.by_value_share(self.octets_of(7), 8).octets == (0, 7, 8, 9, 10, 11, 12, 13)
        assert PartitionPlan.by_value_share(self.octets_of(255), 4).octets == (0, 253, 254, 255)
        assert PartitionPlan.by_value_share(self.octets_of(0), 256).octets == tuple(range(256))
        # no values, and leading address bits: the even cut
        empty = np.empty(0, dtype=np.uint32)
        for r in range(9):
            even = tuple(range(0, 256, 256 >> r))
            assert PartitionPlan.by_prefix_bits(r).octets == even, r
            assert PartitionPlan.by_value_share(empty, 2**r).octets == even, r

    def test_owner_ranges_cover_every_octet_once(self):
        plan = PartitionPlan.by_value_share(self.octets_of(3, 40, 41), 4)
        owned = [list(range(lo, hi)) for lo, hi in zip(plan.octets, (*plan.octets[1:], 256))]
        assert [octet for part in owned for octet in part] == list(range(256))
        assert all(owned)

    def test_bounds_cut_at_owner_start_addresses(self):
        plan = PartitionPlan(2, (0, 6))
        values = np.array([5 << 24, (6 << 24) - 1, 6 << 24, 2**32 - 1], dtype=np.uint32)
        assert plan.bounds(values) == [0, 2, 4]
        with pytest.raises(InvalidPlan, match="with owners"):
            PartitionPlan(2).bounds(values)

    def test_invalid_owner_starts(self):
        # too few, not from 0, repeated, descending, past 255
        for workers, octets in ((2, (0,)), (2, (1, 6)), (4, (0, 6, 6, 7)), (4, (0, 7, 6, 9)), (2, (0, 256))):
            with pytest.raises(InvalidPlan):
                PartitionPlan(workers, octets)
        with pytest.raises(InvalidPlan, match="at most 256"):
            PartitionPlan(257)


class TestAssignmentProperties:
    def test_coverage_and_disjointness(self):
        rng = np.random.default_rng(600)
        for trial in range(50):
            r = int(rng.integers(0, 4))
            plan = PartitionPlan.by_prefix_bits(r)
            edges = np.arange(1, plan.workers, dtype=np.uint32) << np.uint32(32 - r)
            values = np.unique(np.concatenate([random_addresses(rng, 2000), edges, edges - np.uint32(1)]))
            cuts = plan.bounds(values)
            # the slices cover the values once, in order
            assert len(cuts) == plan.workers + 1 and cuts[0] == 0 and cuts[-1] == values.size
            assert all(lo <= hi for lo, hi in zip(cuts, cuts[1:])), f"trial {trial}"
            # partition rule: a value's owner is exactly its top r bits
            owners = np.repeat(np.arange(plan.workers), np.diff(cuts))
            assert np.array_equal(owners, values.astype(np.uint64) >> np.uint64(32 - r)), f"trial {trial}"

    def test_first_octet_coverage(self):
        rng = np.random.default_rng(601)
        for _ in range(30):
            cap = int(rng.integers(1, 17))
            workers = int(rng.integers(1, 5))
            batch = random_addresses(rng, 1000, first_octet_cap=cap)
            entries, stats = query(ArraySource(batch), "ssmb", batch.size, workers)
            # every record's first octet gets exactly one pass, over one block, and every record is counted once
            octets = np.unique(batch >> np.uint32(24)).size
            assert stats["q"] == stats["passes"] == octets
            assert stats["records_ingested"] == batch.size and stats["tracked_bytes"] == 134_217_728
            assert stats["workers"] == workers
            assert as_pairs(entries) == oracle_top_k(batch, batch.size)


@st.composite
def routed_inputs(draw):
    """(r, batch size, addresses) with the addresses clustered at tlmb owner boundaries."""
    r = draw(st.integers(0, 3))
    edges = [w << (32 - r) for w in range((1 << r) + 1)]
    near = st.tuples(st.sampled_from(edges), st.integers(-3, 2)).map(lambda t: min(max(sum(t), 0), 2**32 - 1))
    values = np.array(draw(st.lists(near, max_size=120)), dtype=np.uint32)
    if draw(st.booleans()):
        values.sort()  # long runs of one owner, so whole batches sit inside it
    return r, draw(st.integers(1, 64)), values


@property_settings(150)
@given(routed_inputs(), st.integers(1, 8))
def test_routing_matches_oracle(case, k):
    r, batch_records, values = case
    with mock.patch.object(model, "BATCH_RECORDS", batch_records):
        merged, results = run_parallel(ArraySource(values), PartitionPlan.by_prefix_bits(r), k)
    assert as_pairs(merged) == oracle_top_k(values, k)
    owners = (values.astype(np.uint64) >> np.uint64(32 - r)).astype(np.int64)
    assert [w.stats["records_ingested"] for w in results] == np.bincount(owners, minlength=1 << r).tolist()


@st.composite
def first_batch_cases(draw):
    """(batch size, addresses): a first batch within one or two first octets, later batches anywhere."""
    batch_records = draw(st.integers(1, 16))
    if draw(st.integers(0, 9)) == 0:
        return batch_records, np.empty(0, dtype=np.uint32)
    edge = st.sampled_from([0, 1, 2, 127, 128, 254, 255])
    low = st.one_of(st.integers(0, 300), st.sampled_from([65535, 65536, 0xFFFFFF]))
    first_octets = draw(st.lists(edge, min_size=1, max_size=2))
    first_address = st.tuples(st.sampled_from(first_octets), low)
    first = draw(st.lists(first_address, min_size=batch_records, max_size=batch_records))
    later = draw(st.lists(st.tuples(st.one_of(edge, st.integers(0, 255)), low), max_size=80))
    return batch_records, np.array([(a << 24) | b for a, b in first + later], dtype=np.uint32)


@property_settings(120)
@given(first_batch_cases(), st.sampled_from([2, 3, 4, 5, 7, 8]), st.integers(1, 8))
def test_first_batch_plan_matches_serial_and_oracle(case, workers, k):
    batch_records, values = case
    source = CountingSource(ArraySource(values))
    runs, plans = [], []
    by_value_share = PartitionPlan.by_value_share

    def recording_run_parallel(data, plan, k):
        merged, results = run_parallel(data, plan, k)
        runs.append(results)
        return merged, results

    def recording_by_value_share(first_values, workers):
        plans.append((first_values, by_value_share(first_values, workers)))
        return plans[-1][1]

    with mock.patch.object(model, "BATCH_RECORDS", batch_records):
        serial, serial_stats = query(source, "tlmb", k)
        with (
            mock.patch.object(bench, "run_parallel", recording_run_parallel),
            mock.patch.object(PartitionPlan, "by_value_share", recording_by_value_share),
        ):
            entries, stats = query(source, "tlmb", k, workers)
    assert as_pairs(entries) == oracle_top_k(values, k)
    assert entries == serial
    for key in ("records_ingested", "allocated_second_blocks", "first_layer_bytes", "tracked_bytes"):
        assert stats[key] == serial_stats[key], key
    assert stats["first_layer_bytes"] == 134_217_728
    assert stats["workers"] == workers and source.opens == 2
    (results,) = runs
    # the owners are cut from the first batch's distinct values
    ((first_values, plan),) = plans
    assert first_values.tolist() == np.unique(values[:batch_records]).tolist()
    owned = list(zip(plan.octets, (*plan.octets[1:], 256)))
    # they are contiguous, non-empty and cover octets 0..255 once, in worker order
    assert len(owned) == workers and all(lo < hi for lo, hi in owned)
    assert [octet for lo, hi in owned for octet in range(lo, hi)] == list(range(256))
    # the results are listed in worker order
    assert len(results) == workers
    for result, (lo, hi) in zip(results, owned):
        assert all(lo <= entry.address.a < hi for entry in result.candidates)
        assert result.stats["first_layer_bytes"] == (hi - lo) * 65536 * 8


class TestReaderAhead:
    # one address twice a batch, so the second batch that holds it overflows a
    # count capped at 3; later batches are already being read by then
    ADDRESSES = [(200 << 24) | 1] * 2 + [(1 << 24) | 1] * 2 + [(200 << 24) | 1] * 2 + [(7 << 24) | 9] * 6

    def test_worker_overflow_on_a_later_batch_raises_and_joins_the_pool(self, monkeypatch):
        monkeypatch.setattr(model, "BATCH_RECORDS", 2)
        monkeypatch.setattr(model, "_MAX_COUNT", np.uint64(3))
        calls = []
        add_runs = TlmbCounter.add_runs

        def counting_add_runs(self, values, counts):
            calls.append(int(values[0]) >> 24)
            return add_runs(self, values, counts)

        monkeypatch.setattr(TlmbCounter, "add_runs", counting_add_runs)
        threads = threading.active_count()
        for workers in (2, 4):
            calls.clear()
            with pytest.raises(CountOverflow):
                query(ArraySource(np.array(self.ADDRESSES, dtype=np.uint32)), "tlmb", 1, workers)
            # the first batch counted, the third failed, and nothing was handed out after it
            assert calls == [200, 1, 200]
            assert threading.active_count() == threads

    def test_no_counter_takes_two_batches_at_once(self, monkeypatch):
        # more workers than cores, fast thread switching, many small batches
        monkeypatch.setattr(model, "BATCH_RECORDS", 64)
        busy, overlaps = set(), []
        add_runs = TlmbCounter.add_runs

        def guarded_add_runs(self, values, counts):
            if id(self) in busy:
                overlaps.append(id(self))
            busy.add(id(self))
            try:
                return add_runs(self, values, counts)
            finally:
                busy.discard(id(self))

        monkeypatch.setattr(TlmbCounter, "add_runs", guarded_add_runs)
        values = random_addresses(np.random.default_rng(607), 20_000, first_octet_cap=16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            entries, stats = query(ArraySource(values), "tlmb", 20, 8)
        finally:
            sys.setswitchinterval(interval)
        assert as_pairs(entries) == oracle_top_k(values, 20)
        assert stats["records_ingested"] == values.size and not overlaps

    @pytest.mark.parametrize("workers", [2, 3])
    def test_malformed_later_chunk_with_aggregates_in_flight(self, tmp_path, monkeypatch, workers):
        """The first bad line is named, nothing from its chunk on is counted, the file is closed and every thread joined."""
        data = tmp_path / "bad.txt"
        data.write_text("1.0.0.1\n2.0.0.2\n" * 50 + "3.0.0.x\n" + "4.0.0.4\n" * 20)
        # five 8-byte lines a chunk: the 21st chunk starts at the bad line
        monkeypatch.setattr(model, "TEXT_CHUNK_BYTES", 32)
        pin_usable_cpus(monkeypatch, workers)  # W batches ahead on any machine
        handles = []
        monkeypatch.setattr(model, "open", lambda *args: handles.append(open(*args)) or handles[-1], raising=False)
        aggregated = aggregates_in_flight(monkeypatch, earlier=20)
        counted = []
        add_runs = TlmbCounter.add_runs

        def counting_add_runs(self, values, counts):
            counted.append(((values >> 24).tolist(), int(counts.sum())))
            return add_runs(self, values, counts)

        monkeypatch.setattr(TlmbCounter, "add_runs", counting_add_runs)
        threads = threading.active_count()
        with pytest.raises(MalformedAddress, match="line 101"):
            query(FileSource(data), "tlmb", 5, workers)
        assert {octet for octets, _ in counted for octet in octets} == {1, 2}
        # the 20 batches before the bad chunk were aggregated; all but the W aggregated ahead were counted
        assert len(aggregated) == 20
        assert sum(total for _, total in counted) == 5 * (20 - workers)
        assert [handle.closed for handle in handles] == [True]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_read_ahead_is_bounded_by_the_usable_cpus(self, monkeypatch, cpus):
        """With W = 4 threads, both pooled readers keep min(W, usable CPUs) batches read and not yet handed on."""
        pin_usable_cpus(monkeypatch, cpus)
        monkeypatch.setattr(model, "BATCH_RECORDS", 50)
        values = random_addresses(np.random.default_rng(608), 1000, first_octet_cap=4)
        in_flight = []
        append, bounds = ssmb.OctetSpill.append, PartitionPlan.bounds

        def handed_on(call):
            # runs the caller's use of the next batch, after counting the batches read past it
            def wrapper(owner, *args):
                in_flight.append(source.pulled - len(in_flight) - 1)
                return call(owner, *args)

            return wrapper

        monkeypatch.setattr(ssmb.OctetSpill, "append", handed_on(append))
        monkeypatch.setattr(PartitionPlan, "bounds", handed_on(bounds))
        for method in ("ssmb", "tlmb"):
            source = PullCountingSource(ArraySource(values))
            in_flight.clear()
            entries, _ = query(source, method, 5, 4)
            assert as_pairs(entries) == oracle_top_k(values, 5)
            assert len(in_flight) == source.pulled == 20
            assert max(in_flight) == in_flight[0] == min(4, cpus), method

    def test_cli_exits_2(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "overflow.bin"
        write_binary(path, np.array(self.ADDRESSES, dtype=np.uint32))
        monkeypatch.setattr(model, "BATCH_RECORDS", 2)
        monkeypatch.setattr(model, "_MAX_COUNT", np.uint64(3))
        threads = threading.active_count()
        assert main(["topk", "--method", "tlmb", "--k", "1", "--input", str(path), "--workers", "2"]) == 2
        assert "exceed the 64-bit range" in capsys.readouterr().err
        assert threading.active_count() == threads


class TestSerialParallelEquivalence:
    def test_tlmb_all_prefix_bit_settings(self):
        rng = np.random.default_rng(602)
        for trial in range(8):
            values = random_addresses(rng, 10_000)
            folded = rng.choice(rng.choice(values, size=500), size=10_000).astype(np.uint32)
            source = ArraySource(folded)
            serial, _ = query(source, "tlmb", 10)
            for r in (0, 1, 2, 3):
                plan = PartitionPlan.by_prefix_bits(r)
                merged, results = run_parallel(source, plan, 10)
                assert merged == serial, f"trial {trial} r={r}"
                assert len(results) == 2**r

    def test_ssmb_subset_workers(self):
        rng = np.random.default_rng(603)
        for trial in range(5):
            values = random_addresses(rng, 8000, first_octet_cap=6)
            source = ArraySource(values)
            serial, _ = query(source, "ssmb", 10)
            for workers in (1, 2, 3, 4):
                merged, _ = query(source, "ssmb", 10, workers)
                assert merged == serial, f"trial {trial} workers={workers}"

    def test_merged_equals_oracle(self):
        rng = np.random.default_rng(604)
        values = random_addresses(rng, 20_000, first_octet_cap=8)
        merged, _ = query(ArraySource(values), "tlmb", 25, 4)
        assert as_pairs(merged) == oracle_top_k(values, 25)


class TestWorkerResults:
    def test_tlmb_worker_isolation_and_narrowing(self):
        rng = np.random.default_rng(605)
        values = random_addresses(rng, 10_000)
        plan = PartitionPlan.by_prefix_bits(2)
        _, results = run_parallel(ArraySource(values), plan, 10)
        assert len(results) == 4
        for ordinal, result in enumerate(results):
            # candidates stay inside the worker's first-octet range
            for entry in result.candidates:
                assert ordinal == entry.address.a >> 6
            assert result.stats["first_layer_bytes"] == 33_554_432
        _, total = query(ArraySource(values), "tlmb", 10, 4)
        assert total["records_ingested"] == values.size
        assert total["workers"] == 4

    def test_ssmb_worker_candidates_stay_in_partition(self, monkeypatch):
        rng = np.random.default_rng(606)
        values = random_addresses(rng, 5000, first_octet_cap=6)
        offer_block, offer_many = ssmb.offer_block, TopKHeap.offer_many
        ranges, offered = {}, {}

        def recording_offer_block(heap, block, octet, base=0):
            ranges.setdefault(id(heap), set()).add((base, base + block.size))
            return offer_block(heap, block, octet, base)

        def recording_offer_many(heap, addresses, counts):
            offered.setdefault(id(heap), []).extend(addresses.tolist())
            return offer_many(heap, addresses, counts)

        monkeypatch.setattr(ssmb, "offer_block", recording_offer_block)
        monkeypatch.setattr(TopKHeap, "offer_many", recording_offer_many)
        entries, stats = query(ArraySource(values), "ssmb", 5, 3)
        assert as_pairs(entries) == oracle_top_k(values, 5)
        # one heap per sweep range, kept across all six passes
        assert sorted(r for (r,) in ranges.values()) == ssmb.sweep_ranges(3)
        assert stats["passes"] == 6
        for heap, ((lo, hi),) in ranges.items():
            # each sweep range's candidates lie in that range's slots
            assert offered[heap] and all(lo <= address & 0xFFFFFF < hi for address in offered[heap])

    def test_run_method_rejects_unpartitionable_methods(self):
        from ipstat import run_method

        for method, message in (("hash", "no partition scheme"), ("foo", "unknown method")):
            with pytest.raises(InvalidPlan, match=message):
                run_method("unused.txt", method, 5, workers=2)
