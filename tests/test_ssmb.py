"""Subset-scan counter: pass structure, zeroing, constant memory, the spill."""

import os
import sys
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ipstat.model
from conftest import CountingSource, SingleUseSource, as_pairs, oracle_top_k, property_settings, random_addresses
from ipstat import (
    ArraySource,
    CountOverflow,
    FileSource,
    InvalidPlan,
    IpMapCounter,
    MalformedAddress,
    PartitionPlan,
    SsmbCounter,
    TlmbCounter,
    discover_subsets,
    from_u32,
    open_stream,
    parse_dotted,
    query,
    to_u32,
)
from ipstat import ssmb
from ipstat.model import aggregate
from ipstat.ssmb import GROUP_TILES, RUN, TILE_SLOTS, OctetSpill, spilled, sweep_ranges

BLOCK_BYTES = 134_217_728


def addresses_of(*texts: str) -> np.ndarray:
    return np.array([to_u32(parse_dotted(t)) for t in texts], dtype=np.uint32)


class TestDiscovery:
    def test_single_octet(self):
        source = ArraySource(addresses_of("7.1.1.1", "7.2.2.2", "7.3.3.3"))
        assert discover_subsets(source) == [7]

    def test_ascending_distinct(self):
        source = ArraySource(addresses_of("9.0.0.1", "7.0.0.1", "9.0.0.2", "200.1.2.3"))
        assert discover_subsets(source) == [7, 9, 200]

    def test_empty(self):
        assert discover_subsets(ArraySource(np.empty(0, dtype=np.uint32))) == []


class TestTopK:
    def test_single_subset_case(self):
        counter = SsmbCounter()
        entries = counter.top_k(ArraySource(addresses_of("1.2.3.4", "1.2.3.4", "1.2.3.5")), 1)
        assert as_pairs(entries) == [(to_u32(parse_dotted("1.2.3.4")), 2)]
        assert counter.stats()["q"] == 1
        assert counter.stats()["passes"] == 1

    def test_two_subset_case(self):
        counter = SsmbCounter()
        source = ArraySource(addresses_of(*["10.0.0.1"] * 3, *["20.0.0.2"] * 5))
        entries = counter.top_k(source, 2)
        assert as_pairs(entries) == [
            (to_u32(parse_dotted("20.0.0.2")), 5),
            (to_u32(parse_dotted("10.0.0.1")), 3),
        ]
        assert counter.stats()["q"] == 2
        assert counter.stats()["passes"] == 2

    def test_matches_tlmb_on_random_input(self):
        rng = np.random.default_rng(401)
        ssmb = SsmbCounter()
        for trial in range(10):
            values = random_addresses(rng, 10_000, first_octet_cap=int(rng.integers(1, 9)))
            distinct = rng.choice(values, size=500)
            values = rng.choice(distinct, size=10_000).astype(np.uint32)
            source = ArraySource(values)
            tlmb = TlmbCounter()
            tlmb.ingest_many(values)
            for k in (1, 10, 100):
                assert ssmb.top_k(source, k) == tlmb.top_k(k), f"trial {trial} k={k}"

    def test_source_read_once(self):
        rng = np.random.default_rng(402)
        values = random_addresses(rng, 2000, first_octet_cap=5)
        source = CountingSource(ArraySource(values))
        counter = SsmbCounter()
        counter.top_k(source, 3)
        q = counter.stats()["q"]
        assert q == np.unique(values >> np.uint32(24)).size
        assert source.opens == 1

    def test_explicit_octets_read_source_once(self):
        rng = np.random.default_rng(403)
        values = random_addresses(rng, 2000, first_octet_cap=3)
        source = CountingSource(ArraySource(values))
        octets = discover_subsets(source)
        source.opens = 0
        counter = SsmbCounter()
        entries = counter.top_k(source, 5, octets=octets)
        assert source.opens == 1
        assert as_pairs(entries) == oracle_top_k(values, 5)

    def test_subset_restriction_counts_only_matching(self):
        values = addresses_of("5.0.0.1", "5.0.0.1", "6.0.0.1")
        counter = SsmbCounter()
        entries = counter.top_k(ArraySource(values), 5, octets=[5])
        assert as_pairs(entries) == [(to_u32(parse_dotted("5.0.0.1")), 2)]
        assert counter.stats()["records_ingested"] == 2

    def test_empty_source(self):
        assert query(ArraySource(np.empty(0, dtype=np.uint32)), "ssmb", 10)[0] == []


class TestSharedBlockReuse:
    def test_same_low_octets_under_different_first_octets(self):
        # if zeroing between passes broke, 9.1.2.3 would inherit 8.1.2.3's count
        values = addresses_of(*["8.1.2.3"] * 4, "9.1.2.3")
        counter = SsmbCounter()
        entries = counter.top_k(ArraySource(values), 2)
        assert as_pairs(entries) == [
            (to_u32(parse_dotted("8.1.2.3")), 4),
            (to_u32(parse_dotted("9.1.2.3")), 1),
        ]

    def test_pass_hook_reports_conserved_slot_sums(self):
        rng = np.random.default_rng(404)
        values = random_addresses(rng, 5000, first_octet_cap=4)
        seen = []
        counter = SsmbCounter()
        counter.top_k(ArraySource(values), 10, pass_hook=lambda octet, stats: seen.append(stats))
        assert [s["octet"] for s in seen] == discover_subsets(ArraySource(values))
        for stats in seen:
            # slot sum equals the pass's record count only if the block
            # started the pass all-zero
            assert stats["slot_sum"] == stats["pass_records"]
            assert stats["tracked_bytes"] == BLOCK_BYTES
        per_octet = {
            int(octet): int(count)
            for octet, count in zip(*np.unique(values >> np.uint32(24), return_counts=True))
        }
        assert {s["octet"]: s["pass_records"] for s in seen} == per_octet

    def test_counter_instance_is_reusable(self):
        rng = np.random.default_rng(405)
        counter = SsmbCounter()
        for trial in range(3):
            values = random_addresses(rng, 3000, first_octet_cap=3)
            entries = counter.top_k(ArraySource(values), 10)
            assert as_pairs(entries) == oracle_top_k(values, 10), f"trial {trial}"


class TestMemoryAndErrors:
    def test_tracked_bytes_constant(self):
        rng = np.random.default_rng(406)
        counter = SsmbCounter()
        for n in (100, 10_000, 100_000):
            counter.top_k(ArraySource(random_addresses(rng, n, first_octet_cap=3)), 10)
            assert counter.stats()["tracked_bytes"] == BLOCK_BYTES

    def test_single_use_source_multi_pass(self, tmp_path):
        values = addresses_of("1.0.0.1", "2.0.0.2", "2.0.0.2", "9.1.1.1", "1.0.0.1", "1.0.0.1")
        path = tmp_path / "three_octets.txt"
        path.write_text("".join(f"{from_u32(int(v))}\n" for v in values))
        counter = SsmbCounter()
        entries = counter.top_k(SingleUseSource(open_stream(path)), 10)
        assert as_pairs(entries) == oracle_top_k(values, 10)
        assert counter.stats()["passes"] == 3

    def test_single_use_source_fine_for_single_pass(self, tmp_path):
        path = tmp_path / "one_octet.txt"
        path.write_text("1.0.0.1\n1.0.0.1\n1.0.0.2\n")
        entries = SsmbCounter().top_k(SingleUseSource(open_stream(path)), 1, octets=[1])
        assert as_pairs(entries) == [(to_u32(parse_dotted("1.0.0.1")), 2)]

    def test_rejects_bad_octets(self):
        with pytest.raises(InvalidPlan, match="out of range"):
            SsmbCounter().top_k(ArraySource(np.empty(0, dtype=np.uint32)), 1, octets=[300])
        with pytest.raises(InvalidPlan, match="out of range"):
            PartitionPlan.by_first_octets([300], workers=1)

    def test_failed_pass_leaves_no_counts_behind(self, monkeypatch):
        # 1.0.0.1's second spill segment overflows a 3-count cap after the
        # first segment has already written 2 into the block
        counter = SsmbCounter()
        monkeypatch.setattr(ipstat.model, "BATCH_RECORDS", 2)
        with mock.patch.object(ipstat.model, "_MAX_COUNT", np.uint64(3)):
            with pytest.raises(CountOverflow):
                counter.top_k(ArraySource(addresses_of(*["1.0.0.1"] * 4)), 1)
        values = addresses_of("1.0.0.1", "1.0.0.2", "1.0.0.2", "5.0.0.1")
        seen = []
        entries = counter.top_k(ArraySource(values), 3, pass_hook=lambda octet, stats: seen.append(stats))
        assert as_pairs(entries) == oracle_top_k(values, 3)
        assert [(s["octet"], s["pass_records"]) for s in seen] == [(1, 3), (5, 1)]
        assert all(s["slot_sum"] == s["pass_records"] for s in seen)


# few first octets and low parts, so addresses repeat within and across batches
_spill_addresses = st.builds(
    lambda a, low: (a << 24) | low,
    st.sampled_from([0, 3, 7, 255]),
    st.one_of(st.integers(0, 40), st.just(0xFFFFFF)),
)


@pytest.fixture(scope="module")
def shared_counter():
    # one counter for every example: the shared block is reused across queries by design
    return SsmbCounter()


@property_settings(60)
@given(
    records=st.lists(_spill_addresses, max_size=300),
    batch_records=st.integers(1, 50),
    octets=st.none() | st.lists(st.sampled_from([0, 1, 3, 7, 128, 255]), max_size=5),
    k=st.integers(1, 20),
)
def test_spill_backed_top_k_matches_oracle(shared_counter, records, batch_records, octets, k):
    values = np.array(records, dtype=np.uint32)
    source = CountingSource(ArraySource(values))
    planned = set(records if octets is None else (v for v in records if v >> 24 in octets))
    planned_records = [v for v in records if v in planned]
    passes = {}

    def hook(octet, stats):
        assert stats["slot_sum"] == stats["pass_records"]
        passes[octet] = stats["pass_records"]

    with mock.patch.object(ipstat.model, "BATCH_RECORDS", batch_records):
        entries = shared_counter.top_k(source, k, octets=octets, pass_hook=hook)
    stats = shared_counter.stats()
    assert as_pairs(entries) == oracle_top_k(planned_records, k)
    assert stats["records_ingested"] == len(planned_records)
    expected_passes = sorted({v >> 24 for v in records}) if octets is None else sorted(set(octets))
    assert sorted(passes) == expected_passes
    assert passes == {o: sum(1 for v in planned_records if v >> 24 == o) for o in expected_passes}
    batches = [records[i : i + batch_records] for i in range(0, len(records), batch_records)]
    assert stats["spill_bytes"] == RUN.itemsize * sum(len(set(b)) for b in batches)
    assert stats["tracked_bytes"] == BLOCK_BYTES
    assert source.opens == 1


# low-24 slots around tile and group edges, and anywhere
_tile_slots = st.one_of(
    st.sampled_from([0, 1, TILE_SLOTS - 1, TILE_SLOTS, GROUP_TILES * TILE_SLOTS, 2**24 - 1]),
    st.builds(
        lambda tile, offset: tile * TILE_SLOTS + offset,
        st.one_of(st.sampled_from([0, 1, GROUP_TILES - 1, GROUP_TILES, 32767]), st.integers(0, 32767)),
        st.one_of(st.sampled_from([0, TILE_SLOTS - 1]), st.integers(0, TILE_SLOTS - 1)),
    ),
)
_tile_records = st.lists(st.tuples(st.sampled_from([0, 9, 255]), _tile_slots), max_size=120)


def tile_sweep_records(records, spread, octet) -> np.ndarray:
    """The drawn (octet, slot) records, then one hit in each of ``spread`` tiles of ``octet``."""
    drawn = [(a << 24) | low for a, low in records]
    stride = 32768 // max(spread, 1)
    spread_hits = [(octet << 24) | (t * stride * TILE_SLOTS + t % TILE_SLOTS) for t in range(spread)]
    return np.array(drawn + spread_hits, dtype=np.uint32)


@pytest.mark.parametrize("method", ["ssmb", "ipmap"])
@property_settings(25)
@given(
    records=_tile_records,
    spread=st.integers(0, 3 * GROUP_TILES),
    octet=st.sampled_from([0, 9, 255]),
    batch_records=st.integers(1, 40),
    k=st.integers(1, 500),
)
@example(records=[(9, 5)] * 6 + [(9, 7)] * 3 + [(9, 5)] * 4, spread=0, octet=9, batch_records=2, k=3)
@example(records=[(0, 0), (0, 511), (0, 512), (0, 2**24 - 1), (0, 512)], spread=0, octet=0, batch_records=1, k=5)
@example(records=[], spread=2 * GROUP_TILES + 1, octet=255, batch_records=7, k=500)
def test_tile_sweep_matches_oracle(shared_counter, method, records, spread, octet, batch_records, k):
    values = tile_sweep_records(records, spread, octet)
    with mock.patch.object(ipstat.model, "BATCH_RECORDS", batch_records):
        if method == "ssmb":
            seen = []
            entries = shared_counter.top_k(ArraySource(values), k, pass_hook=lambda o, stats: seen.append(stats))
            assert all(s["slot_sum"] == s["pass_records"] for s in seen)
            # the pass re-zeroed every live tile it swept
            assert not shared_counter._block.any()
        else:
            counter = IpMapCounter()
            for batch in ArraySource(values).open().batches():
                counter.ingest_many(batch)
            entries = counter.top_k(k)
            # the sweep reads the blocks and leaves every count in place
            assert all(counter.count(from_u32(a)) == c for a, c in oracle_top_k(values, values.size))
    assert as_pairs(entries) == oracle_top_k(values, k)


@pytest.mark.parametrize("method", ["ssmb", "ipmap"])
def test_every_tile_live(shared_counter, method):
    rng = np.random.default_rng(408)
    octet = 77
    tiles = 2**24 // TILE_SLOTS
    values = (octet << 24) | (np.arange(tiles) * TILE_SLOTS + rng.integers(0, TILE_SLOTS, tiles))
    values = rng.permutation(np.repeat(values, rng.integers(1, 4, tiles))).astype(np.uint32)
    if method == "ssmb":
        seen = []
        entries = shared_counter.top_k(ArraySource(values), 50, pass_hook=lambda o, stats: seen.append(stats))
        assert [(s["slot_sum"], s["pass_records"]) for s in seen] == [(values.size, values.size)]
        assert not shared_counter._block.any()
    else:
        counter = IpMapCounter()
        counter.ingest_many(values)
        entries = counter.top_k(50)
        assert int(counter._blocks[octet].sum()) == values.size
    assert as_pairs(entries) == oracle_top_k(values, 50)


class TestSpill:
    def test_runs_filed_by_octet_across_batches(self, monkeypatch):
        values = addresses_of("7.0.0.1", "9.0.0.2", "7.0.0.1", "7.0.0.3", "9.0.0.2")
        monkeypatch.setattr(ipstat.model, "BATCH_RECORDS", 2)
        with spilled(ArraySource(values)) as spill:
            assert spill.octets == [7, 9]
            runs = {octet: Counter() for octet in spill.octets}
            for octet in spill.octets:
                for slots, counts in spill.runs(octet):
                    assert np.unique(slots).size == slots.size
                    runs[octet].update(dict(zip(slots.tolist(), counts.tolist())))
            assert runs == {7: Counter({1: 2, 3: 1}), 9: Counter({2: 2})}
            assert list(spill.runs(8)) == []

    def test_workers_share_one_spill(self, monkeypatch):
        rng = np.random.default_rng(407)
        values = random_addresses(rng, 4000, first_octet_cap=6)
        source = CountingSource(ArraySource(values))
        monkeypatch.setattr(ipstat.model, "BATCH_RECORDS", 97)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the sweep threads with the pass that scatters the spill
        try:
            counter = SsmbCounter(workers=3)
            entries = counter.top_k(source, 10)
        finally:
            sys.setswitchinterval(interval)
        assert as_pairs(entries) == oracle_top_k(values, 10)
        assert counter.stats()["records_ingested"] == values.size
        assert source.opens == 1
        # the counter built one spill, as large as one built on its own
        with spilled(ArraySource(values)) as spill:
            assert counter.stats()["spill_bytes"] == spill.spill_bytes > 0

    def test_spill_is_the_same_for_every_thread_timing(self, monkeypatch):
        # the pool's aggregates finish in any order; the runs are appended in file order
        rng = np.random.default_rng(410)
        values = random_addresses(rng, 3000, first_octet_cap=5)
        monkeypatch.setattr(ipstat.model, "BATCH_RECORDS", 61)

        def spill_of(pool=None):
            with spilled(ArraySource(values), pool) as spill:
                segments = {o: [(s.tolist(), c.tolist()) for s, c in spill.runs(o)] for o in spill.octets}
                return spill.spill_bytes, spill.octets, segments, os.pread(spill._file.fileno(), spill.spill_bytes, 0)

        serial = spill_of()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (2, 3):
                with ThreadPoolExecutor(threads) as pool:
                    assert spill_of(pool) == serial
        finally:
            sys.setswitchinterval(interval)
        assert serial[0] > 0 and serial[1] == [0, 1, 2, 3, 4]

    def test_serial_query_starts_no_thread(self):
        threads = threading.active_count()
        seen = []
        values = addresses_of("1.0.0.1", "1.0.0.1", "7.0.0.2")
        SsmbCounter().top_k(ArraySource(values), 2, pass_hook=lambda o, stats: seen.append(threading.active_count()))
        assert seen == [threads, threads]

    def test_malformed_later_chunk_closes_spill(self, tmp_path, monkeypatch):
        self.check_malformed_later_chunk(tmp_path, monkeypatch, workers=1)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_malformed_later_chunk_with_aggregates_in_flight(self, tmp_path, monkeypatch, workers):
        self.check_malformed_later_chunk(tmp_path, monkeypatch, workers)

    @staticmethod
    def check_malformed_later_chunk(tmp_path, monkeypatch, workers):
        """The first bad line is named, the spill is closed and every thread joined."""
        data = tmp_path / "bad.txt"
        data.write_text("1.0.0.1\n2.0.0.2\n" * 50 + "3.0.0.x\n")
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        monkeypatch.setattr(ipstat.model, "TEXT_CHUNK_BYTES", 32)
        monkeypatch.setenv("TMPDIR", str(spill_dir))
        monkeypatch.setattr(tempfile, "tempdir", None)
        opened = []
        make = tempfile.TemporaryFile

        def spy(*args, **kwargs):
            opened.append((tempfile.gettempdir(), make(*args, **kwargs)))
            return opened[-1][1]

        appended = []
        append = OctetSpill.append
        monkeypatch.setattr(tempfile, "TemporaryFile", spy)
        monkeypatch.setattr(OctetSpill, "append", lambda self, *runs: appended.append(append(self, *runs)))
        aggregated = []

        def slow_aggregate(batch):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.005)  # still running when the reader meets the bad line
            aggregated.append(batch.size)
            return aggregate(batch)

        monkeypatch.setattr(ssmb, "aggregate", slow_aggregate)
        threads = threading.active_count()
        with pytest.raises(MalformedAddress, match="line 101"):
            SsmbCounter(workers).top_k(FileSource(data), 5)
        assert len(appended) > 1  # earlier chunks were spilled before the bad one
        # one batch per pool thread was aggregated ahead and never appended
        assert len(aggregated) - len(appended) == (workers if workers > 1 else 0)
        assert [(where, handle.closed) for where, handle in opened] == [(str(spill_dir), True)]
        assert os.listdir(spill_dir) == []
        assert threading.active_count() == threads


class TestOneBlockSweep:
    """``SsmbCounter(workers=W)``: passes in order over one block, W threads sweeping its slot ranges."""

    def test_ranges_are_tile_aligned_and_cover_the_block(self):
        for workers in (1, 2, 3, 4, 7, 256):
            ranges = sweep_ranges(workers)
            assert len(ranges) == workers
            assert ranges[0][0] == 0 and ranges[-1][1] == 2**24
            assert all(hi == lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))
            assert all(lo < hi and lo % TILE_SLOTS == 0 for lo, hi in ranges)
        # three ranges are uneven
        assert len({hi - lo for lo, hi in sweep_ranges(3)}) == 2

    def test_workers_clamp_to_256_ranges(self):
        # the clamp is read off the ranges; no query runs, so no thread starts
        assert sweep_ranges(257) == sweep_ranges(10_000) == sweep_ranges(256)
        assert SsmbCounter(workers=10_000).stats()["workers"] == 256
        for bad in (0, -1):
            with pytest.raises(InvalidPlan, match="at least 1"):
                SsmbCounter(workers=bad)

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_failed_pass_drops_the_block_and_joins_the_threads(self, monkeypatch, workers):
        counter = SsmbCounter(workers=workers)
        threads = threading.active_count()
        monkeypatch.setattr(ipstat.model, "BATCH_RECORDS", 2)
        with mock.patch.object(ipstat.model, "_MAX_COUNT", np.uint64(3)):
            with pytest.raises(CountOverflow):
                # octet 0 passes and fills the block's last range; octet 1's scatter overflows
                counter.top_k(ArraySource(addresses_of("0.255.255.255", *["1.0.0.1"] * 4)), 1)
        assert counter._block is None and threading.active_count() == threads
        # the last range's thread scatters its own slots, and its overflow drops the block too
        checked_add = ssmb.checked_add
        raised_on = []

        def spy_checked_add(current, counts):
            try:
                return checked_add(current, counts)
            except CountOverflow:
                raised_on.append(threading.current_thread())
                raise

        monkeypatch.setattr(ssmb, "checked_add", spy_checked_add)
        with mock.patch.object(ipstat.model, "_MAX_COUNT", np.uint64(3)):
            with pytest.raises(CountOverflow):
                counter.top_k(ArraySource(addresses_of("0.0.0.0", *["1.255.255.255"] * 4)), 1)
        assert len(raised_on) == 1 and raised_on[0] is not threading.main_thread()
        assert counter._block is None and threading.active_count() == threads
        monkeypatch.setattr(ssmb, "checked_add", checked_add)
        # a sweep thread that raises drops the block too
        offer_block = ssmb.offer_block

        def failing_offer_block(heap, block, octet, base=0):
            if base:
                raise MemoryError("sweep")
            return offer_block(heap, block, octet, base)

        monkeypatch.setattr(ssmb, "offer_block", failing_offer_block)
        with pytest.raises(MemoryError, match="sweep"):
            counter.top_k(ArraySource(addresses_of("0.255.255.255", "1.0.0.1")), 1)
        assert counter._block is None and threading.active_count() == threads
        monkeypatch.setattr(ssmb, "offer_block", offer_block)
        values = addresses_of("0.255.255.255", "1.0.0.1", "1.0.0.2", "1.0.0.2", "1.255.255.255", "5.0.0.1")
        seen = []
        entries = counter.top_k(ArraySource(values), 4, pass_hook=lambda octet, stats: seen.append(stats))
        assert as_pairs(entries) == oracle_top_k(values, 4)
        assert [(s["octet"], s["pass_records"]) for s in seen] == [(0, 1), (1, 4), (5, 1)]
        assert all(s["slot_sum"] == s["pass_records"] for s in seen)
        assert not counter._block.any() and threading.active_count() == threads


def edge_slots(workers: int) -> list[int]:
    """Slot 0, each sweep range's first slot and the slot before it, and the block's last slot."""
    return sorted({0, 2**24 - 1} | {slot for lo, _ in sweep_ranges(workers)[1:] for slot in (lo - 1, lo)})


@st.composite
def sweep_cases(draw):
    """(workers, batch size, addresses) with low-24 slots on the block's and the ranges' edges."""
    workers = draw(st.sampled_from([1, 2, 3, 4]))
    slot = st.one_of(st.sampled_from(edge_slots(workers)), st.integers(0, 2**24 - 1), st.integers(0, TILE_SLOTS - 1))
    records = draw(st.lists(st.tuples(st.sampled_from([0, 9, 255]), slot), max_size=150))
    values = np.array([(a << 24) | low for a, low in records], dtype=np.uint32)
    return workers, draw(st.integers(1, 40)), values


@property_settings(60)
@given(case=sweep_cases(), k=st.integers(1, 40))
@example(case=(3, 5, np.empty(0, dtype=np.uint32)), k=3)
# one live tile, hit in three passes
@example(case=(2, 3, addresses_of(*["9.0.0.1"] * 3, "9.0.1.255", "0.0.0.0", "255.0.1.0")), k=4)
# slot 0, each range edge and the slot before it, and the last slot, for three uneven ranges
@example(case=(3, 4, np.array([(9 << 24) | s for s in edge_slots(3) * 2], dtype=np.uint32)), k=10)
def test_one_block_sweep_matches_serial_and_oracle(shared_counter, case, k):
    workers, batch_records, values = case
    source = CountingSource(ArraySource(values))
    passes = []
    counter = SsmbCounter(workers=workers)
    with mock.patch.object(ipstat.model, "BATCH_RECORDS", batch_records):
        serial = shared_counter.top_k(source, k)
        entries = counter.top_k(source, k, pass_hook=lambda octet, stats: passes.append(stats))
    assert entries == serial
    assert as_pairs(entries) == oracle_top_k(values, k)
    stats = counter.stats()
    octets = sorted({int(v) >> 24 for v in values})
    assert [s["octet"] for s in passes] == octets
    assert all(s["slot_sum"] == s["pass_records"] for s in passes)
    assert stats["tracked_bytes"] == 134_217_728 and stats["workers"] == workers
    assert stats["passes"] == stats["q"] == len(octets)
    assert stats["records_ingested"] == values.size
    # one spill, counted once: the serial counter's
    assert stats["spill_bytes"] == shared_counter.stats()["spill_bytes"]
    batches = [values[i : i + batch_records].tolist() for i in range(0, values.size, batch_records)]
    assert stats["spill_bytes"] == RUN.itemsize * sum(len(set(b)) for b in batches)
    assert source.opens == 2
    if passes:
        assert not counter._block.any()


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_every_tile_live_in_every_range(workers):
    rng = np.random.default_rng(409)
    tiles = 2**24 // TILE_SLOTS
    values = (200 << 24) | (np.arange(tiles) * TILE_SLOTS + rng.integers(0, TILE_SLOTS, tiles))
    values = rng.permutation(np.repeat(values, rng.integers(1, 4, tiles))).astype(np.uint32)
    counter = SsmbCounter(workers=workers)
    seen = []
    entries = counter.top_k(ArraySource(values), 50, pass_hook=lambda o, stats: seen.append(stats))
    assert [(s["slot_sum"], s["pass_records"]) for s in seen] == [(values.size, values.size)]
    assert not counter._block.any()
    assert as_pairs(entries) == oracle_top_k(values, 50)
