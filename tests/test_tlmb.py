"""Two-layer counter: exactness, lazy allocation, memory accounting."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import as_pairs, oracle_counts, oracle_top_k, property_settings, random_addresses
from ipstat import ArraySource, TlmbCounter, from_u32, model, parse_dotted, query, tlmb, to_u32
from ipstat.tlmb import _POOL_SEED_BLOCKS, _SWEEP_BLOCKS

FIRST_LAYER_BYTES = 134_217_728
BLOCK_BYTES = 2048


def ingest_all(counter: TlmbCounter, values: np.ndarray, scalar: bool = False):
    if scalar:
        for value in values:
            counter.ingest_many(np.array([value], dtype=np.uint32))
    else:
        counter.ingest_many(values)


def one(text: str) -> np.ndarray:
    """A one-record batch."""
    return np.array([to_u32(parse_dotted(text))], dtype=np.uint32)


class TestAccounting:
    def test_fresh_counter(self):
        stats = TlmbCounter().stats()
        assert stats["records_ingested"] == 0
        assert stats["allocated_second_blocks"] == 0
        assert stats["tracked_bytes"] == FIRST_LAYER_BYTES

    def test_one_address(self):
        counter = TlmbCounter()
        counter.ingest_many(one("1.2.3.4"))
        stats = counter.stats()
        assert stats["records_ingested"] == 1
        assert stats["allocated_second_blocks"] == 1
        assert stats["tracked_bytes"] == 134_219_776

    def test_shared_prefix_shares_a_block(self):
        counter = TlmbCounter()
        for text in ["1.2.3.4", "1.2.3.4", "1.2.3.5"]:
            counter.ingest_many(one(text))
        assert counter.count(parse_dotted("1.2.3.4")) == 2
        assert counter.count(parse_dotted("1.2.3.5")) == 1
        assert counter.stats()["allocated_second_blocks"] == 1

    def test_distinct_prefixes_get_own_blocks(self):
        counter = TlmbCounter()
        counter.ingest_many(one("1.2.3.4"))
        counter.ingest_many(one("9.9.9.9"))
        assert counter.stats()["allocated_second_blocks"] == 2

    def test_lazy_allocation_matches_distinct_prefixes(self):
        rng = np.random.default_rng(300)
        for trial in range(20):
            values = random_addresses(rng, int(rng.integers(1, 20_000)), first_octet_cap=4)
            counter = TlmbCounter()
            counter.ingest_many(values)
            stats = counter.stats()
            prefixes = int(np.unique(values >> np.uint32(8)).size)
            assert stats["allocated_second_blocks"] == prefixes, f"trial {trial}"
            assert stats["tracked_bytes"] == FIRST_LAYER_BYTES + BLOCK_BYTES * prefixes


class TestExactness:
    @pytest.mark.parametrize("scalar", [False, True])
    def test_counts_equal_multiplicities(self, scalar):
        rng = np.random.default_rng(301)
        trials = 3 if scalar else 30
        for trial in range(trials):
            n = int(rng.integers(1, 3000 if scalar else 100_000))
            values = random_addresses(rng, n, first_octet_cap=int(rng.integers(1, 257)))
            counter = TlmbCounter()
            ingest_all(counter, values, scalar)
            table = oracle_counts(values)
            sample = rng.choice(values, size=min(n, 200))
            for value in sample.tolist():
                assert counter.count(from_u32(value)) == table[value]
            assert counter.sum_counts() == n
            assert counter.stats()["records_ingested"] == n

    def test_absent_address_counts_zero(self):
        counter = TlmbCounter()
        counter.ingest_many(np.array([to_u32_of("1.2.3.4")], dtype=np.uint32))
        assert counter.count(parse_dotted("1.2.3.5")) == 0
        assert counter.count(parse_dotted("2.2.3.4")) == 0

    def test_mixed_scalar_and_batch(self):
        counter = TlmbCounter()
        counter.ingest_many(one("1.2.3.4"))
        counter.ingest_many(np.array([to_u32_of("1.2.3.4"), to_u32_of("7.7.7.7")], dtype=np.uint32))
        assert counter.count(parse_dotted("1.2.3.4")) == 2
        assert counter.count(parse_dotted("7.7.7.7")) == 1


class TestTopK:
    def test_known_case(self):
        counter = TlmbCounter()
        for text in ["1.2.3.4", "1.2.3.4", "1.2.3.5"]:
            counter.ingest_many(one(text))
        assert as_pairs(counter.top_k(1)) == [(to_u32_of("1.2.3.4"), 2)]

    def test_empty_counter(self):
        assert TlmbCounter().top_k(10) == []

    def test_matches_oracle_on_random_input(self):
        rng = np.random.default_rng(302)
        for trial in range(30):
            values = random_addresses(rng, 10_000, first_octet_cap=int(rng.integers(1, 257)))
            # fold onto ~1000 distinct addresses so real ranking happens
            distinct = rng.choice(values, size=1000)
            values = rng.choice(distinct, size=10_000).astype(np.uint32)
            counter = TlmbCounter()
            counter.ingest_many(values)
            for k in (1, 10, 100):
                assert as_pairs(counter.top_k(k)) == oracle_top_k(values, k), f"trial {trial} k={k}"

    def test_repeated_calls_identical(self):
        rng = np.random.default_rng(303)
        values = random_addresses(rng, 5000)
        counter = TlmbCounter()
        counter.ingest_many(values)
        assert counter.top_k(25) == counter.top_k(25)

    def test_sweep_across_chunk_boundaries(self):
        # more blocks than two sweep chunks, over four first octets
        prefixes = np.arange(2 * _SWEEP_BLOCKS + 100, dtype=np.uint32) * np.uint32(13)
        addresses = (prefixes << np.uint32(8)) | (prefixes & np.uint32(0xFF))
        counts = 1 + np.arange(prefixes.size) % 3
        middle = prefixes.size // 2
        counts[middle : middle + 3] = (10, 9, 8)
        # the 4th count is tied between the first block and the last, and the
        # lower address sits in the last: its prefix arrives in a later batch
        counts[0] = counts[1] = 7
        records = np.repeat(addresses, counts)
        late = records >> np.uint32(8) == prefixes[0]
        counter = TlmbCounter()
        counter.ingest_many(records[~late])
        counter.ingest_many(records[late])
        assert counter._prefixes[0] == prefixes[1] and counter._prefixes[counter._allocated - 1] == prefixes[0]
        assert counter._allocated > 2 * _SWEEP_BLOCKS
        for k in (3, 4, 5, prefixes.size - 1, prefixes.size, prefixes.size + 1):
            expected = oracle_top_k(records, k)
            assert as_pairs(counter.top_k(k)) == expected, f"k={k}"
            for workers in (2, 3):
                entries, _ = query(ArraySource(records), "tlmb", k, workers=workers)
                assert as_pairs(entries) == expected, f"k={k} workers={workers}"

    def test_runner_over_source(self):
        rng = np.random.default_rng(304)
        values = random_addresses(rng, 20_000)
        entries, stats = query(ArraySource(values), "tlmb", 10)
        assert as_pairs(entries) == oracle_top_k(values, 10)
        assert stats["records_ingested"] == values.size


@st.composite
def tied_batches(draw):
    """(records, batch size): few blocks, their addresses sharing one to three counts, over several batches."""
    octet = draw(st.integers(0, 250))
    prefixes = draw(st.lists(st.integers(octet << 16, ((octet + 5) << 16) - 1), min_size=1, max_size=10, unique=True))
    levels = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
    slots = st.tuples(st.sampled_from(prefixes), st.integers(0, 255))
    addresses = draw(st.lists(slots, min_size=1, max_size=30, unique=True))
    counts = draw(st.lists(st.sampled_from(levels), min_size=len(addresses), max_size=len(addresses)))
    records = np.repeat([prefix << 8 | low for prefix, low in addresses], counts).astype(np.uint32)
    records = records[draw(st.permutations(range(records.size)))]
    return records, draw(st.integers(1, records.size))


def block_peaks(records: np.ndarray) -> list[int]:
    """Each /24 block's largest count, from the oracle."""
    peaks: dict[int, int] = {}
    for address, count in oracle_counts(records).items():
        peaks[address >> 8] = max(peaks.get(address >> 8, 0), count)
    return list(peaks.values())


def read_rows(monkeypatch) -> list[int]:
    """Count the block rows ``top_k`` hands to ``offer_nonzero``, one entry per call."""
    offered = []
    offer_nonzero = tlmb.offer_nonzero

    def counting(heap, rows, firsts):
        offered.append(rows.shape[0])
        return offer_nonzero(heap, rows, firsts)

    monkeypatch.setattr(tlmb, "offer_nonzero", counting)
    return offered


class TestPeaks:
    """``top_k`` reads only the blocks whose peak reaches the k-th largest peak."""

    @property_settings(150)
    @given(tied_batches())
    # every count tied, over three blocks, one record a batch
    @example((np.array([0x01020301, 0x01020401, 0x01020501, 0x01020302], dtype=np.uint32), 1))
    def test_matches_oracle_under_ties(self, case):
        records, batch_records = case
        with mock.patch.object(model, "BATCH_RECORDS", batch_records):
            batches = list(ArraySource(records).open().batches())
            octets = records >> np.uint32(24)
            counter = TlmbCounter(int(octets.min()), int(octets.max() - octets.min()) + 1)
            for batch in batches:
                counter.ingest_many(batch)
            blocks = counter.stats()["allocated_second_blocks"]
            for k in sorted({1, 2, max(blocks - 1, 1), blocks, blocks + 5}):
                expected = oracle_top_k(records, k)
                assert as_pairs(counter.top_k(k)) == expected, f"k={k}"
                for workers in (1, 2, 3):
                    entries, _ = query(ArraySource(records), "tlmb", k, workers=workers)
                    assert as_pairs(entries) == expected, f"k={k} workers={workers}"
            counter.reset()
            for batch in batches[::-1]:
                counter.ingest_many(batch)
            assert as_pairs(counter.top_k(1)) == oracle_top_k(records, 1)

    def test_later_batch_lifts_a_peak(self):
        # 1.2.3.0/24 peaks at 3 after the first batch, below 1.2.4.0/24's 5; the
        # second lifts its other slot to 6, and a third gives .4 three more
        first = np.repeat(np.array([0x01020301, 0x01020302, 0x01020401], dtype=np.uint32), (3, 1, 5))
        later = np.repeat(np.array([0x01020302, 0x01020401], dtype=np.uint32), (5, 1))
        last = np.repeat(np.array([0x01020301], dtype=np.uint32), 3)
        counter = TlmbCounter()
        for batch in (first, later, last):
            counter.ingest_many(batch)
        records = np.concatenate([first, later, last])
        for k in (1, 2, 3):
            assert as_pairs(counter.top_k(k)) == oracle_top_k(records, k), f"k={k}"
        assert counter._peaks[:2].tolist() == [6, 6]

    def test_pool_growth_keeps_peaks(self):
        # the top addresses sit in the first batch's blocks, which later batches never touch
        rng = np.random.default_rng(306)
        prefixes = rng.choice(4 << 16, size=3 * _POOL_SEED_BLOCKS, replace=False).astype(np.uint32)
        addresses = (prefixes << np.uint32(8)) | rng.integers(0, 256, prefixes.size).astype(np.uint32)
        counts = rng.integers(1, 4, prefixes.size)
        counts[: 10] = (9, 9, 8, 8, 8, 7, 7, 7, 7, 6)
        cuts = (0, _POOL_SEED_BLOCKS // 2, _POOL_SEED_BLOCKS + 7, prefixes.size)
        counter = TlmbCounter()
        records = []
        for lo, hi in zip(cuts, cuts[1:]):
            batch = np.repeat(addresses[lo:hi], counts[lo:hi])
            counter.ingest_many(batch)
            records.append(batch)
        records = np.concatenate(records)
        assert counter._pool.shape[0] > _POOL_SEED_BLOCKS
        for k in (1, 2, 5, 10, 11, prefixes.size - 1, prefixes.size, prefixes.size + 5):
            assert as_pairs(counter.top_k(k)) == oracle_top_k(records, k), f"k={k}"

    def test_reset_clears_peaks(self):
        # after a reset the same block ordinals hold other prefixes with lower counts
        counter = TlmbCounter()
        counter.ingest_many(np.repeat(np.array([0x01020301, 0x01020401], dtype=np.uint32), (50, 40)))
        counter.reset()
        again = np.repeat(np.array([0x05060701, 0x05060801, 0x05060901], dtype=np.uint32), (1, 3, 2))
        counter.ingest_many(again)
        for k in (1, 2, 3):
            assert as_pairs(counter.top_k(k)) == oracle_top_k(again, k), f"k={k}"

    def test_skewed_input_reads_blocks_at_the_floor(self, monkeypatch):
        rng = np.random.default_rng(307)
        distinct = random_addresses(rng, 20_000, first_octet_cap=4)
        records = distinct[np.minimum(rng.zipf(1.2, 200_000), distinct.size) - 1]
        counter = TlmbCounter()
        for batch in np.array_split(records, 3):
            counter.ingest_many(batch)
        peaks = block_peaks(records)
        offered = read_rows(monkeypatch)
        for k in (1, 10, 100, 1000):
            assert len(peaks) > k
            floor = sorted(peaks, reverse=True)[k - 1]
            offered.clear()
            assert as_pairs(counter.top_k(k)) == oracle_top_k(records, k), f"k={k}"
            assert sum(offered) == sum(peak >= floor for peak in peaks), f"k={k}"
            assert sum(offered) < len(peaks) // 2, f"k={k}"

    def test_all_tied_reads_every_block(self, monkeypatch):
        prefixes = np.arange(_SWEEP_BLOCKS + 100, dtype=np.uint32) * np.uint32(7)
        records = (prefixes << np.uint32(8)) | (prefixes & np.uint32(0xFF))
        counter = TlmbCounter()
        counter.ingest_many(records)
        offered = read_rows(monkeypatch)
        for k in (1, 100, prefixes.size - 1):
            offered.clear()
            assert as_pairs(counter.top_k(k)) == oracle_top_k(records, k), f"k={k}"
            assert offered == [_SWEEP_BLOCKS, 100], f"k={k}"


class TestLifecycle:
    def test_reset_reopens_and_zeroes(self):
        rng = np.random.default_rng(305)
        values = random_addresses(rng, 1000)
        counter = TlmbCounter()
        counter.ingest_many(values)
        counter.reset()
        stats = counter.stats()
        assert stats == {
            "records_ingested": 0,
            "allocated_second_blocks": 0,
            "first_layer_bytes": FIRST_LAYER_BYTES,
            "tracked_bytes": FIRST_LAYER_BYTES,
        }
        counter.ingest_many(values)
        assert counter.sum_counts() == values.size
        assert as_pairs(counter.top_k(5)) == oracle_top_k(values, 5)


class TestNarrowedRange:
    def test_narrowed_first_layer_bytes(self):
        counter = TlmbCounter(first_octet_base=64, first_octet_span=64)
        assert counter.stats()["first_layer_bytes"] == FIRST_LAYER_BYTES // 4

    def test_narrowed_counts_its_range(self):
        counter = TlmbCounter(first_octet_base=2, first_octet_span=2)
        counter.ingest_many(np.array([to_u32_of("2.0.0.1"), to_u32_of("3.255.0.1")], dtype=np.uint32))
        assert counter.count(parse_dotted("2.0.0.1")) == 1
        assert counter.count(parse_dotted("3.255.0.1")) == 1

    def test_narrowed_rejects_outside_range(self):
        counter = TlmbCounter(first_octet_base=2, first_octet_span=2)
        with pytest.raises(ValueError):
            counter.ingest_many(np.array([to_u32_of("4.0.0.1")], dtype=np.uint32))
        with pytest.raises(ValueError):
            counter.ingest_many(one("1.0.0.1"))

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            TlmbCounter(first_octet_base=-1)
        with pytest.raises(ValueError):
            TlmbCounter(first_octet_base=255, first_octet_span=2)


def to_u32_of(text: str) -> int:
    return to_u32(parse_dotted(text))
