"""The aggregation kernel and each counter's scatter step against a Counter oracle."""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import as_pairs, oracle_counts, oracle_top_k, property_settings
from ipstat import ArraySource, CountOverflow, IpMapCounter, SsmbCounter, TlmbCounter, from_u32
from ipstat import model
from ipstat.model import aggregate

# few first octets, so each ipmap/ssmb example touches at most four 128 MiB blocks
OCTETS = (0, 1, 127, 255)
_lows = st.one_of(st.sampled_from([0, 1, 0xFF, 0x100, 0xFFFFFF]), st.integers(0, 0xFFFFFF))
_addresses = st.builds(lambda a, low: (a << 24) | low, st.sampled_from(OCTETS), _lows)
# batches drawn from a small population, so addresses and /24 prefixes repeat
BATCHES = st.lists(_addresses, min_size=1, max_size=12).flatmap(
    lambda population: st.lists(st.lists(st.sampled_from(population), max_size=40), max_size=6)
)
ONE_ADDRESS_REPEATED = [[0xFF000001] * 30, [], [0xFF000001] * 5]


def as_batches(batches):
    return [np.array(b, dtype=np.uint32) for b in batches]


def flatten(batches) -> list[int]:
    return [value for batch in batches for value in batch]


def reference_prefix_order(batches) -> list[int]:
    """Block order of a record-at-a-time model of batched ingest.

    Within a batch, prefixes not seen before get blocks in ascending order.
    """
    seen: set[int] = set()
    order = []
    for batch in batches:
        fresh = {value >> 8 for value in batch} - seen
        order += sorted(fresh)
        seen |= fresh
    return order


def per_octet(counts: Counter) -> dict[int, int]:
    totals: Counter = Counter()
    for value, count in counts.items():
        totals[value >> 24] += count
    return dict(totals)


@property_settings(100)
@given(st.lists(_addresses, max_size=60))
@example([])
@example([0xFF000001] * 30)
def test_aggregate_matches_counter(batch):
    values, counts = aggregate(np.array(batch, dtype=np.uint32))
    assert values.dtype == np.uint32 and counts.dtype == np.uint64
    assert values.tolist() == sorted(set(batch))
    assert dict(zip(values.tolist(), counts.tolist())) == Counter(batch)


@property_settings(60)
@given(BATCHES)
@example([[], []])
@example(ONE_ADDRESS_REPEATED)
def test_tlmb_scatter(batches):
    counter = TlmbCounter()
    for batch in as_batches(batches):
        counter.ingest_many(batch)
    records = flatten(batches)
    oracle = oracle_counts(records)
    assert counter.sum_counts() == counter.stats()["records_ingested"] == len(records)
    assert all(counter.count(from_u32(value)) == count for value, count in oracle.items())
    assert counter._prefixes[: counter._allocated].tolist() == reference_prefix_order(batches)
    assert as_pairs(counter.top_k(len(oracle) + 1)) == oracle_top_k(records, len(oracle) + 1)


@property_settings(60)
@given(BATCHES, st.sampled_from([0, 1, 127, 128, 255]), st.integers(1, 256))
def test_narrowed_tlmb_scatter(batches, base, span):
    span = min(span, 256 - base)
    counter = TlmbCounter(first_octet_base=base, first_octet_span=span)
    kept = []
    for batch in batches:
        if all(base <= value >> 24 < base + span for value in batch):
            counter.ingest_many(np.array(batch, dtype=np.uint32))
            kept.append(batch)
        else:
            before = counter.sum_counts(), counter._allocated
            with pytest.raises(ValueError):
                counter.ingest_many(np.array(batch, dtype=np.uint32))
            assert (counter.sum_counts(), counter._allocated) == before
    records = flatten(kept)
    assert counter.sum_counts() == counter.stats()["records_ingested"] == len(records)
    assert counter._prefixes[: counter._allocated].tolist() == reference_prefix_order(kept)
    assert as_pairs(counter.top_k(len(records) + 1)) == oracle_top_k(records, len(records) + 1)


@property_settings(30)
@given(BATCHES)
@example(ONE_ADDRESS_REPEATED)
def test_ipmap_scatter(batches):
    counter = IpMapCounter()
    for batch in as_batches(batches):
        counter.ingest_many(batch)
    records = flatten(batches)
    oracle = oracle_counts(records)
    assert counter.stats()["records_ingested"] == len(records)
    assert all(counter.count(from_u32(value)) == count for value, count in oracle.items())
    assert {octet: int(block.sum()) for octet, block in counter._blocks.items()} == per_octet(oracle)


@pytest.fixture(scope="module")
def ssmb_counter():
    # one counter for every example: the shared block is reused across queries by design
    return SsmbCounter()


@property_settings(30)
@given(BATCHES, st.integers(1, 16))
@example(ONE_ADDRESS_REPEATED, 7)
def test_ssmb_scatter(ssmb_counter, batches, batch_records):
    records = flatten(batches)
    oracle = oracle_counts(records)
    passes = {}

    def hook(octet, stats):
        assert stats["slot_sum"] == stats["pass_records"]
        passes[octet] = stats["pass_records"]

    source = ArraySource(np.array(records, dtype=np.uint32))
    with mock.patch.object(model, "BATCH_RECORDS", batch_records):
        entries = ssmb_counter.top_k(source, len(oracle) + 1, pass_hook=hook)
    assert as_pairs(entries) == oracle_top_k(records, len(oracle) + 1)
    assert passes == per_octet(oracle)
    assert ssmb_counter.stats()["records_ingested"] == len(records)


class TestOverflow:
    TOP = 2**64 - 2

    def test_tlmb_batch_raises_and_writes_nothing(self):
        counter = TlmbCounter()
        counter.ingest_many(np.array([0x01020304], dtype=np.uint32))
        counter._pool[0, 0x04] = self.TOP
        batch = np.array([0x01020305, 0x01020304, 0x01020304], dtype=np.uint32)
        with pytest.raises(CountOverflow):
            counter.ingest_many(batch)
        assert counter.count(from_u32(0x01020304)) == self.TOP
        assert counter.count(from_u32(0x01020305)) == 0
        assert counter.stats()["records_ingested"] == 1
        counter.ingest_many(batch[:2])
        assert counter.count(from_u32(0x01020304)) == 2**64 - 1

    def test_ipmap_batch_raises_and_writes_nothing(self):
        counter = IpMapCounter()
        counter.ingest_many(np.array([0xFF000001], dtype=np.uint32))
        counter._blocks[0xFF][1] = self.TOP
        # the low octet's slice comes first and must not be written either
        batch = np.array([0x01000001, 0xFF000001, 0xFF000001], dtype=np.uint32)
        with pytest.raises(CountOverflow):
            counter.ingest_many(batch)
        assert counter.count(from_u32(0xFF000001)) == self.TOP
        assert counter.count(from_u32(0x01000001)) == 0
        assert counter.stats()["records_ingested"] == 1
        counter.ingest_many(batch[:2])
        assert counter.count(from_u32(0xFF000001)) == 2**64 - 1
