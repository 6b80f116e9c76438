"""Two-layer counter: exactness, lazy allocation, memory accounting."""

import numpy as np
import pytest

from conftest import as_pairs, oracle_counts, oracle_top_k, random_addresses
from ipstat import ArraySource, TlmbCounter, from_u32, parse_dotted, query, to_u32

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

    def test_runner_over_source(self):
        rng = np.random.default_rng(304)
        values = random_addresses(rng, 20_000)
        entries, stats = query(ArraySource(values), "tlmb", 10)
        assert as_pairs(entries) == oracle_top_k(values, 10)
        assert stats["records_ingested"] == values.size


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
