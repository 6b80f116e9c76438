"""Hash-map and direct-mapped baselines: the reference methods."""

import numpy as np
import pytest

import ipstat.baselines as baselines
from conftest import as_pairs, oracle_counts, oracle_top_k, random_addresses
from ipstat import (
    ArraySource,
    HashCounter,
    IpMapCounter,
    from_u32,
    parse_dotted,
    query,
    to_u32,
)


def addresses_of(*texts: str) -> np.ndarray:
    return np.array([to_u32(parse_dotted(t)) for t in texts], dtype=np.uint32)


class TestHashCounter:
    def test_known_case(self):
        entries, _ = query(ArraySource(addresses_of("1.1.1.1", "1.1.1.1", "1.1.1.1", "2.2.2.2")), "hash", 1)
        assert as_pairs(entries) == [(to_u32(parse_dotted("1.1.1.1")), 3)]

    def test_empty_input(self):
        entries, stats = query(ArraySource(np.empty(0, dtype=np.uint32)), "hash", 10)
        assert entries == []
        assert stats["records_ingested"] == 0

    def test_counts_match_oracle(self):
        rng = np.random.default_rng(500)
        values = random_addresses(rng, 30_000)
        counter = HashCounter()
        counter.ingest_many(values)
        table = oracle_counts(values)
        assert counter.stats()["distinct_addresses"] == len(table)
        for value in rng.choice(values, size=100).tolist():
            assert counter.count(from_u32(value)) == table[value]

    def test_scalar_ingest(self):
        counter = HashCounter()
        counter.ingest_many(addresses_of("3.3.3.3"))
        counter.ingest_many(addresses_of("3.3.3.3"))
        assert counter.count(parse_dotted("3.3.3.3")) == 2
        assert counter.stats()["records_ingested"] == 2

    def test_tracked_bytes_present(self):
        counter = HashCounter()
        counter.ingest_many(random_addresses(np.random.default_rng(502), 1000))
        assert counter.stats()["tracked_bytes"] > 0


class TestIpMapCounter:
    def test_known_case(self):
        entries, _ = query(ArraySource(addresses_of(*["10.0.0.1"] * 3, *["20.0.0.2"] * 5)), "ipmap", 1)
        assert as_pairs(entries) == [(to_u32(parse_dotted("20.0.0.2")), 5)]

    def test_tracked_bytes_per_first_octet(self):
        counter = IpMapCounter()
        counter.ingest_many(addresses_of("10.1.2.3", "192.168.0.1"))
        assert counter.stats()["tracked_bytes"] == 268_435_456
        assert counter.stats()["allocated_blocks"] == 2
        counter.ingest_many(addresses_of("10.9.9.9"))
        assert counter.stats()["tracked_bytes"] == 268_435_456

    def test_matches_hash_on_random_input(self):
        rng = np.random.default_rng(503)
        for trial in range(5):
            values = random_addresses(rng, 8000, first_octet_cap=3)
            folded = rng.choice(rng.choice(values, size=400), size=8000).astype(np.uint32)
            ours, _ = query(ArraySource(folded), "ipmap", 10)
            reference, _ = query(ArraySource(folded), "hash", 10)
            assert ours == reference, f"trial {trial}"

    def test_count_and_scalar_ingest(self):
        counter = IpMapCounter()
        counter.ingest_many(addresses_of("1.2.3.4"))
        assert counter.count(parse_dotted("1.2.3.4")) == 1
        assert counter.count(parse_dotted("1.2.3.5")) == 0
        assert counter.count(parse_dotted("99.2.3.4")) == 0

    def test_allocation_failure_is_surfaced(self, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(baselines.np, "zeros", exhausted)
        counter = IpMapCounter()
        with pytest.raises(MemoryError):
            counter.ingest_many(addresses_of("1.2.3.4"))
        # no partial block is kept
        assert counter.stats()["allocated_blocks"] == 0

    def test_allocation_failure_keeps_no_count_or_block(self, monkeypatch):
        counter = IpMapCounter()
        counter.ingest_many(addresses_of("1.2.3.4"))
        before = counter.stats()
        zeros = np.zeros
        made = []

        def second_block_fails(shape, *args, **kwargs):
            if shape == 1 << 24 and made:
                raise MemoryError
            made.append(shape)
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(baselines.np, "zeros", second_block_fails)
        with pytest.raises(MemoryError):
            counter.ingest_many(addresses_of("1.2.3.4", "2.0.0.1", "3.0.0.1"))
        # neither the existing block's count nor the block made for 2.x is kept
        assert counter.stats() == before
        assert counter.count(parse_dotted("1.2.3.4")) == 1
        assert counter.count(parse_dotted("2.0.0.1")) == 0


class TestCrossMethodEquivalence:
    def test_all_four_methods_agree(self):
        rng = np.random.default_rng(505)
        for trial in range(5):
            values = random_addresses(rng, 6000, first_octet_cap=3)
            folded = rng.choice(rng.choice(values, size=300), size=6000).astype(np.uint32)
            source = ArraySource(folded)
            results = [query(source, method, 10)[0] for method in ("tlmb", "ssmb", "hash", "ipmap")]
            assert results[0] == results[1] == results[2] == results[3], f"trial {trial}"
            assert as_pairs(results[0]) == oracle_top_k(folded, 10)
