"""Bounded min-heap invariants against the brute-force sort oracle."""

import numpy as np
import pytest

from conftest import as_pairs, oracle_top_k
from ipstat import HeapEntry, TopKHeap, from_u32, merge_top_k


def offer_pairs(heap: TopKHeap, pairs):
    for value, count in pairs:
        heap.offer_u32(value, count)


class TestKnownCases:
    def test_keeps_the_k_strongest(self):
        heap = TopKHeap(2)
        offer_pairs(heap, [(10, 3), (20, 1), (30, 2)])
        assert sorted(as_pairs(heap.drain_sorted())) == [(10, 3), (30, 2)]

    def test_k1_is_running_max(self):
        heap = TopKHeap(1)
        offer_pairs(heap, [(10, 2), (20, 7), (30, 5)])
        assert as_pairs(heap.drain_sorted()) == [(20, 7)]

    def test_k1_tie_goes_to_smaller_address(self):
        heap = TopKHeap(1)
        offer_pairs(heap, [(100, 4), (200, 4)])
        assert as_pairs(heap.drain_sorted()) == [(100, 4)]
        heap = TopKHeap(1)
        offer_pairs(heap, [(200, 4), (100, 4)])
        assert as_pairs(heap.drain_sorted()) == [(100, 4)]

    def test_drain_orders_ties_by_address(self):
        heap = TopKHeap(5)
        offer_pairs(heap, [(200, 4), (100, 4)])
        assert as_pairs(heap.drain_sorted()) == [(100, 4), (200, 4)]

    def test_drain_empty(self):
        assert TopKHeap(3).drain_sorted() == []

    def test_drain_consumes(self):
        heap = TopKHeap(2)
        heap.offer_u32(1, 1)
        heap.drain_sorted()
        assert heap.drain_sorted() == []

    def test_fewer_than_k_returns_all(self):
        heap = TopKHeap(10)
        offer_pairs(heap, [(1, 5), (2, 3)])
        assert as_pairs(heap.drain_sorted()) == [(1, 5), (2, 3)]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            TopKHeap(0)

    def test_min_count_and_full(self):
        heap = TopKHeap(2)
        assert heap.min_count == 0 and not heap.full
        offer_pairs(heap, [(1, 5), (2, 3)])
        assert heap.full and heap.min_count == 3
        heap.offer_u32(3, 4)
        assert heap.min_count == 4

    def test_entries_are_addresses(self):
        heap = TopKHeap(1)
        heap.offer_u32(16909060, 9)
        (entry,) = heap.drain_sorted()
        assert isinstance(entry, HeapEntry)
        assert str(entry.address) == "1.2.3.4"
        assert entry.count == 9


class TestOracleEquivalence:
    def test_random_multisets_match_full_sort(self):
        rng = np.random.default_rng(200)
        for trial in range(300):
            k = int(rng.choice([1, 3, 10, 100]))
            distinct = int(rng.integers(1, 500))
            values = rng.choice(2**32, size=distinct, replace=False).astype(np.int64)
            counts = rng.integers(1, 50, size=distinct)
            heap = TopKHeap(k)
            offer_pairs(heap, zip(values.tolist(), counts.tolist()))
            expected = sorted(zip(values.tolist(), counts.tolist()), key=lambda p: (-p[1], p[0]))[:k]
            assert as_pairs(heap.drain_sorted()) == expected, f"trial {trial}"

    def test_offer_order_independence(self):
        rng = np.random.default_rng(201)
        for trial in range(200):
            k = int(rng.choice([1, 5, 20]))
            distinct = int(rng.integers(1, 300))
            values = rng.choice(2**24, size=distinct, replace=False).tolist()
            counts = rng.integers(1, 10, size=distinct).tolist()
            pairs = list(zip(values, counts))
            outs = []
            for _ in range(2):
                rng.shuffle(pairs)
                heap = TopKHeap(k)
                offer_pairs(heap, pairs)
                outs.append(as_pairs(heap.drain_sorted()))
            assert outs[0] == outs[1], f"trial {trial}"

    def test_offer_many_equals_one_by_one(self):
        rng = np.random.default_rng(202)
        for trial in range(200):
            k = int(rng.choice([1, 4, 16, 64]))
            distinct = int(rng.integers(1, 800))
            values = rng.choice(2**32, size=distinct, replace=False).astype(np.uint32)
            counts = rng.integers(1, 30, size=distinct).astype(np.uint64)
            batched = TopKHeap(k)
            # split into a few batches so the pruning floor actually moves
            cuts = sorted(rng.integers(0, distinct + 1, size=3).tolist())
            for lo, hi in zip([0] + cuts, cuts + [distinct]):
                batched.offer_many(values[lo:hi], counts[lo:hi])
            serial = TopKHeap(k)
            offer_pairs(serial, zip(values.tolist(), counts.tolist()))
            assert as_pairs(batched.drain_sorted()) == as_pairs(serial.drain_sorted()), f"trial {trial}"

    def test_offer_many_handles_numpy_dtypes(self):
        heap = TopKHeap(2)
        heap.offer_many(np.array([5, 6, 7], dtype=np.uint32), np.array([1, 2, 3], dtype=np.uint64))
        assert as_pairs(heap.drain_sorted()) == [(7, 3), (6, 2)]


class TestMerge:
    def test_merge_equals_oracle_on_partitions(self):
        rng = np.random.default_rng(203)
        for trial in range(100):
            k = int(rng.choice([1, 10, 50]))
            addresses = rng.integers(0, 2**32, size=3000, dtype=np.uint64).astype(np.uint32)
            table = {}
            for value in addresses.tolist():
                table[value] = table.get(value, 0) + 1
            # partition by top two bits, build per-part candidate lists
            parts = []
            for part in range(4):
                sub = [(v, c) for v, c in table.items() if v >> 30 == part]
                heap = TopKHeap(k)
                offer_pairs(heap, sub)
                parts.append(heap.drain_sorted())
            merged = merge_top_k(parts, k)
            assert as_pairs(merged) == oracle_top_k(addresses, k), f"trial {trial}"

    def test_merge_empty(self):
        assert merge_top_k([[], []], 5) == []

    def test_merge_is_capped(self):
        part = [HeapEntry(from_u32(i), 100 - i) for i in range(10)]
        assert len(merge_top_k([part], 3)) == 3
