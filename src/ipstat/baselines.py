"""Reference counters the memory-block methods are measured against.

* HashCounter — a plain hash-map frequency table (collections.Counter
  keyed by the 32-bit address). Simple and exact, but both time and
  memory ride on the hash table's churn as distinct addresses grow. Its
  ``tracked_bytes`` is ``sys.getsizeof`` of the table alone, a lower
  bound: the key and count objects it points to are not counted.
* IpMapCounter — direct-mapped counting: one 2**24-slot uint64 block per
  distinct first octet, all kept live at once. A batch is aggregated once
  (``model.aggregate``); its ascending distinct addresses are cut at
  first-octet boundaries and each slice is scattered into its own block.
  Lookups are pure indexing, but memory is 134,217,728 bytes per distinct
  first octet, which is what makes it a foil for the subset-scan counter
  that reuses a single block.

Both expose the same ingest/count/top_k/stats surface as the memory-block
counters so the benchmark driver can treat every method alike.
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np

from .errors import AllocationFailure
from .model import IPv4Address, aggregate, checked_add, from_u32, octet_runs, to_u32
from .topk import HeapEntry, TopKHeap, merge_top_k

BLOCK_SLOTS = 1 << 24
BLOCK_BYTES = BLOCK_SLOTS * 8


class HashCounter:
    """Hash-map frequency table over 32-bit address keys."""

    def __init__(self):
        self._table: Counter[int] = Counter()
        self._records = 0

    def ingest(self, address: IPv4Address) -> None:
        self._table[to_u32(address)] += 1
        self._records += 1

    def ingest_many(self, batch: np.ndarray) -> None:
        self._table.update(np.asarray(batch, dtype=np.uint32).tolist())
        self._records += int(np.asarray(batch).size)

    def count(self, address: IPv4Address) -> int:
        return self._table[to_u32(address)]

    def top_k(self, k: int) -> list[HeapEntry]:
        heap = TopKHeap(k)
        if self._table:
            addresses = np.fromiter(self._table.keys(), dtype=np.uint32, count=len(self._table))
            counts = np.fromiter(self._table.values(), dtype=np.int64, count=len(self._table))
            heap.offer_many(addresses, counts)
        return heap.drain_sorted()

    def sorted_items(self) -> list[HeapEntry]:
        """Every (address, count) pair, strongest first — the full ranking."""
        pairs = sorted(self._table.items(), key=lambda kv: (-kv[1], kv[0]))
        return [HeapEntry(from_u32(key), count) for key, count in pairs]

    def stats(self) -> dict:
        return {
            "records_ingested": self._records,
            "distinct_addresses": len(self._table),
            # a lower bound: the table itself, not its key and count objects
            "tracked_bytes": sys.getsizeof(self._table),
        }


class IpMapCounter:
    """Direct-mapped counter: one full count block per distinct first octet."""

    def __init__(self):
        self._blocks: dict[int, np.ndarray] = {}
        self._records = 0

    def _block(self, octet: int) -> np.ndarray:
        block = self._blocks.get(octet)
        if block is None:
            try:
                block = np.zeros(BLOCK_SLOTS, dtype=np.uint64)
            except MemoryError as exc:
                raise AllocationFailure(
                    f"could not allocate count block {len(self._blocks) + 1} "
                    f"({BLOCK_BYTES} bytes) for first octet {octet}"
                ) from exc
            self._blocks[octet] = block
        return block

    def ingest(self, address: IPv4Address) -> None:
        self.ingest_many(np.array([to_u32(address)], dtype=np.uint32))

    def ingest_many(self, batch: np.ndarray) -> None:
        values, counts = aggregate(batch)
        if values.size == 0:
            return
        parts = []
        for octet, lo, hi in octet_runs(values):
            slots = (values[lo:hi] & np.uint32(0xFFFFFF)).astype(np.int64)
            parts.append((self._block(octet), slots, counts[lo:hi]))
        # every slice is checked before any is written
        sums = [checked_add(block[slots], part) for block, slots, part in parts]
        for (block, slots, _), total in zip(parts, sums):
            block[slots] = total
        self._records += int(counts.sum())

    def count(self, address: IPv4Address) -> int:
        value = to_u32(address)
        block = self._blocks.get(value >> 24)
        return 0 if block is None else int(block[value & 0xFFFFFF])

    def per_subset_topk(self, k: int) -> dict[int, list[HeapEntry]]:
        """Local top-k of each first-octet subset, keyed by octet."""
        result = {}
        for octet in sorted(self._blocks):
            block = self._blocks[octet]
            heap = TopKHeap(k)
            hits = np.flatnonzero(block)
            if hits.size:
                addresses = np.uint32(octet << 24) | hits.astype(np.uint32)
                heap.offer_many(addresses, block[hits])
            result[octet] = heap.drain_sorted()
        return result

    def top_k(self, k: int) -> list[HeapEntry]:
        """Global top-k: per-subset top-k lists merged through one heap.

        Subsets partition the address space, so a global top-k member is
        always in its own subset's top-k and the merge loses nothing.
        """
        return merge_top_k(self.per_subset_topk(k).values(), k)

    def stats(self) -> dict:
        return {
            "records_ingested": self._records,
            "allocated_blocks": len(self._blocks),
            "tracked_bytes": BLOCK_BYTES * len(self._blocks),
        }


def hash_top_k(source, k: int) -> tuple[list[HeapEntry], dict]:
    """One-pass hash-map top-k; returns (entries, stats)."""
    counter = HashCounter()
    for batch in source.open().batches():
        counter.ingest_many(batch)
    return counter.top_k(k), counter.stats()


def ipmap_top_k(source, k: int) -> tuple[list[HeapEntry], dict]:
    """One-pass direct-mapped top-k; returns (entries, stats)."""
    counter = IpMapCounter()
    for batch in source.open().batches():
        counter.ingest_many(batch)
    return counter.top_k(k), counter.stats()
