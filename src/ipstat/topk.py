"""Bounded min-heap for exact top-k selection.

The heap keeps at most k (address, count) entries; its root is always the
weakest kept entry, so a full heap admits a candidate only when the
candidate beats the root. One total order is used everywhere:

* higher count wins;
* equal counts: the numerically smaller 32-bit address wins.

heapq is a min-heap over tuples, so entries are stored keyed by
(count, -address): the weakest entry — lowest count, largest address
within that count — sits at the root. With k=1 this degenerates to a
running maximum whose ties resolve to the smallest address.
"""

from __future__ import annotations

import heapq
from typing import Iterable, NamedTuple

import numpy as np

from .model import IPv4Address, from_u32, to_u32


class HeapEntry(NamedTuple):
    """One result row: an address and its exact count."""

    address: IPv4Address
    count: int


class TopKHeap:
    """Fixed-capacity collector of the k strongest (address, count) pairs."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self.k = k
        self._heap: list[tuple[int, int]] = []

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.k

    @property
    def min_count(self) -> int:
        """Count of the weakest kept entry; 0 while the heap is not full."""
        return self._heap[0][0] if self.full else 0

    def offer_u32(self, address: int, count: int) -> bool:
        """Offer one candidate in integer form; True if it was kept."""
        entry = (count, -address)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            return True
        if entry <= self._heap[0]:
            return False
        heapq.heapreplace(self._heap, entry)
        return True

    def offer_many(self, addresses: np.ndarray, counts: np.ndarray) -> None:
        """Offer a batch of candidates, pruning ones that cannot be kept.

        Only candidates counting above the floor — the larger of the current
        root count (when full) and the batch's own k-th largest count — can
        enter the final heap, so everything below it is dropped wholesale;
        floor-count candidates survive because address order can still
        decide. No sorting happens and results match offering one by one.
        """
        addresses = np.asarray(addresses)
        counts = np.asarray(counts)
        if counts.size > self.k:
            floor = np.partition(counts, counts.size - self.k)[counts.size - self.k]
            floor = max(floor, self.min_count)
            keep = counts >= floor
            addresses = addresses[keep]
            counts = counts[keep]
        for address, count in zip(addresses.tolist(), counts.tolist()):
            self.offer_u32(address, count)

    def drain_sorted(self) -> list[HeapEntry]:
        """Remove and return all entries, strongest first."""
        ordered = sorted(self._heap, reverse=True)
        self._heap = []
        return [HeapEntry(from_u32(-neg), count) for count, neg in ordered]


def merge_top_k(parts: Iterable[Iterable[HeapEntry]], k: int) -> list[HeapEntry]:
    """Combine candidate lists of distinct addresses into one top-k list."""
    heap = TopKHeap(k)
    for part in parts:
        for entry in part:
            heap.offer_u32(to_u32(entry.address), entry.count)
    return heap.drain_sorted()


def offer_nonzero(heap: TopKHeap, rows: np.ndarray, firsts: np.ndarray) -> int:
    """Offer the non-zero slots of a 2-D count array to ``heap``; returns their sum.

    Slot j of row r counts the address ``firsts[r] + j``. Every block
    counter lists its counts this way: through a bool mask, which numpy
    lists about three times faster than the uint64 slots themselves.
    """
    hits = np.flatnonzero(rows != 0)
    row, slot = np.divmod(hits, rows.shape[1])
    counts = rows.reshape(-1)[hits]
    heap.offer_many((firsts[row] + slot).astype(np.uint32), counts)
    return int(counts.sum())
