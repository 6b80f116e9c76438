"""Two-layer memory-block counter (TLMB): exact, one pass, lazy memory.

Counts are kept in two layers keyed by the address split (a.b.c | d):

* first layer: one handle table with a slot per /24 prefix. A full-range
  counter has 256*256*256 = 2**24 slots of 8 bytes — 134,217,728 bytes,
  allocated up front. Slot value 0 means "no block yet"; any other value
  is 1 + the ordinal of the prefix's second-layer block.
* second layer: per-prefix count blocks of 256 uint64 slots (2048 bytes),
  allocated lazily the first time a prefix appears. Block d-slots hold the
  exact count of a.b.c.d.

A prefix's handle slot lives at index a*256*256 + b*256 + c, which is just
the address value shifted right by 8 — distinct prefixes never collide.
The counter reports ``tracked_bytes`` as the handle table plus 2048 bytes
per allocated block, so memory follows the number of distinct /24
prefixes seen, not the number of records.

``first_octet_base``/``first_octet_span`` narrow a counter to a slice of
the first-octet range, shrinking the handle table proportionally; the
parallel scheme runs one narrowed counter per owner's octet range.

Blocks are stored as rows of one growing pool array. Counting goes
through one seam, ``add_runs(values, counts)``: ascending distinct
addresses and their multiplicities touch the handle table and the pool in
one gather-check-scatter over flat slot indices, and new prefixes get
their blocks in ascending prefix order. ``ingest_many`` feeds it a batch
reduced by ``model.aggregate``; the parallel scheme aggregates a batch
once and hands each worker's counter its slice of the runs.
"""

from __future__ import annotations

import numpy as np

from .model import IPv4Address, aggregate, checked_add, to_u32
from .topk import HeapEntry, TopKHeap

BLOCK_SLOTS = 256
BLOCK_BYTES = BLOCK_SLOTS * 8

_POOL_SEED_BLOCKS = 1024
_SWEEP_BLOCKS = 8192


class TlmbCounter:
    """Exact per-address counter over a first-octet range."""

    def __init__(self, first_octet_base: int = 0, first_octet_span: int = 256):
        if not 0 <= first_octet_base <= 255:
            raise ValueError(f"first_octet_base out of range: {first_octet_base}")
        if not 1 <= first_octet_span <= 256 - first_octet_base:
            raise ValueError(
                f"first_octet_span {first_octet_span} does not fit at base {first_octet_base}"
            )
        self._base_prefix = first_octet_base << 16
        self._handles = np.zeros(first_octet_span * 65536, dtype=np.uint64)
        self._pool = np.zeros((_POOL_SEED_BLOCKS, BLOCK_SLOTS), dtype=np.uint64)
        self._prefixes = np.zeros(_POOL_SEED_BLOCKS, dtype=np.uint32)
        self._allocated = 0
        self._records = 0

    # -- ingest ---------------------------------------------------------

    def ingest_many(self, batch: np.ndarray) -> None:
        """Count a uint32 address batch in bulk."""
        self.add_runs(*aggregate(batch))

    def add_runs(self, values: np.ndarray, counts: np.ndarray) -> None:
        """Count ascending distinct uint32 ``values`` by their uint64 ``counts``."""
        if values.size == 0:
            return
        local = (values >> np.uint32(8)).astype(np.int64) - self._base_prefix
        if local[0] < 0 or local[-1] >= self._handles.size:
            raise ValueError("batch contains addresses outside this counter's first-octet range")
        handles = self._handles[local]
        fresh = handles == 0
        if fresh.any():
            # local is ascending, so the new prefixes are the starts of its fresh runs
            runs = local[fresh]
            self._allocate(runs[np.diff(runs, prepend=-1) != 0])
            handles = self._handles[local]
        slots = (handles - 1).astype(np.int64) * BLOCK_SLOTS + (values & np.uint32(0xFF))
        pool_flat = self._pool.reshape(-1)
        pool_flat[slots] = checked_add(pool_flat[slots], counts)
        self._records += int(counts.sum())

    def _allocate(self, fresh: np.ndarray) -> None:
        """Assign block ordinals to new prefixes (ascending int64 handle slots)."""
        needed = self._allocated + fresh.size
        if needed > self._pool.shape[0]:
            # a batch's fresh prefixes arrive at once, so the first batch takes most
            # blocks; twice that leaves later stragglers room without another copy
            capacity = 2 * needed
            pool = np.zeros((capacity, BLOCK_SLOTS), dtype=np.uint64)
            pool[: self._allocated] = self._pool[: self._allocated]
            self._pool = pool
            prefixes = np.zeros(capacity, dtype=np.uint32)
            prefixes[: self._allocated] = self._prefixes[: self._allocated]
            self._prefixes = prefixes
        ordinals = np.arange(self._allocated, needed, dtype=np.uint64)
        self._handles[fresh] = ordinals + 1
        self._prefixes[self._allocated : needed] = (fresh + self._base_prefix).astype(np.uint32)
        self._allocated = needed

    # -- queries --------------------------------------------------------

    def count(self, address: IPv4Address) -> int:
        """Exact count of one address (0 when never seen)."""
        value = to_u32(address)
        local = (value >> 8) - self._base_prefix
        if not 0 <= local < self._handles.size:
            return 0
        handle = int(self._handles[local])
        if handle == 0:
            return 0
        return int(self._pool[handle - 1, value & 0xFF])

    def sum_counts(self) -> int:
        """Total of all slot counts; equals records ingested."""
        return int(self._pool[: self._allocated].sum())

    def top_k(self, k: int) -> list[HeapEntry]:
        """The k strongest (address, count) pairs, strongest first.

        Sweeps only allocated blocks, a pool chunk at a time, so the cost
        follows distinct prefixes rather than the full table size.
        """
        heap = TopKHeap(k)
        for start in range(0, self._allocated, _SWEEP_BLOCKS):
            stop = min(start + _SWEEP_BLOCKS, self._allocated)
            chunk = self._pool[start:stop]
            hits = np.flatnonzero(chunk)
            if hits.size == 0:
                continue
            prefixes = self._prefixes[start + (hits >> 8)].astype(np.uint32)
            addresses = (prefixes << np.uint32(8)) | (hits & 0xFF).astype(np.uint32)
            heap.offer_many(addresses, chunk.reshape(-1)[hits])
        return heap.drain_sorted()

    def stats(self) -> dict:
        first_layer = self._handles.nbytes
        return {
            "records_ingested": self._records,
            "allocated_second_blocks": self._allocated,
            "first_layer_bytes": first_layer,
            "tracked_bytes": first_layer + BLOCK_BYTES * self._allocated,
        }

    # -- lifecycle ------------------------------------------------------

    def reset(self) -> None:
        """Zero all counts.

        Count blocks are zero-filled and kept for reuse, not released, so
        a benchmark can re-run on a warm counter without paying the
        reservation cost again.
        """
        self._handles[:] = 0
        self._pool[: self._allocated] = 0
        self._prefixes[: self._allocated] = 0
        self._allocated = 0
        self._records = 0
