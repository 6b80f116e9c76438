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
prefixes seen, not the number of records; each block's 4-byte prefix
and 8-byte peak (its largest count) are left out.

``first_octet_base``/``first_octet_span`` narrow a counter to a slice of
the first-octet range, shrinking the handle table proportionally; the
parallel scheme runs one narrowed counter per owner's octet range.

Blocks are stored as rows of one growing pool array. Counting goes
through one seam, ``add_runs(values, counts)``: ascending distinct
addresses and their multiplicities touch the handle table and the pool in
one gather-check-scatter over flat slot indices, new prefixes get their
blocks in ascending prefix order, and each touched block's peak rises to
its largest new total, so ``top_k`` reads only the blocks whose peak
reaches the k-th largest peak. ``ingest_many`` feeds it a batch
reduced by ``model.aggregate``; the parallel scheme aggregates a batch
once and hands each worker's counter its slice of the runs.
"""

from __future__ import annotations

import numpy as np

from .errors import CountOverflow
from .model import IPv4Address, aggregate, checked_add, to_u32
from .topk import HeapEntry, TopKHeap, offer_nonzero

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
        self._peaks = np.zeros(_POOL_SEED_BLOCKS, dtype=np.uint64)
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
        allocated = self._allocated
        if fresh.any():
            # local is ascending, so the new prefixes are the starts of its fresh runs
            runs = local[fresh]
            self._allocate(runs[np.diff(runs, prepend=-1) != 0])
            handles = self._handles[local]
        ordinals = (handles - 1).astype(np.int64)
        slots = ordinals * BLOCK_SLOTS + (values & np.uint32(0xFF))
        pool_flat = self._pool.reshape(-1)
        try:
            totals = checked_add(pool_flat[slots], counts)
        except CountOverflow:
            # a refused batch gives back the blocks it allocated; they hold no count yet
            self._handles[local[fresh]] = 0
            self._allocated = allocated
            raise
        pool_flat[slots] = totals
        # counts only rise, so a block's peak is its largest total written so far
        np.maximum.at(self._peaks, ordinals, totals)
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
            peaks = np.zeros(capacity, dtype=np.uint64)
            peaks[: self._allocated] = self._peaks[: self._allocated]
            self._peaks = peaks
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

        Reads only the blocks whose peak is at least the floor, the k-th
        largest peak, _SWEEP_BLOCKS at a time through ``offer_nonzero``.
        That is exact: the k blocks with the highest peaks hold k distinct
        addresses counting at least the floor, so no address below it can
        make the answer, and every one at or above it sits in a block read.
        """
        heap = TopKHeap(k)
        peaks = self._peaks[: self._allocated]
        floor = np.partition(peaks, peaks.size - k)[peaks.size - k] if peaks.size > k else 0
        rows = np.flatnonzero(peaks >= floor)
        for start in range(0, rows.size, _SWEEP_BLOCKS):
            chunk = rows[start : start + _SWEEP_BLOCKS]
            if chunk[-1] - chunk[0] == chunk.size - 1:  # consecutive rows, as under full ties: a view, no copy
                chunk = slice(chunk[0], chunk[-1] + 1)
            offer_nonzero(heap, self._pool[chunk], self._prefixes[chunk] << np.uint32(8))
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
        self._peaks[: self._allocated] = 0
        self._allocated = 0
        self._records = 0
