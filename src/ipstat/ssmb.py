"""Subset-scan memory-block counter (SSMB): exact top-k in constant memory.

The address space is split into subsets by first octet. One count block of
256*256*256 = 2**24 uint64 slots (134,217,728 bytes) is allocated once and
reused for every subset.

The input is decoded once, into a spill (``OctetSpill``):
``spilled(source)`` aggregates each batch (``model.aggregate``), appends
its runs, and closes the spill on exit; ``spilled(source, pool)`` runs up
to one aggregate per pool thread while the reading thread decodes the next
batch, and appends their runs in file order, so the spill is the same. The
spill cuts a batch's ascending distinct addresses at first-octet
boundaries and appends each slice as (low-24 slot, count) runs to one
unlinked temporary file, with an in-memory index of every first octet's
runs. The first octets present fall out of this pass, so no separate
discovery pass is needed. Each subset pass then reads back only its own
octet's runs, adds them at slot b*65536 + c*256 + d (the low 24 bits of
the address), and sweeps the block (``offer_block``, ipmap's sweep too):
one read of the block names its live (non-zero) 512-slot tiles, and only
those are scanned and then re-zeroed, so the next pass starts from an
all-zero block.

W threads (``workers=W``) each own one contiguous, tile-aligned slot range
of the block (``sweep_ranges``) for every pass: each scatters the pass's
runs that fall in its range (about one entry per distinct address), then
sweeps and re-zeroes the range into its own top-k heap, kept across every
pass and merged once at the end. Each address lies in exactly one (subset,
range) pair, so the result is the global top-k for every W, while tracked
memory stays a flat 134,217,728 bytes, whatever the records, distinct
addresses or W. The spill is on disk (``tempfile.TemporaryFile``, so it
honours TMPDIR); its size is reported as ``spill_bytes`` and is never part
of ``tracked_bytes``. The trade is passes for memory: one pass per
distinct first octet present, each over its own runs and one read of the
block.
"""

from __future__ import annotations

import errno
import os
import tempfile
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import InvalidPlan
from .model import aggregate, checked_add, octet_runs
from .topk import HeapEntry, TopKHeap, merge_top_k, offer_nonzero

BLOCK_SLOTS = 1 << 24
BLOCK_BYTES = BLOCK_SLOTS * 8

TILE_SLOTS = 512  # the sweep's coarse layer: 4 KiB tiles
GROUP_TILES = 128  # live tiles scanned per step, so each tile copy is 512 KiB
MAX_SWEEP_RANGES = 256

# one spilled run entry: a distinct address's low-24 slot and its count
RUN = np.dtype([("slot", "<u4"), ("count", "<u8")])


def first_octets(octets: Iterable[int]) -> list[int]:
    """``octets`` ascending and distinct; InvalidPlan if one is outside [0, 255]."""
    octets = sorted(set(int(a) for a in octets))
    if octets and not 0 <= octets[0] <= octets[-1] <= 255:
        raise InvalidPlan(f"first octets out of range: {octets}")
    return octets


def discover_subsets(source) -> list[int]:
    """One pass listing the distinct first octets present, ascending."""
    with spilled(source) as spill:
        return spill.octets


class OctetSpill:
    """One decode pass of a source, filed by first octet.

    ``append(values, counts)`` files one batch's runs, the unit
    ``run_parallel``'s owners take (ascending distinct addresses and their
    counts): each first octet's low-24 slots and counts become one segment
    of ``RUN`` entries in an unlinked temporary file, which ``runs(octet)``
    reads back with ``os.pread``. ``spilled(source)`` closes it on exit.
    """

    def __init__(self):
        self._file = tempfile.TemporaryFile()
        # first octet -> [(file offset, run entries)], in append order
        self._index: dict[int, list[tuple[int, int]]] = {}
        self.spill_bytes = 0

    def append(self, values: np.ndarray, counts: np.ndarray) -> None:
        if values.size == 0:
            return
        runs = np.empty(values.size, dtype=RUN)
        runs["slot"] = values & np.uint32(0xFFFFFF)
        runs["count"] = counts
        self._file.write(runs)
        for octet, lo, hi in octet_runs(values):
            self._index.setdefault(octet, []).append((self.spill_bytes + lo * RUN.itemsize, hi - lo))
        self.spill_bytes += runs.nbytes

    @property
    def octets(self) -> list[int]:
        """The first octets present, ascending."""
        return sorted(self._index)

    def runs(self, octet: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(slots, counts) of each of ``octet``'s segments; slots are unique within one."""
        fd = self._file.fileno()
        for offset, length in self._index.get(octet, ()):
            data = os.pread(fd, length * RUN.itemsize, offset)
            if len(data) != length * RUN.itemsize:
                raise OSError(errno.EIO, "short read from the ssmb spill file")
            segment = np.frombuffer(data, dtype=RUN)
            yield segment["slot"], segment["count"]


@contextmanager
def spilled(source, pool: ThreadPoolExecutor | None = None) -> Iterator[OctetSpill]:
    """A spill of one pass of ``source``, closed on exit; ``pool`` aggregates up to one batch a thread ahead."""
    spill = OctetSpill()
    pending: deque = deque()
    try:
        for batch in source.open().batches():
            if pool is None:
                spill.append(*aggregate(batch))
                continue
            pending.append(pool.submit(aggregate, batch))
            if len(pending) > pool._max_workers:
                spill.append(*pending.popleft().result())
        while pending:
            spill.append(*pending.popleft().result())
        batch = None  # this frame outlives every pass: let the last batch go
        spill._file.flush()
        yield spill
    finally:
        for future in pending:
            future.cancel()
        spill._file.close()


def offer_block(heap: TopKHeap, block: np.ndarray, octet: int, base: int = 0) -> tuple[int, np.ndarray]:
    """Offer a count block's non-zero slots to ``heap``; returns (their sum, live tiles).

    Slot s of ``block``, a whole number of tiles, counts the address
    ``octet << 24 | base + s``. One read of every byte names the live
    ``TILE_SLOTS``-slot tiles; only they are scanned, ``GROUP_TILES`` at a
    time, through ``offer_nonzero``. Zeroing the returned tiles clears every
    non-zero slot.
    """
    tiles = block.reshape(-1, TILE_SLOTS)
    live = np.flatnonzero(tiles.view(np.uint8).max(axis=1))
    total = 0
    for start in range(0, live.size, GROUP_TILES):
        group = live[start : start + GROUP_TILES]
        total += offer_nonzero(heap, tiles[group], (octet << 24) + base + group * TILE_SLOTS)
    return total, live


def sweep_ranges(workers: int) -> list[tuple[int, int]]:
    """Contiguous tile-aligned [lo, hi) slot ranges covering the block, one per sweep thread (at most 256)."""
    if workers < 1:
        raise InvalidPlan(f"worker count must be at least 1, got {workers}")
    count = min(workers, MAX_SWEEP_RANGES)
    tiles = BLOCK_SLOTS // TILE_SLOTS
    edges = [w * tiles // count * TILE_SLOTS for w in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


class SsmbCounter:
    """Exact top-k via per-first-octet passes over one shared count block.

    The block is allocated lazily on the first query and reused across
    passes and across queries, so a counter's tracked footprint is one
    block, always, for any ``workers``: that many threads scatter into and
    sweep disjoint slot ranges of it in each pass and, when there are two
    or more, aggregate the input ahead of the reading thread. A pass that
    raises, in any thread, drops the block, so no count it left behind
    reaches the next query.
    """

    def __init__(self, workers: int = 1):
        self._ranges = sweep_ranges(workers)
        self._block: np.ndarray | None = None
        self._records = 0
        self._passes = 0
        self._q = 0
        self._spill_bytes = 0

    def top_k(
        self,
        source,
        k: int,
        octets: Iterable[int] | None = None,
        pass_hook: Callable[[int, dict], None] | None = None,
    ) -> list[HeapEntry]:
        """The k strongest (address, count) pairs, strongest first.

        ``source`` is read once into a spill that is closed before
        returning. ``octets`` fixes the subset passes (ascending distinct
        first octets); when omitted, every first octet in the spill gets
        a pass. ``pass_hook(octet, pass_stats)`` runs on the calling thread
        after each subset pass with that pass's record count, the block's
        slot-value sum over every range, and the counter stats — slot_sum
        == pass_records iff the block really started the pass all-zero.
        """
        if octets is not None:
            octets = first_octets(octets)
        heaps = [TopKHeap(k) for _ in self._ranges]
        # one range starts no thread: the spill aggregates inline and the pass runs here
        threads = ThreadPoolExecutor(len(heaps)) if len(heaps) > 1 else nullcontext()
        with threads as pool, spilled(source, pool) as spill:
            if octets is None:
                octets = spill.octets
            self._q = len(octets)
            self._records = 0
            self._passes = 0
            self._spill_bytes = spill.spill_bytes
            for octet in octets:
                pass_records, slot_sum = self._run_pass(spill, octet, heaps, pool)
                if pass_hook is not None:
                    hooked = dict(self.stats())
                    hooked.update(octet=octet, pass_records=pass_records, slot_sum=slot_sum)
                    pass_hook(octet, hooked)
        return merge_top_k((heap.drain_sorted() for heap in heaps), k)

    def _run_pass(self, spill: OctetSpill, octet: int, heaps: list[TopKHeap], pool) -> tuple[int, int]:
        if self._block is None:
            self._block = np.zeros(BLOCK_SLOTS, dtype=np.uint64)
        block = self._block

        def scan(heap: TopKHeap, lo: int, hi: int) -> tuple[int, int]:
            # scatter the pass's runs in [lo, hi), then sweep and re-zero it: (records, slot sum)
            records = 0
            for slots, counts in spill.runs(octet):
                slots = slots.astype(np.int64)
                cut = slice(*np.searchsorted(slots, (lo, hi)))  # a segment's slots ascend
                slots, counts = slots[cut], counts[cut]
                block[slots] = checked_add(block[slots], counts)
                records += int(counts.sum())
            part = block[lo:hi]
            slot_sum, live = offer_block(heap, part, octet, lo)
            part.reshape(-1, TILE_SLOTS)[live] = 0
            return records, slot_sum

        futures = []
        try:
            try:
                for heap, bounds in zip(heaps[1:], self._ranges[1:]):
                    futures.append(pool.submit(scan, heap, *bounds))
                scanned = [scan(heaps[0], *self._ranges[0])]
            finally:
                wait(futures)  # no thread reads the spill or the block once this pass is over
            scanned += [future.result() for future in futures]
        except BaseException:
            self._block = None
            raise
        pass_records, slot_sum = (sum(column) for column in zip(*scanned))
        self._records += pass_records
        self._passes += 1
        return pass_records, slot_sum

    def stats(self) -> dict:
        return {
            "records_ingested": self._records,
            "q": self._q,
            "passes": self._passes,
            "tracked_bytes": BLOCK_BYTES,
            "spill_bytes": self._spill_bytes,
            "workers": len(self._ranges),
        }
