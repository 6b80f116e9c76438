"""Subset-scan memory-block counter (SSMB): exact top-k in constant memory.

The address space is split into subsets by first octet. One count block of
256*256*256 = 2**24 uint64 slots (134,217,728 bytes) is allocated once and
reused for every subset.

The input is decoded once, into a spill (``OctetSpill``):
``spilled(source, pool, ahead)`` appends the runs that the shared front
end ``model.runs`` yields, in file order whether they were aggregated
inline or on the pool, so the spill is the same; it closes the spill on
exit. The spill cuts a batch's ascending distinct addresses at first-octet
boundaries and appends each slice as (low-24 slot, count) runs to one
unlinked temporary file, with an in-memory index of every first octet's
runs. The first octets present fall out of this pass, so no separate
discovery pass is needed. Each subset pass then reads back only its own
octet's runs, adds them at slot b*65536 + c*256 + d (the low 24 bits of
the address), and sweeps the block in one read, so the next pass starts
from an all-zero block. The sweep is picked per slot range from the run
entries the pass spilled into it: each distinct slot once per batch that
holds it. A sparse range, under one entry per two tiles, takes the tile
sweep (``offer_block``, ipmap's sweep too): its read names the live
(non-zero) 512-slot tiles, and only those are scanned and then re-zeroed.
A dense range takes the slot sweep (``drain_slots``): each 8 MiB step is
compared into one reused mask while it is in cache, and only its hit
slots are gathered, zeroed and offered, with no second trip over mostly
empty live tiles.

W threads (``workers=W``) each own one contiguous, tile-aligned slot range
of the block (``sweep_ranges``) for every pass. The calling thread reads
each of the pass's spilled segments once and cuts it at every range edge;
each thread scatters its own slice (about one entry per distinct address),
and after the last segment sweeps and re-zeroes its range into its own
top-k heap, kept across every pass and merged once at the end. Each
address lies in exactly one (subset, range) pair, so the result is the
global top-k for every W, while tracked memory stays a flat 134,217,728
bytes, whatever the records, distinct addresses or W. The spill is on disk
(``tempfile.TemporaryFile``, so it honours TMPDIR); its size is reported
as ``spill_bytes`` and is never part of ``tracked_bytes``. The trade is
passes for memory: one pass per distinct first octet present, each over
its own runs and one read of the block.
"""

from __future__ import annotations

import errno
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager, nullcontext
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import InvalidPlan
from .model import checked_add, octet_runs, read_ahead, runs
from .topk import HeapEntry, TopKHeap, merge_top_k, offer_nonzero

BLOCK_SLOTS = 1 << 24
BLOCK_BYTES = BLOCK_SLOTS * 8

TILE_SLOTS = 512  # the sweep's coarse layer: 4 KiB tiles
GROUP_TILES = 128  # live tiles scanned per step, so each tile copy is 512 KiB
SWEEP_SLOTS = 1 << 20  # the slot sweep's step: 8 MiB of the block, compared into one 1 MiB mask
# a range whose pass spilled at least one run entry per this many of its slots is swept slot by slot
DENSE_SLOTS_PER_ENTRY = 2 * TILE_SLOTS
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
        """(int64 slots, counts) of each of ``octet``'s segments; slots ascend within one."""
        fd = self._file.fileno()
        for offset, length in self._index.get(octet, ()):
            data = os.pread(fd, length * RUN.itemsize, offset)
            if len(data) != length * RUN.itemsize:
                raise OSError(errno.EIO, "short read from the ssmb spill file")
            segment = np.frombuffer(data, dtype=RUN)
            yield segment["slot"].astype(np.int64), segment["count"]


@contextmanager
def spilled(source, pool: ThreadPoolExecutor | None = None, ahead: int = 0) -> Iterator[OctetSpill]:
    """A spill of one pass of ``source``, closed on exit; its runs come from ``model.runs(source, pool, ahead)``."""
    spill = OctetSpill()
    try:
        with closing(runs(source, pool, ahead)) as batches:
            for run in batches:
                spill.append(*run)
        run = None  # this frame outlives every pass: let the last batch's runs go
        spill._file.flush()
        yield spill
    finally:
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


def drain_slots(heap: TopKHeap, block: np.ndarray, octet: int, base: int = 0) -> int:
    """Offer a count block's non-zero slots to ``heap`` and zero them; returns their sum.

    Slot s of ``block`` counts the address ``octet << 24 | base + s``. Each
    ``SWEEP_SLOTS`` step is read once, into a reused mask, while it is in
    cache; only its hit slots are gathered, zeroed and offered.
    """
    mask = np.empty(min(block.size, SWEEP_SLOTS), dtype=np.bool_)
    total = 0
    for start in range(0, block.size, SWEEP_SLOTS):
        step = block[start : start + SWEEP_SLOTS]
        hits = np.flatnonzero(np.not_equal(step, 0, out=mask[: step.size]))
        counts = step[hits]
        step[hits] = 0
        heap.offer_many((hits + ((octet << 24) + base + start)).astype(np.uint32), counts)
        total += int(counts.sum())
    return total


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
        with threads as pool, spilled(source, pool, read_ahead(len(heaps))) as spill:
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
        # one task a range; a failed task's siblings touch only the dropped block, and the pool joins them
        each_range = pool.map if pool else map
        edges = [lo for lo, _ in self._ranges[1:]]

        def scatter(slots: np.ndarray, counts: np.ndarray) -> None:
            block[slots] = checked_add(block[slots], counts)

        def sweep(heap: TopKHeap, lo: int, hi: int, entries: int) -> int:
            part = block[lo:hi]
            if entries * DENSE_SLOTS_PER_ENTRY >= hi - lo:
                return drain_slots(heap, part, octet, lo)
            slot_sum, live = offer_block(heap, part, octet, lo)
            part.reshape(-1, TILE_SLOTS)[live] = 0
            return slot_sum

        pass_records = 0
        entries = np.zeros(len(self._ranges), dtype=np.int64)  # each range's spilled run entries
        try:
            for slots, counts in spill.runs(octet):
                # read and cut once here: a segment's slots ascend, so each range gets one slice
                cuts = np.searchsorted(slots, edges)
                list(each_range(scatter, np.split(slots, cuts), np.split(counts, cuts)))
                entries += np.diff(cuts, prepend=0, append=slots.size)
                pass_records += int(counts.sum())
            slot_sum = sum(each_range(sweep, heaps, *zip(*self._ranges), entries.tolist()))
        except BaseException:
            self._block = None
            raise
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

