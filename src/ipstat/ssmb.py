"""Subset-scan memory-block counter (SSMB): exact top-k in constant memory.

The address space is split into subsets by first octet. One count block of
256*256*256 = 2**24 uint64 slots (134,217,728 bytes) is allocated once and
reused for every subset.

The input is decoded once, into a spill (``OctetSpill``). Each batch is
aggregated (``model.aggregate``); its ascending distinct addresses are cut
at first-octet boundaries, and each slice is appended as (low-24 slot,
count) runs to one unlinked temporary file, with an in-memory index of
every first octet's runs. The first octets present fall out of this pass,
so no separate discovery pass is needed. Each subset pass then zeroes the
whole block, reads back only its own octet's runs, adds them at slot
b*65536 + c*256 + d (the low 24 bits of the address), and offers the
block's non-zero slots to one top-k heap shared by all passes.

Because each address belongs to exactly one subset, the heap ends up
holding the global top-k, while tracked memory stays a flat 134,217,728
bytes no matter how many records or distinct addresses the source holds.
The spill is on disk (``tempfile.TemporaryFile``, so it honours TMPDIR);
its size is reported as ``spill_bytes`` and is never part of
``tracked_bytes``. The trade is passes for memory: one pass per distinct
first octet present, each over its own runs only.
"""

from __future__ import annotations

import errno
import os
import tempfile
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

import numpy as np

from .model import aggregate, checked_add, octet_runs
from .topk import HeapEntry, TopKHeap

BLOCK_SLOTS = 1 << 24
BLOCK_BYTES = BLOCK_SLOTS * 8

# one spilled run entry: a distinct address's low-24 slot and its count
RUN = np.dtype([("slot", "<u4"), ("count", "<u8")])


def element_index(b: int, c: int, d: int) -> int:
    """Slot of b.c.d inside a subset's count block."""
    if not (0 <= b <= 255 and 0 <= c <= 255 and 0 <= d <= 255):
        raise ValueError(f"octets out of range: ({b}, {c}, {d})")
    return b * 65536 + c * 256 + d


def discover_subsets(source) -> list[int]:
    """One pass listing the distinct first octets present, ascending."""
    seen = np.zeros(256, dtype=bool)
    stream = source.open()
    for batch in stream.batches():
        seen[batch >> np.uint32(24)] = True
    return np.flatnonzero(seen).tolist()


class OctetSpill:
    """One decode pass of a source, aggregated and filed by first octet.

    Batch by batch, each first octet's distinct low-24 slots and their
    counts are appended as one segment of ``RUN`` entries to an unlinked
    temporary file. ``runs(octet)`` reads that octet's segments back with
    ``os.pread``, so threads can share one spill. ``close()`` (or leaving a
    with-block) releases the file.
    """

    def __init__(self):
        self._file = tempfile.TemporaryFile()
        # first octet -> [(file offset, run entries)], in append order
        self._index: dict[int, list[tuple[int, int]]] = {}
        self.spill_bytes = 0

    @classmethod
    def build(cls, source) -> "OctetSpill":
        """Decode one pass of ``source`` into a new spill."""
        spill = cls()
        try:
            for batch in source.open().batches():
                spill.append(batch)
            spill._file.flush()
        except BaseException:
            spill.close()
            raise
        return spill

    def append(self, batch: np.ndarray) -> None:
        values, counts = aggregate(batch)
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

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "OctetSpill":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@contextmanager
def spilled(source) -> Iterator[OctetSpill]:
    """``source`` itself if it is a spill, else a spill of it, closed on exit."""
    if isinstance(source, OctetSpill):
        yield source
    else:
        with OctetSpill.build(source) as spill:
            yield spill


class SsmbCounter:
    """Exact top-k via per-first-octet passes over one shared count block.

    The block is allocated lazily on the first query and reused across
    passes and across queries, so a counter's tracked footprint is one
    block, always.
    """

    def __init__(self):
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

        ``source`` is either a record source, which is read once into a
        spill that is closed before returning, or an ``OctetSpill`` the
        caller built and still owns (parallel workers share one).
        ``octets`` fixes the subset passes (ascending distinct first
        octets); when omitted, every first octet in the spill gets a pass.
        ``pass_hook(octet, pass_stats)`` runs after each subset pass with
        that pass's record count, the block's slot-value sum, and the
        counter stats — slot_sum == pass_records iff the block really
        started the pass all-zero.
        """
        if octets is not None:
            octets = sorted(set(int(a) for a in octets))
            if octets and not 0 <= octets[0] <= octets[-1] <= 255:
                raise ValueError(f"first octets out of range: {octets}")
        with spilled(source) as spill:
            if octets is None:
                octets = spill.octets
            self._q = len(octets)
            self._records = 0
            self._passes = 0
            self._spill_bytes = spill.spill_bytes
            heap = TopKHeap(k)
            for octet in octets:
                pass_records, slot_sum = self._run_pass(spill, octet, heap)
                if pass_hook is not None:
                    hooked = dict(self.stats())
                    hooked.update(octet=octet, pass_records=pass_records, slot_sum=slot_sum)
                    pass_hook(octet, hooked)
        return heap.drain_sorted()

    def _run_pass(self, spill: OctetSpill, octet: int, heap: TopKHeap) -> tuple[int, int]:
        if self._block is None:
            self._block = np.zeros(BLOCK_SLOTS, dtype=np.uint64)
        else:
            self._block[:] = 0
        block = self._block
        pass_records = 0
        for slots, counts in spill.runs(octet):
            slots = slots.astype(np.int64)
            block[slots] = checked_add(block[slots], counts)
            pass_records += int(counts.sum())
        self._records += pass_records
        self._passes += 1
        hits = np.flatnonzero(block)
        slot_sum = 0
        if hits.size:
            values = block[hits]
            slot_sum = int(values.sum())
            addresses = (np.uint32(octet << 24)) | hits.astype(np.uint32)
            heap.offer_many(addresses, values)
        return pass_records, slot_sum

    def stats(self) -> dict:
        return {
            "records_ingested": self._records,
            "q": self._q,
            "passes": self._passes,
            "tracked_bytes": BLOCK_BYTES,
            "spill_bytes": self._spill_bytes,
        }


def ssmb_top_k(source, k: int) -> tuple[list[HeapEntry], dict]:
    """Spill the source once, run the passes, return (entries, stats)."""
    counter = SsmbCounter()
    entries = counter.top_k(source, k)
    return entries, counter.stats()
