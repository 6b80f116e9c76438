"""Subset-scan memory-block counter (SSMB): exact top-k in constant memory.

The address space is split into subsets by first octet. One count block of
256*256*256 = 2**24 uint64 slots (134,217,728 bytes) is allocated once and
reused for every subset: per pass it is zeroed, the source is replayed,
records whose first octet matches the pass are counted at slot
b*65536 + c*256 + d (the low 24 bits of the address), and the block's
non-zero slots are offered to one top-k heap shared by all passes.

Because each address belongs to exactly one subset, the heap ends up
holding the global top-k, while tracked memory stays a flat 134,217,728
bytes no matter how many records or distinct addresses the source holds.
The trade is passes for memory: one optional discovery pass plus one pass
per distinct first octet actually present.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import SourceNotReplayable
from .model import aggregate, checked_add
from .topk import HeapEntry, TopKHeap

BLOCK_SLOTS = 1 << 24
BLOCK_BYTES = BLOCK_SLOTS * 8


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

    def top_k(
        self,
        source,
        k: int,
        octets: Iterable[int] | None = None,
        pass_hook: Callable[[int, dict], None] | None = None,
    ) -> list[HeapEntry]:
        """The k strongest (address, count) pairs, strongest first.

        ``octets`` fixes the subset passes (ascending distinct first
        octets); when omitted they are discovered with an extra pass.
        Any plan needing more than one pass requires a replayable source.
        ``pass_hook(octet, pass_stats)`` runs after each subset pass with
        that pass's record count, the block's slot-value sum, and the
        counter stats — slot_sum == pass_records iff the block really
        started the pass all-zero.
        """
        if octets is None:
            _require_replayable(source)
            octets = discover_subsets(source)
        else:
            octets = sorted(set(int(a) for a in octets))
            if octets and not 0 <= octets[0] <= octets[-1] <= 255:
                raise ValueError(f"first octets out of range: {octets}")
            if len(octets) > 1:
                _require_replayable(source)
        self._q = len(octets)
        self._records = 0
        self._passes = 0
        heap = TopKHeap(k)
        for octet in octets:
            pass_records, slot_sum = self._run_pass(source, octet, heap)
            if pass_hook is not None:
                hooked = dict(self.stats())
                hooked.update(octet=octet, pass_records=pass_records, slot_sum=slot_sum)
                pass_hook(octet, hooked)
        return heap.drain_sorted()

    def _run_pass(self, source, octet: int, heap: TopKHeap) -> tuple[int, int]:
        if self._block is None:
            self._block = np.zeros(BLOCK_SLOTS, dtype=np.uint64)
        else:
            self._block[:] = 0
        block = self._block
        high = np.uint32(octet)
        pass_records = 0
        stream = source.open()
        for batch in stream.batches():
            subset = batch[(batch >> np.uint32(24)) == high]
            if subset.size == 0:
                continue
            slots, counts = aggregate(subset & np.uint32(0xFFFFFF))
            slots = slots.astype(np.int64)
            block[slots] = checked_add(block[slots], counts)
            pass_records += subset.size
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
        }


def _require_replayable(source) -> None:
    if not getattr(source, "replayable", False):
        raise SourceNotReplayable("subset passes replay the source; use a replayable one")


def ssmb_top_k(source, k: int) -> tuple[list[HeapEntry], dict]:
    """Discover subsets, run the passes, return (entries, stats)."""
    counter = SsmbCounter()
    entries = counter.top_k(source, k)
    return entries, counter.stats()
