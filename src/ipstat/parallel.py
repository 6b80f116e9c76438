"""In-process parallel tlmb top-k: partition the work, merge worker candidates.

The two-layer counter splits cleanly along the first octet, so every
address is counted wholly by one worker and worker results never overlap.
Worker w owns the first octets [octets[w], octets[w + 1]) of its plan's
ascending start octets, and runs a counter narrowed to them, so the
workers' handle tables add up to one full-range counter's. The query's
plan is cut from the first batch: at first-octet boundaries, so that each
worker owns about 1/W of its distinct addresses, and the owners still
cover every octet once, so later batches are counted exactly wherever they
fall; the split is even when the first batch's first-octet mix is the
stream's. Each worker owns at least one octet, so W runs from 1 to 256.
``by_prefix_bits`` keeps the even cut by leading address bits.
The input is read once, through ``model.runs``: each batch is reduced to
its ascending distinct addresses and their counts on the pool, up to W
batches, and at most one per usable CPU, ahead of the reading thread,
which only decodes. Since ownership is monotone in the address, one cut
at the owners' start addresses hands every worker its own slice of those
runs. The reading thread decodes the
next batch while the workers count this one, and waits for them before it
hands out the next.

ssmb runs no plan: ``SsmbCounter(workers=W)`` sweeps its one block on W
threads.

Each worker reports its local top-k candidates; a coordinator heap merges
them. An address's global count appears intact in exactly one worker's
candidates whenever it would make the global top-k, so the merged result
equals the serial one, list order included.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPlan
from .model import read_ahead, runs
from .ssmb import first_octets
from .tlmb import TlmbCounter
from .topk import HeapEntry, merge_top_k

_NO_RUNS = (np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint64))


@dataclass(frozen=True)
class PartitionPlan:
    """Which first octets each tlmb worker owns; ssmb runs no plan.

    ``octets`` are the owners' start octets, ascending, the first 0. A plan
    without them is cut from its first batch (``by_value_share``).
    """

    workers: int
    octets: tuple[int, ...] = ()

    def __post_init__(self):
        if self.workers < 1:
            raise InvalidPlan(f"worker count must be at least 1, got {self.workers}")
        if self.workers > 256:
            raise InvalidPlan(f"tlmb worker count must be at most 256, one first octet each, got {self.workers}")
        starts = list(self.octets)
        if starts and (len(starts) != self.workers or starts[0] != 0 or starts != first_octets(starts)):
            raise InvalidPlan(f"tlmb plans need one ascending start octet per worker from 0, got {starts}")

    @classmethod
    def by_prefix_bits(cls, prefix_bits: int) -> "PartitionPlan":
        """tlmb plan: 2**prefix_bits workers keyed by leading address bits."""
        if not 0 <= prefix_bits <= 8:
            raise InvalidPlan(f"prefix_bits must be in [0, 8], got {prefix_bits}")
        starts = tuple(range(0, 256, 256 >> prefix_bits))
        return cls(1 << prefix_bits, starts)

    @classmethod
    def by_value_share(cls, values: np.ndarray, workers: int) -> "PartitionPlan":
        """tlmb plan cut at first-octet boundaries so each worker owns about 1/workers of ``values``.

        Every worker owns at least one octet; with no values the octets split evenly.
        """
        per_octet = np.bincount(values >> np.uint32(24), minlength=256) if values.size else np.ones(256, np.int64)
        below = np.concatenate([[0], np.cumsum(per_octet)])  # below[o]: values under octet o
        share = np.arange(1, workers) * below[-1] / workers
        above = np.searchsorted(below, share)  # >= 1, since every share is positive
        nearest = np.where(share - below[above - 1] < below[above] - share, above - 1, above)
        # strictly ascending from 1 and at most 255, so no owner is empty
        ordinal = np.arange(1, workers)
        starts = np.minimum(np.maximum.accumulate(np.maximum(nearest - ordinal, 0)), 256 - workers) + ordinal
        return cls(workers, (0, *starts.tolist()))

    def bounds(self, values: np.ndarray) -> list[int]:
        """Cut ascending uint32 ``values`` by tlmb owner: worker w owns values[b[w]:b[w + 1]]."""
        if not self.octets:
            raise InvalidPlan("only plans with owners cut the address range")
        starts = np.array(self.octets[1:], dtype=np.uint32) << np.uint32(24)
        return [0, *np.searchsorted(values, starts).tolist(), values.size]

    def worker_octets(self, ordinal: int) -> list[int]:
        """The first octets one worker owns, one contiguous range."""
        if not self.octets:
            raise InvalidPlan("a plan without owners has no worker octets yet")
        return list(range(self.octets[ordinal], (*self.octets, 256)[ordinal + 1]))


@dataclass
class WorkerResult:
    """One worker's local outcome: its candidates and counter stats, listed in worker order."""

    candidates: list[HeapEntry]
    stats: dict


def run_parallel(source, plan: PartitionPlan, k: int) -> tuple[list[HeapEntry], list[WorkerResult]]:
    """Run one partitioned tlmb top-k; returns (merged entries, worker results)."""
    ahead = read_ahead(plan.workers)
    # the runs close before the pool joins: they cancel the aggregates still
    # queued and drop the stream, so a failed query closes a file source at
    # once, without the cyclic collector
    with ThreadPoolExecutor(max_workers=plan.workers) as pool, closing(runs(source, pool, ahead)) as batches:
        values, counts = next(batches, _NO_RUNS)
        if not plan.octets:
            plan = PartitionPlan.by_value_share(values, plan.workers)
        owned = (plan.worker_octets(w) for w in range(plan.workers))
        counters = [TlmbCounter(first_octet_base=o[0], first_octet_span=len(o)) for o in owned]
        while values.size:
            cuts = plan.bounds(values)
            futures = [
                pool.submit(counter.add_runs, values[lo:hi], counts[lo:hi])
                for counter, lo, hi in zip(counters, cuts[:-1], cuts[1:])
                if hi > lo
            ]
            # read ahead while the workers count; no counter takes two batches at once
            values, counts = next(batches, _NO_RUNS)
            for future in futures:
                future.result()
        tops = [pool.submit(counter.top_k, k) for counter in counters]
        results = [WorkerResult(top.result(), counter.stats()) for counter, top in zip(counters, tops)]
    return merge_top_k((r.candidates for r in results), k), results
