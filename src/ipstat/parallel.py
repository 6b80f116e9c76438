"""In-process parallel top-k: partition the work, merge worker candidates.

Both memory-block counters split cleanly along the first octet, so every
address is counted wholly by one worker and worker results never overlap:

* tlmb — partition by the leading ``r`` bits of the first octet. Worker w
  owns first octets [w * 256/2**r, (w+1) * 256/2**r) and runs a narrowed
  counter whose handle table is 1/2**r of the full size, so the combined
  first-layer footprint of all workers equals one full-range counter. The
  input is read once; each batch is reduced to its ascending distinct
  addresses and their counts, and since ownership is monotone in the
  address, one cut at the owners' start addresses hands every worker its
  own slice of those runs.
* ssmb — the input is decoded once into one ``OctetSpill``, whose first
  octets are dealt round-robin over the workers; each worker runs its own
  subset passes over its octets' runs in that shared spill (and has its
  own count block, so memory is one block per worker).

Each worker reports its local top-k candidates; a coordinator heap merges
them. An address's global count appears intact in exactly one worker's
candidates whenever it would make the global top-k, so the merged result
equals the serial one, list order included.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidPlan
from .model import aggregate
from .ssmb import OctetSpill, SsmbCounter, discover_subsets, first_octets, spilled
from .tlmb import TlmbCounter
from .topk import HeapEntry, merge_top_k


@dataclass(frozen=True)
class PartitionPlan:
    """How records are split across workers for one method."""

    method: str
    workers: int
    prefix_bits: int | None = None
    octets: tuple[int, ...] = ()

    def __post_init__(self):
        if self.workers < 1:
            raise InvalidPlan(f"worker count must be at least 1, got {self.workers}")
        if self.method == "tlmb":
            r = self.prefix_bits
            if r is None or not 0 <= r <= 8:
                raise InvalidPlan(f"tlmb plans need prefix_bits in [0, 8], got {r}")
            if self.workers != 1 << r:
                raise InvalidPlan(f"prefix_bits={r} implies {1 << r} workers, got {self.workers}")
        elif self.method == "ssmb":
            if self.prefix_bits is not None:
                raise InvalidPlan("ssmb plans partition by first octets, not prefix bits")
            if list(self.octets) != first_octets(self.octets):
                raise InvalidPlan("ssmb plans need ascending distinct first octets")
        else:
            raise InvalidPlan(f"unknown method {self.method!r}")

    @classmethod
    def by_prefix_bits(cls, prefix_bits: int) -> "PartitionPlan":
        """tlmb plan: 2**prefix_bits workers keyed by leading address bits."""
        if not 0 <= prefix_bits <= 8:
            raise InvalidPlan(f"prefix_bits must be in [0, 8], got {prefix_bits}")
        return cls(method="tlmb", workers=1 << prefix_bits, prefix_bits=prefix_bits)

    @classmethod
    def by_first_octets(cls, octets, workers: int) -> "PartitionPlan":
        """ssmb plan: deal the given first octets round-robin to workers."""
        return cls(method="ssmb", workers=workers, octets=tuple(first_octets(octets)))

    @classmethod
    def for_source(cls, source, method: str, workers: int) -> "PartitionPlan":
        """Build the natural plan for a method and worker count.

        An ssmb plan takes its first octets from ``source`` when it is an
        ``OctetSpill``, and otherwise lists them with one more pass.
        """
        if method == "tlmb":
            if workers & (workers - 1) or not 1 <= workers <= 256:
                raise InvalidPlan(f"tlmb worker count must be a power of two up to 256, got {workers}")
            return cls.by_prefix_bits(workers.bit_length() - 1)
        if method == "ssmb":
            if workers < 1:
                raise InvalidPlan(f"worker count must be at least 1, got {workers}")
            octets = source.octets if isinstance(source, OctetSpill) else discover_subsets(source)
            return cls.by_first_octets(octets, min(workers, max(len(octets), 1)))
        raise InvalidPlan(f"unknown method {method!r}")

    def bounds(self, values: np.ndarray) -> list[int]:
        """Cut ascending uint32 ``values`` by tlmb owner: worker w owns values[b[w]:b[w + 1]]."""
        if self.method != "tlmb":
            raise InvalidPlan("only tlmb plans cut the address range")
        starts = np.arange(1, self.workers, dtype=np.uint32) << np.uint32(32 - self.prefix_bits)
        return [0, *np.searchsorted(values, starts).tolist(), values.size]

    def worker_octets(self, ordinal: int) -> list[int]:
        """The ssmb subset passes assigned to one worker."""
        return list(self.octets[ordinal :: self.workers])


@dataclass
class WorkerResult:
    """One worker's local outcome: its candidates and counter stats."""

    ordinal: int
    candidates: list[HeapEntry] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


def run_parallel(source, plan: PartitionPlan, k: int) -> tuple[list[HeapEntry], list[WorkerResult]]:
    """Run one partitioned top-k; returns (merged entries, worker results)."""
    if plan.method == "tlmb":
        results = _run_tlmb(source, plan, k)
    else:
        results = _run_ssmb(source, plan, k)
    merged = merge_top_k((r.candidates for r in results), k)
    return merged, results


def _run_tlmb(source, plan: PartitionPlan, k: int) -> list[WorkerResult]:
    span = 256 >> plan.prefix_bits
    counters = [TlmbCounter(first_octet_base=w * span, first_octet_span=span) for w in range(plan.workers)]
    with ThreadPoolExecutor(max_workers=plan.workers) as pool:
        # no local holds the stream, so a failed batch that unwinds this
        # frame drops it, and a file source closes then
        for batch in source.open().batches():
            values, counts = aggregate(batch)
            cuts = plan.bounds(values)
            futures = [
                pool.submit(counter.add_runs, values[lo:hi], counts[lo:hi])
                for counter, lo, hi in zip(counters, cuts[:-1], cuts[1:])
                if hi > lo
            ]
            for future in futures:
                future.result()
        tops = [pool.submit(counter.top_k, k) for counter in counters]
        return [
            WorkerResult(w, top.result(), counter.stats())
            for w, (counter, top) in enumerate(zip(counters, tops))
        ]


def _run_ssmb(source, plan: PartitionPlan, k: int) -> list[WorkerResult]:
    def work(spill: OctetSpill, ordinal: int) -> WorkerResult:
        octets = plan.worker_octets(ordinal)
        counter = SsmbCounter()
        candidates = counter.top_k(spill, k, octets=octets) if octets else []
        return WorkerResult(ordinal, candidates, counter.stats())

    # the pool joins its workers before the spill they share is closed
    with spilled(source) as spill, ThreadPoolExecutor(max_workers=plan.workers) as pool:
        return list(pool.map(work, [spill] * plan.workers, range(plan.workers)))
