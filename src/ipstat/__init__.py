"""Exact top-k frequency statistics for large IPv4 record streams.

Two memory-block counting methods do the heavy lifting — a two-layer
counter that allocates per-/24 count blocks lazily (tlmb) and a
subset-scan counter that reuses one count block across per-first-octet
passes (ssmb) — next to two baselines (hash map, direct-mapped blocks),
all sharing one result order and one bounded min-heap top-k extractor.
"""

from .baselines import HashCounter, IpMapCounter, hash_top_k, ipmap_top_k
from .bench import BenchRow, run_bench, run_method, write_csv
from .datagen import DatasetSpec, build_dataset, generate, load_truth, verify
from .errors import (
    AllocationFailure,
    BinaryFormatError,
    CounterFinalized,
    CountOverflow,
    GroundTruthMismatch,
    InvalidPlan,
    InvalidSpec,
    IpstatError,
    MalformedAddress,
    OctetOutOfRange,
    SourceNotReplayable,
    ValidationFailure,
)
from .model import (
    ArraySource,
    FileSource,
    IPv4Address,
    RecordStream,
    SingleUseSource,
    format_dotted,
    from_u32,
    open_stream,
    parse_dotted,
    to_u32,
    write_binary,
)
from .parallel import PartitionPlan, WorkerResult, parallel_top_k, run_parallel
from .ssmb import SsmbCounter, discover_subsets, element_index, ssmb_top_k
from .tlmb import TlmbCounter, block_index, tlmb_top_k
from .topk import HeapEntry, TopKHeap, merge_top_k

__version__ = "0.1.0"

__all__ = [
    "AllocationFailure",
    "ArraySource",
    "BenchRow",
    "BinaryFormatError",
    "CountOverflow",
    "CounterFinalized",
    "DatasetSpec",
    "FileSource",
    "GroundTruthMismatch",
    "HashCounter",
    "HeapEntry",
    "IPv4Address",
    "InvalidPlan",
    "InvalidSpec",
    "IpMapCounter",
    "IpstatError",
    "MalformedAddress",
    "OctetOutOfRange",
    "PartitionPlan",
    "RecordStream",
    "SingleUseSource",
    "SourceNotReplayable",
    "SsmbCounter",
    "TlmbCounter",
    "TopKHeap",
    "ValidationFailure",
    "WorkerResult",
    "block_index",
    "build_dataset",
    "discover_subsets",
    "element_index",
    "format_dotted",
    "from_u32",
    "generate",
    "hash_top_k",
    "ipmap_top_k",
    "load_truth",
    "merge_top_k",
    "open_stream",
    "parallel_top_k",
    "parse_dotted",
    "run_bench",
    "run_method",
    "run_parallel",
    "ssmb_top_k",
    "tlmb_top_k",
    "to_u32",
    "verify",
    "write_binary",
    "write_csv",
]
