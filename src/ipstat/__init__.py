"""Exact top-k frequency statistics for large IPv4 record streams.

Two memory-block counting methods do the heavy lifting — a two-layer
counter that allocates per-/24 count blocks lazily (tlmb) and a
subset-scan counter that reuses one count block across per-first-octet
passes (ssmb) — next to two baselines (hash map, direct-mapped blocks),
all sharing one result order and one bounded min-heap top-k extractor.
"""

from .baselines import HashCounter, IpMapCounter
from .bench import BenchRow, query, run_bench, run_method, write_csv
from .datagen import DatasetSpec, build_dataset, generate, load_truth, verify
from .errors import (
    BinaryFormatError,
    CountOverflow,
    GroundTruthMismatch,
    InvalidPlan,
    InvalidSpec,
    IpstatError,
    MalformedAddress,
    OctetOutOfRange,
    ValidationFailure,
)
from .model import (
    ArraySource,
    FileSource,
    IPv4Address,
    RecordStream,
    from_u32,
    open_stream,
    parse_dotted,
    to_u32,
    write_binary,
)
from .parallel import PartitionPlan, WorkerResult, run_parallel
from .ssmb import SsmbCounter, discover_subsets
from .tlmb import TlmbCounter
from .topk import HeapEntry, TopKHeap, merge_top_k

__version__ = "0.1.0"

# the documented API (see README); every other name imported above stays
# importable from here
__all__ = [
    "ArraySource",
    "CountOverflow",
    "FileSource",
    "HashCounter",
    "IPv4Address",
    "IpMapCounter",
    "PartitionPlan",
    "SsmbCounter",
    "TlmbCounter",
    "query",
]
