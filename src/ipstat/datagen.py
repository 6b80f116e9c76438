"""Synthetic record datasets with exact ground truth.

A dataset is fully determined by its spec: records n, distinct addresses d,
seed, multiplicity distribution (uniform, or zipf with an exponent),
first-octet cap, and file format. Generation derives three child seeds
from the master seed — one each for the distinct address set, the
multiplicities, and the record order — so:

* the same spec always produces byte-identical files, and
* the distinct address set depends only on (seed, distinct, cap): growing
  n with everything else fixed re-weights the same addresses, which is
  what lets scaling runs compare like against like.

Every distinct address appears at least once; the remaining n - d records
are spread by a multinomial draw over the chosen weights. A ground-truth
sidecar (``<dataset>.truth``) lists every "dotted-quad<TAB>count" pair,
strongest first with count ties broken toward the numerically smaller
address — the same order every top-k result uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import HashCounter
from .errors import GroundTruthMismatch, InvalidSpec, MalformedAddress
from .model import from_u32, open_stream, parse_dotted, to_u32, write_binary

ADDRESSES_PER_OCTET = 1 << 24
_TEXT_CHUNK = 1 << 20
_PAD = 0xFF


@dataclass(frozen=True)
class DatasetSpec:
    """Everything that determines a dataset's bytes."""

    records: int
    distinct: int
    seed: int
    distribution: str = "uniform"
    zipf_exponent: float = 1.0
    first_octet_cap: int = 256
    file_format: str = "text"

    def __post_init__(self):
        if self.records < 1:
            raise InvalidSpec(f"records must be at least 1, got {self.records}")
        if self.distinct < 1:
            raise InvalidSpec(f"distinct must be at least 1, got {self.distinct}")
        if self.distinct > self.records:
            raise InvalidSpec(f"distinct exceeds records: {self.distinct} > {self.records}")
        if not 1 <= self.first_octet_cap <= 256:
            raise InvalidSpec(f"first_octet_cap must be in [1, 256], got {self.first_octet_cap}")
        if self.distinct > self.first_octet_cap * ADDRESSES_PER_OCTET:
            raise InvalidSpec(
                f"{self.distinct} distinct addresses do not fit under first octet cap {self.first_octet_cap}"
            )
        if self.distribution not in ("uniform", "zipf"):
            raise InvalidSpec(f"distribution must be uniform or zipf, got {self.distribution!r}")
        if self.distribution == "zipf" and not self.zipf_exponent > 0:
            raise InvalidSpec(f"zipf exponent must be positive, got {self.zipf_exponent}")
        if self.file_format not in ("text", "binary"):
            raise InvalidSpec(f"file_format must be text or binary, got {self.file_format!r}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be non-negative, got {self.seed}")

    @staticmethod
    def parse_distribution(text: str) -> tuple[str, float]:
        """Parse a --dist argument: "uniform" or "zipf:EXP"."""
        if text == "uniform":
            return "uniform", 1.0
        if text.startswith("zipf:"):
            try:
                return "zipf", float(text[5:])
            except ValueError:
                raise InvalidSpec(f"bad zipf exponent in {text!r}") from None
        if text == "zipf":
            return "zipf", 1.0
        raise InvalidSpec(f"distribution must be uniform or zipf:EXP, got {text!r}")


def _distinct_addresses(spec: DatasetSpec) -> np.ndarray:
    """The dataset's distinct address set, in weight-rank order.

    Driven only by (seed, distinct, first_octet_cap): rejection-sample
    uniform addresses until enough are distinct, then pick d of them by a
    random permutation so the kept set stays uniform over the space.
    """
    rng = np.random.default_rng(_children(spec.seed)[0])
    space = spec.first_octet_cap * ADDRESSES_PER_OCTET
    pool = np.empty(0, dtype=np.uint64)
    while pool.size < spec.distinct:
        need = spec.distinct - pool.size
        draw = rng.integers(0, space, size=need + need // 4 + 1024, dtype=np.uint64)
        pool = np.unique(np.concatenate([pool, draw]))
    picks = rng.permutation(pool.size)[: spec.distinct]
    return pool[picks].astype(np.uint32)


def _multiplicities(spec: DatasetSpec) -> np.ndarray:
    """Per-address counts: one guaranteed record plus a weighted multinomial."""
    rng = np.random.default_rng(_children(spec.seed)[1])
    if spec.distribution == "zipf":
        weights = 1.0 / np.arange(1, spec.distinct + 1, dtype=np.float64) ** spec.zipf_exponent
        weights /= weights.sum()
    else:
        weights = np.full(spec.distinct, 1.0 / spec.distinct)
    extra = rng.multinomial(spec.records - spec.distinct, weights)
    return extra.astype(np.int64) + 1


def _children(seed: int) -> list:
    return np.random.SeedSequence(seed).spawn(3)


def build_dataset(spec: DatasetSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialize (records, distinct addresses, counts) in memory."""
    distinct = _distinct_addresses(spec)
    counts = _multiplicities(spec)
    records = np.repeat(distinct, counts)
    rng = np.random.default_rng(_children(spec.seed)[2])
    rng.shuffle(records)
    return records, distinct, counts


def generate(spec: DatasetSpec, out_path) -> dict:
    """Write the dataset and its ground-truth sidecar; returns a report."""
    out_path = Path(out_path)
    records, distinct, counts = build_dataset(spec)
    if spec.file_format == "binary":
        write_binary(out_path, records)
    else:
        with open(out_path, "wb") as handle:
            for start in range(0, records.size, _TEXT_CHUNK):
                handle.write(_format_text(records[start : start + _TEXT_CHUNK]))
    truth_path = out_path.with_name(out_path.name + ".truth")
    write_truth(truth_path, distinct, counts)
    return {
        "written_records": int(records.size),
        "distinct_written": int(distinct.size),
        "dataset_path": str(out_path),
        "ground_truth_path": str(truth_path),
        "file_format": spec.file_format,
    }


def _format_text(batch: np.ndarray) -> bytes:
    """Render a uint32 batch as dotted-quad lines, no padding, LF endings.

    Lays each record into a fixed 16-byte row (three right-aligned digit
    cells plus separators), then drops the pad bytes to get the
    variable-width text in one vector pass.
    """
    n = batch.size
    rows = np.full((n, 16), _PAD, dtype=np.uint8)
    for j, shift in enumerate((24, 16, 8, 0)):
        octet = ((batch >> np.uint32(shift)) & np.uint32(0xFF)).astype(np.int64)
        base = 4 * j
        rows[:, base + 2] = 0x30 + octet % 10
        tens = octet >= 10
        rows[tens, base + 1] = 0x30 + (octet[tens] // 10) % 10
        hundreds = octet >= 100
        rows[hundreds, base] = 0x30 + octet[hundreds] // 100
        rows[:, base + 3] = 0x2E if j < 3 else 0x0A
    flat = rows.reshape(-1)
    return flat[flat != _PAD].tobytes()


def write_truth(path, distinct: np.ndarray, counts: np.ndarray) -> None:
    """Write "dotted<TAB>count" lines, strongest first, ties to smaller address."""
    order = np.lexsort((distinct.astype(np.int64), -counts.astype(np.int64)))
    with open(path, "w", encoding="utf-8") as handle:
        for value, count in zip(distinct[order].tolist(), counts[order].tolist()):
            handle.write(f"{from_u32(value)}\t{count}\n")


def load_truth(path) -> list[tuple[int, int]]:
    """Read a ground-truth sidecar as (address u32, count) pairs, file order.

    The sidecar must be a ranking: counts of at least 1, by descending
    count, ties by ascending address; GroundTruthMismatch names the line,
    also one that is not UTF-8 text.
    """
    pairs = []
    with open(path, encoding="utf-8", errors="replace") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                dotted, count = line.split("\t")
                pair = (to_u32(parse_dotted(dotted)), int(count))
            except (ValueError, MalformedAddress):
                raise GroundTruthMismatch(f"{path}: bad truth line {number}: {line!r}") from None
            if pair[1] < 1:
                raise GroundTruthMismatch(f"{path}: truth line {number} has a count below 1: {line!r}")
            if pairs and (-pairs[-1][1], pairs[-1][0]) >= (-pair[1], pair[0]):
                raise GroundTruthMismatch(f"{path}: truth line {number} is out of ranking order: {line!r}")
            pairs.append(pair)
    return pairs


def verify(dataset_path, truth_path) -> dict:
    """Recount a dataset with the hash baseline and check the sidecar."""
    truth = load_truth(truth_path)
    if not truth:
        raise GroundTruthMismatch(f"{truth_path}: the sidecar lists no addresses")
    counter = HashCounter()
    stream = open_stream(dataset_path)
    for batch in stream.batches():
        counter.ingest_many(batch)
    mismatches = []
    seen = 0
    for value, expected in truth:
        actual = counter.count(from_u32(value))
        if actual != expected:
            mismatches.append((value, expected, actual))
        seen += expected
    if mismatches:
        value, expected, actual = mismatches[0]
        raise GroundTruthMismatch(
            f"{len(mismatches)} addresses disagree with the truth file; first: "
            f"{from_u32(value)} expected {expected}, counted {actual}"
        )
    if seen != stream.records_read:
        raise GroundTruthMismatch(
            f"truth total {seen} != {stream.records_read} records in the dataset"
        )
    counts = np.array([count for _, count in truth], dtype=np.int64)
    return {
        "records": int(stream.records_read),
        "distinct": len(truth),
        "min_count": int(counts.min()),
        "max_count": int(counts.max()),
        "mean_multiplicity": float(stream.records_read / len(truth)),
    }
