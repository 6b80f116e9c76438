"""IPv4 addresses, record files, and record streams.

An address is four octets; its canonical integer form is the 32-bit value
a*2**24 + b*2**16 + c*2**8 + d, which is also the order used everywhere for
tie-breaking. Bulk work happens on numpy uint32 arrays; the IPv4Address
tuple appears only at API edges (parsing, results).

Two record file formats are supported:

* text: UTF-8 lines, LF or CRLF, one record per line, blank lines skipped.
  The dotted quad must come first; anything after it on the line
  (whitespace-separated attributes) is ignored.
* binary: 8-byte header = magic "IPR1" plus a 4-byte little-endian record
  count, then that many 4-byte little-endian address words.

Text is read in 8 MiB chunks, one batch each, and every chunk is decoded
in line-aligned slices of about 512 KiB. A slice holding nothing but plain
``a.b.c.d`` lines is decoded on a vectorized path: the separators are found
once and each part's value is computed from shifted views of the slice.
Any other slice falls back, on its own, to a per-line parser with exact
error positions, so an odd line costs per-line parsing of its slice only.
Both paths produce identical addresses and accept or reject a record by
its own bytes alone.
"""

from __future__ import annotations

import mmap
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np

from .errors import (
    BinaryFormatError,
    CountOverflow,
    MalformedAddress,
    OctetOutOfRange,
    SourceNotReplayable,
)

BINARY_MAGIC = b"IPR1"

# Tuning knobs, not contracts: how much text is read and yielded as one
# batch, how much of it is decoded at a time, and how many records a
# binary/array batch carries.
TEXT_CHUNK_BYTES = 8 << 20
# A slice's temporaries stay cache-sized, and a slice that needs the
# per-line parser costs only its own bytes. Decode speed is flat from 32 KiB
# to 1 MiB; the size was set by the peak RSS of an ssmb query (the heap left
# resident after decode plus the 128 MiB block): 256 KiB, 1 MiB and 2 MiB
# slices each left 3-5 MiB more resident on a 1M-line file.
TEXT_SLICE_BYTES = 512 << 10
BATCH_RECORDS = 1 << 20

_MAX_COUNT = np.uint64(np.iinfo(np.uint64).max)

_LF = 0x0A
_CR = 0x0D
_DOT = 0x2E
_DIGIT0 = 0x30


class IPv4Address(NamedTuple):
    """One dotted-quad address, octet per field."""

    a: int
    b: int
    c: int
    d: int

    def __str__(self) -> str:
        return f"{self.a}.{self.b}.{self.c}.{self.d}"


def to_u32(addr: IPv4Address) -> int:
    """Canonical 32-bit integer form; monotone in octet order."""
    return (addr.a << 24) | (addr.b << 16) | (addr.c << 8) | addr.d


def from_u32(value: int) -> IPv4Address:
    return IPv4Address((value >> 24) & 0xFF, (value >> 16) & 0xFF, (value >> 8) & 0xFF, value & 0xFF)


def format_dotted(addr: IPv4Address) -> str:
    """Canonical text form, no zero padding."""
    return str(addr)


def parse_dotted(text: str) -> IPv4Address:
    """Parse the leading dotted quad of a record line.

    Whitespace-separated content after the fourth part is ignored, so full
    flow-record lines parse their address. Leading zeros in a part are
    accepted; values above 255 raise OctetOutOfRange.
    """
    fields = text.split(None, 1)
    if not fields:
        raise MalformedAddress("empty record")
    parts = fields[0].split(".")
    if len(parts) != 4:
        raise MalformedAddress(f"expected 4 dot-separated parts, got {len(parts)!r} in {fields[0]!r}")
    octets = []
    for part in parts:
        if not part or not part.isascii() or not part.isdigit():
            raise MalformedAddress(f"non-numeric part {part!r} in {fields[0]!r}")
        value = int(part)
        if value > 255:
            raise OctetOutOfRange(f"part {part!r} exceeds 255 in {fields[0]!r}")
        octets.append(value)
    return IPv4Address(*octets)


class RecordStream:
    """Single-consumer stream of addresses from one pass over a source.

    ``batches()`` yields uint32 arrays in file order and ``read_all()``
    drains them into one. ``records_read`` counts yielded records,
    ``malformed_skipped`` counts records dropped in lenient mode.
    """

    def __init__(self, batches: Iterator[np.ndarray]):
        self._batches = batches
        self.records_read = 0
        self.malformed_skipped = 0
        self._consumed = False

    def batches(self) -> Iterator[np.ndarray]:
        if self._consumed:
            raise RuntimeError("RecordStream is single-consumer and was already read")
        self._consumed = True
        for batch in self._batches:
            self.records_read += batch.size
            yield batch

    def read_all(self) -> np.ndarray:
        """Drain the stream into one uint32 array."""
        parts = list(self.batches())
        if not parts:
            return np.empty(0, dtype=np.uint32)
        return np.concatenate(parts)


def open_stream(
    path,
    fmt: str = "auto",
    lenient: bool = False,
    batch_records: int = BATCH_RECORDS,
) -> RecordStream:
    """Open a record file as a stream of addresses.

    fmt is "text", "binary", or "auto" (sniff the binary magic). In strict
    mode (default) the first malformed entry raises with its line number;
    in lenient mode malformed lines are counted and skipped.
    ``batch_records`` sizes binary batches only: text yields one batch per
    TEXT_CHUNK_BYTES (8 MiB) chunk read.
    """
    if fmt not in ("auto", "text", "binary"):
        raise ValueError(f"unknown format {fmt!r}")
    handle = open(path, "rb")
    try:
        head = handle.read(4)
        handle.seek(0)
        if fmt == "auto":
            fmt = "binary" if head == BINARY_MAGIC else "text"
    except Exception:
        handle.close()
        raise
    stream = RecordStream(iter(()))
    if fmt == "binary":
        stream._batches = _binary_batches(handle, lenient, batch_records)
    else:
        stream._batches = _text_batches(handle, stream, lenient)
    return stream


def stream_from_array(values: np.ndarray, batch_records: int = BATCH_RECORDS) -> RecordStream:
    arr = np.asarray(values, dtype=np.uint32)
    return RecordStream(arr[i : i + batch_records] for i in range(0, max(arr.size, 1), batch_records))


def aggregate(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of a uint32 batch, ascending, with uint64 multiplicities.

    Every block counter ingests through this: it touches its own count
    slots once per distinct address rather than once per record.
    """
    values, counts = np.unique(np.asarray(batch, dtype=np.uint32), return_counts=True)
    return values, counts.astype(np.uint64)


def octet_runs(values: np.ndarray) -> list[tuple[int, int, int]]:
    """(first octet, start, stop) of each first-octet run of a non-empty ascending uint32 array."""
    highs = values >> np.uint32(24)
    bounds = [0, *(np.flatnonzero(np.diff(highs)) + 1).tolist(), values.size]
    return [(int(highs[lo]), lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def checked_add(current: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of gathered uint64 slot values and their increments.

    Raises CountOverflow instead of wrapping. Callers add before they
    write, so a batch that would overflow leaves every slot untouched.
    """
    if (current > _MAX_COUNT - counts).any():
        raise CountOverflow("an address count would exceed the 64-bit range")
    return current + counts


def _binary_batches(handle: BinaryIO, lenient: bool, batch_records: int) -> Iterator[np.ndarray]:
    with handle:
        header = handle.read(8)
        if len(header) < 8 or header[:4] != BINARY_MAGIC:
            raise BinaryFormatError("missing IPR1 magic header")
        remaining = int.from_bytes(header[4:8], "little")
        while remaining:
            take = min(batch_records, remaining)
            data = handle.read(4 * take)
            if len(data) < 4 * take:
                raise BinaryFormatError(f"truncated body: {remaining} of the declared records missing")
            remaining -= take
            yield np.frombuffer(data, dtype="<u4").astype(np.uint32, copy=False)
        if not lenient and handle.read(1):
            raise BinaryFormatError("trailing bytes after the declared record count")


def write_binary(path, addresses: np.ndarray) -> None:
    """Write addresses in the binary record format."""
    arr = np.asarray(addresses, dtype=np.uint32)
    if arr.size > 0xFFFFFFFF:
        raise ValueError("binary format caps the record count at 2**32 - 1")
    with open(path, "wb") as handle:
        handle.write(BINARY_MAGIC)
        handle.write(int(arr.size).to_bytes(4, "little"))
        handle.write(arr.astype("<u4", copy=False).tobytes())


def _text_batches(handle: BinaryIO, stream: RecordStream, lenient: bool) -> Iterator[np.ndarray]:
    with handle:
        # Chunks are read into one anonymous mapping, not into fresh bytes
        # objects: freeing an 8 MiB malloc block raises glibc's dynamic mmap
        # and trim thresholds, and the heap that decode leaves behind then
        # stays resident through the 128 MiB block of a later ssmb pass
        # (up to 12 MiB more peak RSS on a 1M-line file). Untouched pages
        # of the spare half cost nothing; a line longer than a chunk grows
        # the mapping.
        buf = mmap.mmap(-1, 2 * TEXT_CHUNK_BYTES)
        held = 0  # bytes of an unfinished line, kept at the front
        line_base = 0
        while True:
            if held + TEXT_CHUNK_BYTES >= len(buf):
                bigger = mmap.mmap(-1, 2 * len(buf))
                bigger[:held] = buf[:held]
                buf = bigger
            with memoryview(buf) as view:
                read = handle.readinto(view[held : held + TEXT_CHUNK_BYTES])
            if not read:
                break
            stop = held + read
            cut = buf.rfind(b"\n", held, stop)
            if cut < 0:
                held = stop
                continue
            arr, lines = _parse_text_chunk(buf, cut + 1, line_base, lenient, stream)
            line_base += lines
            held = stop - cut - 1
            buf.move(0, cut + 1, held)
            if arr.size:
                yield arr
        if held:
            # final record without a trailing newline
            buf[held : held + 1] = b"\n"
            arr, _ = _parse_text_chunk(buf, held + 1, line_base, lenient, stream)
            if arr.size:
                yield arr


def _parse_text_chunk(chunk: mmap.mmap, stop: int, line_base: int, lenient: bool, stream: RecordStream):
    """Parse chunk[:stop], which ends in LF, slice by slice; returns (uint32 array, line count).

    A slice ends at the first LF that makes it TEXT_SLICE_BYTES long or
    longer, and is decoded on its own.
    """
    view = memoryview(chunk)
    parts = []
    lines = 0
    start = 0
    while start < stop:
        end = chunk.find(b"\n", min(start + TEXT_SLICE_BYTES, stop) - 1, stop) + 1
        arr, count = _parse_text_block(view[start:end], line_base + lines, lenient, stream)
        parts.append(arr)
        lines += count
        start = end
    return np.concatenate(parts), lines


def _parse_text_block(block: memoryview, line_base: int, lenient: bool, stream: RecordStream):
    """Parse one slice of whole lines; returns (uint32 array, line count)."""
    raw = np.frombuffer(block, dtype=np.uint8)
    lines = np.count_nonzero(raw == _LF)
    strays = np.count_nonzero(raw == _CR)
    if strays:
        # only a CR ending its line is dropped; a stray one sends the slice
        # to the per-line parser, which rejects it wherever it sits
        crlf = np.flatnonzero((raw[:-1] == _CR) & (raw[1:] == _LF))
        raw = np.delete(raw, crlf)
        strays -= crlf.size
    digits = np.count_nonzero(raw - np.uint8(_DIGIT0) <= 9)
    if not strays and lines + np.count_nonzero(raw == _DOT) + digits == raw.size:
        arr = _parse_pure_block(raw, lines, line_base, lenient, stream)
        if arr is not None:
            return arr, lines
    return _parse_lines(block, line_base, lenient, stream), lines


def _parse_pure_block(raw: np.ndarray, lines: int, line_base: int, lenient: bool, stream: RecordStream):
    """Vectorized decode of a slice holding only digits, dots and LF, ending in LF.

    Finds the separators once, then computes the value of the part that
    ends at each separator over the whole slice, from shifted views of it.
    Returns None unless every line is four dot-separated parts of one to
    three digits; the caller then re-parses the slice line by line (which
    also produces the precise diagnostics).
    """
    # three leading LFs let every shifted view start before the first byte
    pad = np.empty(raw.size + 3, dtype=np.uint8)
    pad[:3] = _LF
    pad[3:] = raw
    sep = pad < _DIGIT0
    dig = ~sep
    at = np.flatnonzero(sep[3:])
    # with as many separators as four per LF, the LFs are every fourth one
    if at.size != 4 * lines or (raw[at[3::4]] != _LF).any():
        return None
    # one to three digits a part: no separator right after another, no four digits in a row
    if (sep[3:] & sep[2:-1]).any() or (dig[3:] & dig[2:-1] & dig[1:-2] & dig[:-3]).any():
        return None
    digit = ((pad - np.uint8(_DIGIT0)) * dig).astype(np.uint16)
    # a part ending before pad[i] is digit[i-1] + 10 digit[i-2] + 100 digit[i-3],
    # the last term only when pad[i-2] is a digit too
    values = (digit[2:-1] + 10 * digit[1:-2] + 100 * digit[:-3] * dig[1:-2])[at]
    if values.max() > 255:
        if not lenient:
            bad = int(np.argmax(values > 255)) // 4
            raise OctetOutOfRange("dotted-quad part exceeds 255", line_number=line_base + bad + 1)
        good = (values <= 255).reshape(-1, 4).all(axis=1)
        stream.malformed_skipped += int((~good).sum())
        values = values.reshape(-1, 4)[good].ravel()
    # each line's four octets, read as one big-endian word
    return values.astype(np.uint8).view(">u4").astype(np.uint32)


def _parse_lines(block: memoryview, line_base: int, lenient: bool, stream: RecordStream) -> np.ndarray:
    out = []
    text = str(block, "utf-8", errors="replace")
    for offset, line in enumerate(text.split("\n")):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(to_u32(parse_dotted(line)))
        except MalformedAddress as exc:
            if lenient:
                stream.malformed_skipped += 1
                continue
            raise type(exc)(exc.args[0], line_number=line_base + offset + 1) from None
    return np.array(out, dtype=np.uint32)


class FileSource:
    """Replayable record source backed by a file path.

    ``open()`` starts a fresh pass and bumps ``replays``; every query
    method, ssmb included, opens its source once. ``batch_records`` applies
    to binary files only; a text file yields one batch per 8 MiB chunk.
    """

    replayable = True

    def __init__(self, path, fmt: str = "auto", lenient: bool = False, batch_records: int = BATCH_RECORDS):
        self.path = path
        self.fmt = fmt
        self.lenient = lenient
        self.batch_records = batch_records
        self.replays = 0

    def open(self) -> RecordStream:
        self.replays += 1
        return open_stream(self.path, self.fmt, self.lenient, self.batch_records)


class ArraySource:
    """Replayable record source over an in-memory uint32 array."""

    replayable = True

    def __init__(self, addresses: np.ndarray, batch_records: int = BATCH_RECORDS):
        self._values = np.ascontiguousarray(addresses, dtype=np.uint32)
        self.batch_records = batch_records
        self.replays = 0

    def open(self) -> RecordStream:
        self.replays += 1
        return stream_from_array(self._values, self.batch_records)


class SingleUseSource:
    """Adapter around one open RecordStream; cannot be replayed."""

    replayable = False

    def __init__(self, stream: RecordStream):
        self._stream = stream

    def open(self) -> RecordStream:
        if self._stream is None:
            raise SourceNotReplayable("this source has already been consumed")
        stream, self._stream = self._stream, None
        return stream


def read_source(source) -> np.ndarray:
    """Drain one pass of a source into a single uint32 array."""
    return source.open().read_all()
