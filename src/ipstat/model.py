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

Text is read in 8 MiB chunks, one batch each, and each chunk runs on to
the end of its last line, so it stands alone. Every chunk is decoded in
line-aligned slices of about 128 KiB. A vectorized kernel classifies
every byte of a slice (the CR of each CRLF dropped) and only accepts or
declines it: it accepts plain ``a.b.c.d`` lines with parts up to 255,
computing each part from shifted views of the slice. It writes every
slice-sized intermediate into one fixed scratch arena that the stream
keeps until it ends, fails or is closed. Any slice it declines, or that
holds a line too long for the arena, goes to the per-line parser, which
alone decides every rejection and lenient skip. So an odd line costs
per-line parsing of its own slice only, and a record is accepted or
rejected by its own bytes. Decoders return their skip counts with their
values.
"""

from __future__ import annotations

import mmap
import os
from contextlib import closing
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np

from .errors import BinaryFormatError, CountOverflow, MalformedAddress, OctetOutOfRange

BINARY_MAGIC = b"IPR1"

# Tuning knobs, not contracts: how much text is read and yielded as one
# batch, how much of it is decoded at a time, and how many records a
# binary/array batch carries.
TEXT_CHUNK_BYTES = 8 << 20
# A slice that needs the per-line parser costs only its own bytes. A
# stream's scratch arena takes about 6 bytes per slice byte (7 for CRLF
# text) and stays resident while the stream is read. In fresh processes on
# a 1M-line file (2 CPUs), hash's peak RSS read 66.1, 66.6, 67.6 and 69.7
# MiB with 32, 128, 256 and 512 KiB slices; ssmb's read 159.4 MiB at every
# size, as the arena is gone before its 128 MiB block is touched. Decoding
# a 5M-line file took 0.52 s with 32 KiB slices and 0.40-0.45 s with 128 KiB.
TEXT_SLICE_BYTES = 128 << 10
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

    ``batches()`` yields the non-empty uint32 arrays of a decoder's
    ``(array, skipped)`` pairs in file order. ``records_read`` counts
    yielded records, ``malformed_skipped`` sums the skip counts (records
    dropped in lenient mode).
    """

    def __init__(self, batches: Iterator[tuple[np.ndarray, int]]):
        self._batches = batches
        self.records_read = 0
        self.malformed_skipped = 0
        self._consumed = False

    def batches(self) -> Iterator[np.ndarray]:
        if self._consumed:
            raise RuntimeError("RecordStream is single-consumer and was already read")
        self._consumed = True
        for batch, skipped in self._batches:
            self.malformed_skipped += skipped
            if batch.size:
                self.records_read += batch.size
                yield batch


def open_stream(path, fmt: str = "auto", lenient: bool = False) -> RecordStream:
    """Open a record file as a stream of addresses.

    fmt is "text", "binary", or "auto" (sniff the binary magic). Whether a
    text record is malformed is decided by the per-line parser: in strict
    mode (default) the first malformed line raises with its line number; in
    lenient mode malformed lines are counted and skipped. A binary file
    with a wrong magic or a truncated body always raises; bytes after its
    declared records raise in strict mode and are ignored in lenient mode.
    Text yields one batch per TEXT_CHUNK_BYTES (8 MiB) chunk read, run on
    to the end of its last line, binary one per BATCH_RECORDS records.
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
    decode = _binary_batches if fmt == "binary" else _text_batches
    return RecordStream(decode(handle, lenient))


def aggregate(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of a uint32 batch, ascending, with uint64 multiplicities.

    Every block counter ingests through this: it touches its own count
    slots once per distinct address rather than once per record. One sorted
    copy and a mask of its run starts give both; a count is a run's length.
    """
    ordered = np.sort(np.asarray(batch, dtype=np.uint32))
    fresh = np.empty(ordered.size, dtype=np.bool_)
    fresh[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    return ordered[starts], np.diff(starts, append=ordered.size).astype(np.uint64)


def runs(source, pool=None, ahead: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each batch of one pass over ``source`` as its ``aggregate``, in file order.

    A ``pool`` aggregates up to ``ahead`` more while the caller uses one;
    without one, no thread starts. Closing cancels the aggregates still
    queued and drops the stream, so a file closes at once.
    """
    pending = []
    try:
        for batch in source.open().batches():
            if pool is None:
                yield aggregate(batch)
                continue
            pending.append(pool.submit(aggregate, batch))
            if len(pending) > ahead:
                yield pending.pop(0).result()
        while pending:
            yield pending.pop(0).result()
    finally:
        for future in pending:
            future.cancel()


def read_ahead(workers: int) -> int:
    """How many batches a pool of ``workers`` threads aggregates ahead: one a thread, at most one a usable CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(workers, cpus)


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


def _binary_batches(handle: BinaryIO, lenient: bool) -> Iterator[tuple[np.ndarray, int]]:
    with handle:
        header = handle.read(8)
        if len(header) < 8 or header[:4] != BINARY_MAGIC:
            raise BinaryFormatError("missing IPR1 magic header")
        remaining = int.from_bytes(header[4:8], "little")
        while remaining:
            take = min(BATCH_RECORDS, remaining)
            data = handle.read(4 * take)
            if len(data) < 4 * take:
                raise BinaryFormatError(f"truncated body: {remaining} of the declared records missing")
            remaining -= take
            yield np.frombuffer(data, dtype="<u4").astype(np.uint32, copy=False), 0
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


def _text_batches(handle: BinaryIO, lenient: bool) -> Iterator[tuple[np.ndarray, int]]:
    # A slice runs on to the end of its last line, so the scratch has room
    # for lines up to 1 KiB past TEXT_SLICE_BYTES, and a longer slice is
    # parsed line by line; it is released when the stream ends, fails or is
    # closed early.
    with handle, closing(_Scratch(TEXT_SLICE_BYTES + 1024)) as scratch:
        # Chunks are read into one anonymous mapping, not into fresh bytes
        # objects: freeing an 8 MiB malloc block raises glibc's dynamic mmap
        # and trim thresholds, and the heap that decode leaves behind then
        # stays resident through the 128 MiB block of a later ssmb pass
        # (up to 12 MiB more peak RSS on a 1M-line file). A chunk is
        # TEXT_CHUNK_BYTES read at the front, then the rest of its last line,
        # so it holds whole lines only and nothing is carried to the next.
        # Untouched pages of the spare half cost nothing; a last line that
        # runs past the mapping grows it.
        buf = mmap.mmap(-1, 2 * TEXT_CHUNK_BYTES)
        line_base = 0
        while read := handle.readinto(memoryview(buf)[:TEXT_CHUNK_BYTES]):
            tail = handle.readline()
            stop = read + len(tail)
            if stop >= len(buf):
                bigger = mmap.mmap(-1, stop + 1)
                bigger[:read] = buf[:read]
                buf = bigger
            buf[read:stop] = tail
            if buf[stop - 1] != _LF:
                # final record without a trailing newline
                buf[stop] = _LF
                stop += 1
            arr, lines, skipped = _parse_text_chunk(buf, stop, line_base, lenient, scratch)
            line_base += lines
            yield arr, skipped


def _parse_text_chunk(chunk: mmap.mmap, stop: int, line_base: int, lenient: bool, scratch: _Scratch):
    """Parse chunk[:stop], which ends in LF; returns (uint32 array, line count, skipped).

    One loop walks the chunk's slices. A slice ends at the first LF that
    makes it TEXT_SLICE_BYTES long or longer, and is decoded on its own, by
    the kernel or else line by line; whichever decodes it also reports its
    line count. The kernel works in ``scratch``, which the stream keeps for
    all its slices; a slice longer than ``scratch.capacity`` goes line by
    line. The result depends only on the bytes, ``line_base`` and ``lenient``.
    """
    view = memoryview(chunk)
    # An accepted line is at least "0.0.0.0\n": the records fit stop // 8 + 1
    # words (a mapping cannot be empty), whose untouched pages cost nothing.
    # Its own mapping goes with its last view: a freed heap batch would raise
    # glibc's trim threshold, and heap left resident stays under ssmb's block.
    out = np.frombuffer(mmap.mmap(-1, 4 * (stop // 8 + 1)), dtype=np.uint32)
    records = lines = skipped = start = 0
    while start < stop:
        end = chunk.find(b"\n", min(start + TEXT_SLICE_BYTES, stop) - 1, stop) + 1
        raw = np.frombuffer(view[start:end], dtype=np.uint8)
        # past the stream's arena, a slice holds a line of over 1 KiB, which the kernel declines
        fits = raw.size <= scratch.capacity
        crlf = fits and chunk.find(b"\r", start, end) >= 0
        # no name holds the CRLF copy: an error's traceback would keep the arena mapped
        taken = fits and _parse_pure_block(_drop_crlf_crs(raw, scratch) if crlf else raw, scratch, out[records:])
        if taken:
            records += taken
            lines += taken
        else:
            arr, count, dropped = _parse_lines(view[start:end], line_base + lines, lenient)
            out[records : records + arr.size] = arr
            records += arr.size
            lines += count
            skipped += dropped
        start = end
    return out[:records], lines, skipped


def _drop_crlf_crs(raw: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """Copy a slice ending in LF into ``scratch.text`` without each CRLF's CR; other CRs stay, for the kernel to decline."""
    keep = np.not_equal(raw, _CR, out=scratch.mask[: raw.size])
    np.logical_or(keep[:-1], np.not_equal(raw[1:], _LF, out=scratch.dig[3 : raw.size + 2]), out=keep[:-1])
    kept = raw[keep]
    scratch.text[: kept.size] = kept
    return scratch.text[: kept.size]


class _Scratch:
    """The kernel's slice-sized arrays, carved from one anonymous mapping.

    A text stream keeps one, of a fixed size, for all its slices, so that no
    slice allocates temporaries that go back to the kernel and fault in
    again on the next.
    ``digit`` and ``dig`` lead with three bytes that are never written: they
    read as non-digits of value 0, like the LFs before a slice.
    """

    def __init__(self, capacity: int):
        step = (capacity + 10) & ~7  # a slice and its 3 leading bytes; each array starts 8-aligned
        self._map = mmap.mmap(-1, 7 * step)
        self.digit = np.frombuffer(self._map, np.uint8, capacity + 3, 0)
        self.dig = np.frombuffer(self._map, np.bool_, capacity + 3, step)
        self.mask = np.frombuffer(self._map, np.bool_, capacity, 2 * step)
        self.value = np.frombuffer(self._map, np.uint16, capacity, 3 * step)
        # a slice that passes the adjacency check has a separator at most every other byte
        self.part = np.frombuffer(self._map, np.uint16, capacity // 2 + 1, 5 * step)
        self.text = np.frombuffer(self._map, np.uint8, capacity, 6 * step)  # a CRLF slice without its CRs
        self.capacity = capacity

    def close(self) -> None:
        # the views export the mapping's buffer, so they go first
        self.digit = self.dig = self.mask = self.value = self.part = self.text = None
        try:
            self._map.close()
        except BufferError:
            # a kernel frame on an escaping exception (say MemoryError) still
            # holds a view; the mapping goes with that traceback
            pass


def _parse_pure_block(raw: np.ndarray, scratch: _Scratch, out: np.ndarray) -> int:
    """Vectorized decode of any slice of whole lines; returns how many it wrote to the head of ``out``.

    Classifies each byte as a digit or a separator, finds the separators
    once, and reads the line count off them; then computes the value of
    the part ending at each one from shifted views of the slice's digits.
    Every slice-sized intermediate is written into ``scratch``. Returns 0,
    leaving ``out`` untouched, unless every line is four dot-separated
    parts of one to three digits, each at most 255; the caller then parses
    the slice line by line, which decides what is malformed.
    """
    size = raw.size
    # padded coordinates: raw[i] is at i + 3, after the three untouched leading bytes
    digit, dig, mask = scratch.digit[: size + 3], scratch.dig[: size + 3], scratch.mask[:size]
    np.subtract(raw, np.uint8(_DIGIT0), out=digit[3:])
    np.less_equal(digit[3:], 9, out=dig[3:])
    at = np.flatnonzero(np.logical_not(dig[3:], out=mask))
    # four separators a line, every fourth the LF and the other three dots
    lines = at.size // 4
    dots = np.count_nonzero(np.equal(raw, _DOT, out=mask))
    if at.size % 4 or (raw[at[3::4]] != _LF).any() or dots != 3 * lines:
        return 0
    # one to three digits a part: no separator right after another, no four digits in a row
    if not np.logical_or(dig[3:], dig[2:-1], out=mask).all():
        return 0
    np.logical_and(dig[3:], dig[2:-1], out=mask)
    np.logical_and(mask, dig[1:-2], out=mask)
    if np.logical_and(mask, dig[:-3], out=mask).any():
        return 0
    np.multiply(digit[3:], dig[3:], out=digit[3:])
    # a part ending before raw[i] is digit[i+2] + 10 digit[i+1] + 100 digit[i],
    # the last term only when padded byte i+1 is a digit too
    value = scratch.value[:size]
    np.multiply(digit[:-3], dig[1:-2], out=value)
    value *= 10
    value += digit[1:-2]
    value *= 10
    value += digit[2:-1]
    # every index is in range; "clip" writes straight into out, "raise" would buffer it
    part = np.take(value, at, out=scratch.part[: at.size], mode="clip")
    if part.max() > 255:
        return 0
    # each line's four octets, read as one big-endian word
    octets = mask.view(np.uint8)[: at.size]
    np.copyto(octets, part, casting="unsafe")
    np.copyto(out[:lines], octets.view(">u4"))
    return lines


def _parse_lines(block: memoryview, line_base: int, lenient: bool) -> tuple[np.ndarray, int, int]:
    """Parse ``block`` line by line; returns (uint32 array, LF count, skipped)."""
    out = []
    skipped = 0
    rows = str(block, "utf-8", errors="replace").split("\n")
    for offset, line in enumerate(rows):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(to_u32(parse_dotted(line)))
        except MalformedAddress as exc:
            if lenient:
                skipped += 1
                continue
            raise type(exc)(exc.args[0], line_number=line_base + offset + 1) from None
    return np.array(out, dtype=np.uint32), len(rows) - 1, skipped


class FileSource:
    """Replayable record source backed by a file path.

    ``open()`` starts a fresh pass; every query method, ssmb included,
    opens its source once. Each pass decodes as ``open_stream`` does; the
    per-line parser decides every rejection.
    """

    def __init__(self, path, fmt: str = "auto", lenient: bool = False):
        self.path = path
        self.fmt = fmt
        self.lenient = lenient

    def open(self) -> RecordStream:
        return open_stream(self.path, self.fmt, self.lenient)


class ArraySource:
    """Replayable record source over an in-memory uint32 array, BATCH_RECORDS a batch."""

    def __init__(self, addresses: np.ndarray):
        self._values = np.ascontiguousarray(addresses, dtype=np.uint32)

    def open(self) -> RecordStream:
        values, step = self._values, BATCH_RECORDS
        return RecordStream((values[i : i + step], 0) for i in range(0, values.size, step))

