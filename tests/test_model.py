"""Addresses, text/binary record files, and stream sources."""

import mmap
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import CountingSource, SingleUseSource, property_settings, random_addresses, read_all
from ipstat import model
from ipstat import (
    ArraySource,
    BinaryFormatError,
    FileSource,
    IPv4Address,
    MalformedAddress,
    OctetOutOfRange,
    from_u32,
    open_stream,
    parse_dotted,
    to_u32,
    write_binary,
)


class TestAddressForm:
    def test_to_u32_known_values(self):
        assert to_u32(IPv4Address(0, 0, 0, 0)) == 0
        assert to_u32(IPv4Address(0, 0, 1, 0)) == 256
        assert to_u32(IPv4Address(1, 2, 3, 4)) == 16909060
        assert to_u32(IPv4Address(255, 255, 255, 255)) == 2**32 - 1

    def test_u32_round_trip(self):
        rng = np.random.default_rng(100)
        for value in rng.integers(0, 2**32, size=2000, dtype=np.uint64).tolist():
            assert to_u32(from_u32(value)) == value

    def test_order_isomorphism(self):
        # octet-lexicographic order and integer order agree
        rng = np.random.default_rng(101)
        for _ in range(2000):
            a, b = (from_u32(int(v)) for v in rng.integers(0, 2**32, size=2))
            assert (tuple(a) < tuple(b)) == (to_u32(a) < to_u32(b))

    def test_parse_format_round_trip(self):
        rng = np.random.default_rng(102)
        for value in rng.integers(0, 2**32, size=2000, dtype=np.uint64).tolist():
            addr = from_u32(value)
            assert parse_dotted(str(addr)) == addr

    def test_parse_ignores_attribute_tail(self):
        assert parse_dotted("10.0.0.7 GET /index") == IPv4Address(10, 0, 0, 7)
        assert parse_dotted("1.2.3.4\tbytes=512\tflags=S") == IPv4Address(1, 2, 3, 4)

    def test_parse_accepts_leading_zeros(self):
        assert parse_dotted("001.002.003.004") == IPv4Address(1, 2, 3, 4)

    def test_parse_rejects_bad_shapes(self):
        for bad in ["", "1.2.3", "1.2.3.4.5", "1.2.3.x", "1.2..4", "-1.2.3.4", "1,2,3,4"]:
            with pytest.raises(MalformedAddress):
                parse_dotted(bad)

    def test_parse_rejects_octet_above_255(self):
        with pytest.raises(OctetOutOfRange):
            parse_dotted("1.2.3.256")
        with pytest.raises(OctetOutOfRange):
            parse_dotted("999.1.1.1")

    def test_str_is_dotted_quad(self):
        assert str(IPv4Address(192, 168, 0, 1)) == "192.168.0.1"


def dotted(stream) -> list[str]:
    """Every address of a stream, in order, as dotted-quad text."""
    return [str(from_u32(value)) for value in read_all(stream).tolist()]


class TestTextFormat:
    def test_small_file(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("1.1.1.1\n2.2.2.2\n")
        stream = open_stream(path)
        assert dotted(stream) == ["1.1.1.1", "2.2.2.2"]
        assert stream.records_read == 2

    def test_crlf_blank_lines_and_tails(self, tmp_path):
        path = tmp_path / "messy.txt"
        path.write_bytes(b"1.2.3.4\r\n\n10.0.0.7 GET /index\r\n\n\n9.8.7.6\n")
        got = dotted(open_stream(path))
        assert got == ["1.2.3.4", "10.0.0.7", "9.8.7.6"]

    def test_no_trailing_newline(self, tmp_path):
        path = tmp_path / "cut.txt"
        path.write_bytes(b"1.2.3.4\n5.6.7.8")
        assert dotted(open_stream(path)) == ["1.2.3.4", "5.6.7.8"]

    def test_strict_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.1.1.1\n2.2.2.2\n1.1.1\n3.3.3.3\n")
        with pytest.raises(MalformedAddress) as err:
            read_all(open_stream(path))
        assert "line 3" in str(err.value)

    def test_strict_short_line_one(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1.1.1\n")
        with pytest.raises(MalformedAddress) as err:
            read_all(open_stream(path))
        assert "line 1" in str(err.value)

    def test_strict_octet_out_of_range_in_clean_file(self, tmp_path):
        # the vectorized path declines the all-digits slice; the per-line parser reports it
        path = tmp_path / "range.txt"
        path.write_text("1.1.1.1\n2.2.2.300\n")
        with pytest.raises(OctetOutOfRange) as err:
            read_all(open_stream(path))
        assert "line 2" in str(err.value)
        assert "part '300' exceeds 255 in '2.2.2.300'" in str(err.value)

    def test_lenient_counts_skips(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("1.1.1.1\nnot-an-address\n2.2.2.2\n3.3.3.300\n4.4.4.4\n")
        stream = open_stream(path, lenient=True)
        got = dotted(stream)
        assert got == ["1.1.1.1", "2.2.2.2", "4.4.4.4"]
        assert stream.malformed_skipped == 2
        assert stream.records_read == 3

    def test_large_round_trip_matches_source_order(self, tmp_path):
        rng = np.random.default_rng(103)
        values = random_addresses(rng, 50_000)
        path = tmp_path / "big.txt"
        with open(path, "w") as handle:
            handle.writelines(f"{from_u32(int(v))}\n" for v in values.tolist())
        back = read_all(open_stream(path))
        assert np.array_equal(back, values)

    def test_batches_single_consumer(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1.1.1.1\n")
        stream = open_stream(path)
        list(stream.batches())
        with pytest.raises(RuntimeError):
            list(stream.batches())


def per_line_reference(data: bytes, lenient: bool):
    """Decode record bytes one line at a time with parse_dotted.

    Returns (addresses, malformed_skipped), or raises like the strict decoder:
    the first malformed line's error type, with its line number.
    """
    out, skipped = [], 0
    for number, raw in enumerate(data.split(b"\n"), start=1):
        line = raw.decode("utf-8", errors="replace").strip()
        if not line:
            continue
        try:
            out.append(to_u32(parse_dotted(line)))
        except MalformedAddress as exc:
            if not lenient:
                raise type(exc)(exc.args[0], line_number=number) from None
            skipped += 1
    return out, skipped


def decode_outcome(decode):
    try:
        return "ok", decode()
    except MalformedAddress as exc:
        return type(exc), exc.line_number, str(exc)


def _with_cr(line: str, cr: str, at: int) -> str:
    return line[:at] + cr + line[at:]


def _join_lines(lines: list[str], eols: list[str], final_eol: bool) -> bytes:
    text = "".join(line + eol for line, eol in zip(lines, eols))
    return (text if final_eol else text[:-1]).encode()


# dotted quads (leading zeros, parts above 255, a stray CR somewhere), junk, blanks
_part = st.text("0123456789", min_size=1, max_size=4)
_dotted = st.builds(
    _with_cr,
    st.lists(_part, min_size=4, max_size=4).map(".".join),
    st.sampled_from(["", "", "", "\r"]),
    st.integers(0, 16),
)
# four parts of which some may be empty
_gappy = st.lists(st.text("0123456789", max_size=3), min_size=4, max_size=4).map(".".join)
# junk includes the bytes just below and above the digits ("/" and ":") and letters
_line = st.one_of(_dotted, _dotted, _dotted, _gappy, st.text("0123456789./:\r xA", max_size=12), st.just(""))
RECORD_BYTES = st.builds(
    _join_lines,
    st.lists(_line, min_size=1, max_size=24),
    st.lists(st.sampled_from(["\n", "\n", "\r\n"]), min_size=24, max_size=24),
    st.booleans(),
)
_PURE = b"1.1.1.1\n22.22.22.22\n"


class TestDecoderDifferential:
    """Whether a record is accepted depends on its own bytes only.

    Chunks and slices shrink to a few bytes, so records straddle chunk
    reads and every slice path (pure, per-line fallback, range error)
    meets the others in one file.
    """

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("differential") / "records.txt"

    @property_settings(400)
    @given(
        RECORD_BYTES,
        st.sampled_from([3, 8, 17, 64, 8 << 20]),
        st.sampled_from([1, 16, 40, 64, 512 << 10]),
        st.booleans(),
    )
    @example(b"1.2\r.3.4\n", 8 << 20, 512 << 10, False)
    @example(b"1.2\r.3.4\nbad\n", 8 << 20, 512 << 10, False)
    @example(b"1.2\r.3.4\n5.6.7.8\r\n", 8 << 20, 512 << 10, True)
    @example(b"001.02.3.255\r\n1.2.3.4", 5, 512 << 10, False)
    # CRLF ending a slice, then a pure slice
    @example(b"1.2.3.4\r\n5.6.7.8\r\n" + _PURE, 8 << 20, 9, False)
    # a per-line slice between pure ones: strict line number, lenient count
    @example(_PURE + b"bad\n" + _PURE + _PURE, 8 << 20, 16, False)
    @example(_PURE + b"bad\n" + _PURE + _PURE, 8 << 20, 16, True)
    # an empty part in an otherwise pure slice
    @example(_PURE + b"1..2.3\n.1.2.3\n1.2.3.\n" + _PURE, 8 << 20, 512 << 10, True)
    # a part above 255 in a later pure slice
    @example(_PURE + _PURE + b"3.3.3.300\n" + _PURE, 8 << 20, 16, False)
    @example(_PURE + _PURE + b"3.3.3.300\n" + _PURE, 8 << 20, 16, True)
    # lenient, a first chunk of malformed lines only: skips counted, no batch yielded
    @example(b"bad\n1.2.3\nx.y\n" + _PURE, 17, 512 << 10, True)
    # bytes at the edges of the digit range, read neither as digits nor as dots
    @example(_PURE + b"1.2.3.:\n" + _PURE, 8 << 20, 512 << 10, False)
    @example(_PURE + b"1.2.3.:\n" + _PURE, 8 << 20, 512 << 10, True)
    @example(b"1.2/3.4\n", 8 << 20, 512 << 10, False)
    @example(b"1.2/3.4\n", 8 << 20, 512 << 10, True)
    # a part above 255 in the last line of a chunk
    @example(_PURE + b"4.4.4.256\n" + _PURE, 30, 512 << 10, False)
    @example(_PURE + b"4.4.4.256\n" + _PURE, 30, 512 << 10, True)
    # eight separators whose fourth is a dot: the kernel counts lines by the LFs among them
    @example(b"1.2.3\n4.5.6.7.8\n", 8 << 20, 512 << 10, False)
    @example(b"1.2.3\n4.5.6.7.8\n", 8 << 20, 512 << 10, True)
    # minimum-length lines only: the records fill the chunk's array to its bound
    @example(b"0.0.0.0\n" * 64, 8, 512 << 10, False)
    @example(b"0.0.0.0\n" * 64, 8 << 20, 512 << 10, False)
    @example(b"0.0.0.0\r\n" * 64, 8 << 20, 512 << 10, False)
    # a chunk read that ends exactly on an LF: its readline takes the whole next line
    @example(_PURE * 3, 8, 512 << 10, False)
    @example(_PURE * 3, 20, 16, False)
    # a line longer than the chunk, strict and lenient
    @example(_PURE + b"1.2.3.4 " + b"x" * 40 + b"\n" + _PURE, 8, 16, False)
    @example(_PURE + b"1.2.3.400 " + b"x" * 40 + b"\n" + _PURE, 3, 16, True)
    # an unterminated last record longer than the chunk
    @example(_PURE + b"123.123.123.123 " + b"x" * 20, 5, 16, False)
    @example(_PURE + b"123.123.123.1234" + b"x" * 20, 5, 16, True)
    # a file whose last byte is a lone CR, read with the chunk or by its readline
    @example(b"1.2.3.4\n5.6.7.8\r", 16, 512 << 10, False)
    @example(b"1.2.3.4\n5.6.7.8\r", 15, 512 << 10, False)
    @example(_PURE + b"\r", 3, 16, True)
    def test_vectorized_matches_per_line(self, path, data, chunk_bytes, slice_bytes, lenient):
        path.write_bytes(data)

        def decode():
            stream = open_stream(path, fmt="text", lenient=lenient)
            return read_all(stream).tolist(), stream.malformed_skipped

        with (
            mock.patch.object(model, "TEXT_CHUNK_BYTES", chunk_bytes),
            mock.patch.object(model, "TEXT_SLICE_BYTES", slice_bytes),
        ):
            got = decode_outcome(decode)
        assert got == decode_outcome(lambda: per_line_reference(data, lenient))

    def test_stray_cr_rejected_alone_and_beside_a_malformed_line(self, tmp_path):
        for data in (b"1.2\r.3.4\n", b"1.2\r.3.4\nbad\n"):
            path = tmp_path / "stray.txt"
            path.write_bytes(data)
            with pytest.raises(MalformedAddress) as caught:
                read_all(open_stream(path))
            assert caught.value.line_number == 1


def kernel_takes(data: bytes) -> bool:
    """Whether every line of ``data``, which ends in LF, is a plain dotted quad the slice kernel accepts."""
    for line in data[:-1].split(b"\n"):
        parts = line.removesuffix(b"\r").split(b".")
        if len(parts) != 4 or not all(p.isdigit() and len(p) <= 3 and int(p) <= 255 for p in parts):
            return False
    return True


@contextmanager
def declined_slices():
    """Record the bytes of every slice the text decoder hands to the per-line parser."""
    parse_lines, declined = model._parse_lines, []

    def recording_parse_lines(block, line_base, lenient):
        declined.append(bytes(block))
        return parse_lines(block, line_base, lenient)

    with mock.patch.object(model, "_parse_lines", recording_parse_lines):
        yield declined


@pytest.fixture
def arenas(monkeypatch):
    """Every kernel scratch arena the streams of one test create, in order."""
    made = []

    class RecordedScratch(model._Scratch):
        def __init__(self, capacity):
            super().__init__(capacity)
            made.append(self)

    monkeypatch.setattr(model, "_Scratch", RecordedScratch)
    return made


@pytest.fixture
def file_maps(monkeypatch):
    """Every mapping of a record file that the streams of one test make, in order."""
    made = []

    class RecordedMap(mmap.mmap):
        def __new__(cls, fileno, *args, **kwargs):
            mapping = super().__new__(cls, fileno, *args, **kwargs)
            if fileno != -1:
                made.append(mapping)
            return mapping

    monkeypatch.setattr(mmap, "mmap", RecordedMap)
    return made


class TestKernelArena:
    """One scratch arena per text stream, reused by every slice.

    Slices and chunks shrink to a few bytes, so one arena serves pure,
    declined and CRLF slices in turn, and lines outgrow it.
    """

    @property_settings(300)
    @given(
        st.lists(RECORD_BYTES, min_size=1, max_size=4),
        st.sampled_from([1, 16, 40, 64]),
        st.sampled_from([1, 8, 32, 4096]),
        st.booleans(),
    )
    # a declined slice, then pure ones: nothing leaks through the pad or the masks
    @example([b"bad\n" + _PURE, _PURE], 8, 32, False)
    @example([b"1.2.3.4 tail\n1.2.3.400\n" + _PURE], 8, 32, True)
    # CRLF slices beside LF ones
    @example([b"1.2.3.4\r\n5.6.7.8\r\n" + _PURE, b"9.9.9.9\r\n"], 9, 32, False)
    # a line longer than the arena, after and before pure slices
    @example([_PURE, b"1.2.3.4 " + b"x" * 200 + b"\n" + _PURE], 16, 32, False)
    # a strict error inside a line longer than the arena: its exact line number and text
    @example([_PURE, _PURE + b"1.2.3.256 " + b"x" * 200 + b"\n" + _PURE], 16, 32, False)
    # pure LF and CRLF chunks whose slices fit the arena: the kernel takes every slice
    @example([_PURE * 8, b"9.9.9.9\r\n10.0.0.255\r\n" * 4], 16, 4096, False)
    def test_arena_kernel_matches_per_line_parser(self, chunks, slice_bytes, capacity, lenient):
        scratch = model._Scratch(capacity)
        line_base = 0
        parse_lines = model._parse_lines
        with mock.patch.object(model, "TEXT_SLICE_BYTES", slice_bytes), declined_slices() as declined:
            for data in chunks:
                data = data if data.endswith(b"\n") else data + b"\n"
                lines = data.count(b"\n")

                def kernel():
                    chunk = bytearray(data)
                    values, seen, skipped = model._parse_text_chunk(chunk, 0, len(data), line_base, lenient, scratch)
                    return values.tolist(), seen, skipped

                def per_line():
                    values, seen, skipped = parse_lines(memoryview(data), line_base, lenient)
                    assert seen == lines
                    return values.tolist(), seen, skipped

                declined.clear()
                got = decode_outcome(kernel)
                assert got == decode_outcome(per_line)
                if len(data) <= capacity and kernel_takes(data):
                    assert declined == []
                if got[0] != "ok":
                    break
                line_base += lines
        scratch.close()
        assert scratch._map.closed

    def test_line_longer_than_the_arena_is_parsed_line_by_line(self, tmp_path, arenas):
        long_line = b"1.2.3.4 " + b"x" * 3000 + b"\n"
        data = _PURE * 4 + long_line + _PURE * 4
        path = tmp_path / "long.txt"
        path.write_bytes(data)
        with (
            mock.patch.object(model, "TEXT_CHUNK_BYTES", 64),
            mock.patch.object(model, "TEXT_SLICE_BYTES", 16),
            declined_slices() as declined,
        ):
            stream = open_stream(path)
            batches = [batch.tolist() for batch in stream.batches()]
        (arena,) = arenas
        assert [value for batch in batches for value in batch] == per_line_reference(data, False)[0]
        # only the long line's slice skipped the kernel; the arena kept its size and its one mapping
        (slice_bytes,) = declined
        assert slice_bytes.endswith(long_line)
        assert arena.capacity == 16 + 1024 and arena._map.closed

    def test_streams_read_alternately_keep_their_own_arenas(self, tmp_path, arenas, file_maps):
        paths = []
        for name, lines in (("a", _PURE * 8 + b"bad\n" + _PURE), ("b", b"9.8.7.6\r\n" * 9 + b"1.2.3.4 tail\n")):
            paths.append(tmp_path / f"{name}.txt")
            paths[-1].write_bytes(lines)
        with mock.patch.object(model, "TEXT_CHUNK_BYTES", 32), mock.patch.object(model, "TEXT_SLICE_BYTES", 8):
            streams = [open_stream(path, lenient=True).batches() for path in paths]
            got = [[], []]
            while streams[0] or streams[1]:
                for ordinal, batches in enumerate(streams):
                    batch = next(batches, None) if batches else None
                    if batch is None:
                        streams[ordinal] = None
                    else:
                        got[ordinal] += batch.tolist()
        assert got == [per_line_reference(path.read_bytes(), True)[0] for path in paths]
        assert len(arenas) == 2 and arenas[0] is not arenas[1]
        assert all(arena._map.closed for arena in arenas)
        # each stream mapped its file once, and closed it at its end
        assert len(file_maps) == 2 and all(mapping.closed for mapping in file_maps)

    def test_stream_closed_after_its_first_batch_releases_its_arena(self, tmp_path, arenas, file_maps):
        path = tmp_path / "r.txt"
        path.write_bytes(_PURE * 20)
        with mock.patch.object(model, "TEXT_CHUNK_BYTES", 32), mock.patch.object(model, "TEXT_SLICE_BYTES", 8):
            stream = open_stream(path)
            batches = stream.batches()
            first = next(batches).tolist()
            assert first == per_line_reference(_PURE * 20, False)[0][: len(first)]
            assert not arenas[0]._map.closed and not file_maps[0].closed
            batches.close()
            del batches, stream
        assert arenas[0]._map.closed and file_maps[0].closed

    def test_strict_error_in_a_later_chunk_releases_the_arena(self, tmp_path, arenas, file_maps):
        data = _PURE * 10 + b"1.2.3.4\r\n1.2.3.256\n" + _PURE
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with mock.patch.object(model, "TEXT_CHUNK_BYTES", 40), mock.patch.object(model, "TEXT_SLICE_BYTES", 16):
            stream = open_stream(path)
            with pytest.raises(OctetOutOfRange) as caught:
                read_all(stream)
        assert stream.records_read > 0
        assert (caught.value.line_number, str(caught.value)) == (22, "line 22: part '256' exceeds 255 in '1.2.3.256'")
        assert decode_outcome(lambda: per_line_reference(data, False))[1:] == (22, str(caught.value))
        assert len(arenas) == 1 and arenas[0]._map.closed
        # the traceback is still alive, and holds no view of the file's mapping
        assert len(file_maps) == 1 and file_maps[0].closed


class TestFileMapping:
    """Both formats decode from one read-only mapping of the file (text's closing is checked with its arena)."""

    def test_empty_file_is_no_record_as_text_and_a_format_error_as_binary(self, tmp_path, file_maps):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        for fmt in ("auto", "text"):
            stream = open_stream(path, fmt=fmt)
            assert list(stream.batches()) == [] and stream.records_read == 0
        with pytest.raises(BinaryFormatError, match="magic"):
            list(open_stream(path, fmt="binary").batches())
        assert file_maps == []

    def test_binary_batches_kept_past_the_stream_read_their_values(self, tmp_path, monkeypatch, file_maps):
        values = random_addresses(np.random.default_rng(105), 11_000)
        path = tmp_path / "r.bin"
        write_binary(path, values)
        monkeypatch.setattr(model, "BATCH_RECORDS", 2048)  # 8 KiB batches: every one spans released pages
        batches = list(open_stream(path).batches())
        assert [batch.size for batch in batches] == [2048] * 5 + [760]
        assert np.array_equal(np.concatenate(batches), values)
        for batch in batches:
            assert batch.dtype == np.uint32 and not batch.flags.writeable
            with pytest.raises(ValueError):
                batch[0] = 0
        # the kept views hold the mapping open past the stream's end, and read the released pages back
        (mapping,) = file_maps
        assert not mapping.closed

    def test_binary_decode_allocates_no_batch_buffer(self, tmp_path, monkeypatch):
        records = 1 << 16
        path = tmp_path / "r.bin"
        write_binary(path, np.arange(4 * records, dtype=np.uint32))
        monkeypatch.setattr(model, "BATCH_RECORDS", records)
        tracemalloc.start()
        try:
            stream = open_stream(path)
            for batch in stream.batches():
                assert batch.size == records
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stream.records_read == 4 * records
        assert peak < 4 * records, f"{peak} bytes traced while decoding {4 * records}-byte batches"


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(104)
        values = random_addresses(rng, 10_000)
        path = tmp_path / "r.bin"
        write_binary(path, values)
        assert path.read_bytes()[:4] == b"IPR1"
        stream = open_stream(path)
        assert np.array_equal(read_all(stream), values)
        assert stream.records_read == values.size

    def test_header_layout(self, tmp_path):
        path = tmp_path / "three.bin"
        write_binary(path, np.array([1, 2, 3], dtype=np.uint32))
        raw = path.read_bytes()
        assert raw[:4] == bytes([0x49, 0x50, 0x52, 0x31])
        assert int.from_bytes(raw[4:8], "little") == 3
        assert len(raw) == 8 + 3 * 4
        assert dotted(open_stream(path)) == ["0.0.0.1", "0.0.0.2", "0.0.0.3"]

    def test_explicit_format_selection(self, tmp_path):
        path = tmp_path / "b.bin"
        write_binary(path, np.array([16909060], dtype=np.uint32))
        assert dotted(open_stream(path, fmt="binary")) == ["1.2.3.4"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"IPRX" + (5).to_bytes(4, "little"))
        with pytest.raises(BinaryFormatError):
            list(open_stream(path, fmt="binary").batches())

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "cut.bin"
        path.write_bytes(b"IPR1" + (3).to_bytes(4, "little") + b"\x01\x00\x00\x00")
        with pytest.raises(BinaryFormatError):
            list(open_stream(path).batches())

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "extra.bin"
        path.write_bytes(b"IPR1" + (1).to_bytes(4, "little") + b"\x01\x00\x00\x00" + b"junk")
        with pytest.raises(BinaryFormatError):
            list(open_stream(path).batches())

    def test_empty_body(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_binary(path, np.empty(0, dtype=np.uint32))
        assert read_all(open_stream(path)).size == 0


class TestSources:
    def test_file_source_replays(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("1.1.1.1\n2.2.2.2\n")
        source = CountingSource(FileSource(path))
        first = read_all(source.open())
        second = read_all(source.open())
        assert np.array_equal(first, second)
        assert source.opens == 2

    def test_array_source_replays(self):
        values = np.array([1, 2, 3], dtype=np.uint32)
        source = CountingSource(ArraySource(values))
        assert np.array_equal(read_all(source.open()), values)
        assert np.array_equal(read_all(source.open()), values)
        assert source.opens == 2

    def test_single_use_source(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1.1.1.1\n")
        source = SingleUseSource(open_stream(path))
        read_all(source.open())
        with pytest.raises(RuntimeError, match="already been consumed"):
            source.open()


class TestRunsFrontEnd:
    """``model.runs``: each batch's aggregate in file order, inline or read ahead on a pool."""

    def test_pools_yield_the_inline_sequence(self, monkeypatch):
        rng = np.random.default_rng(411)
        values = random_addresses(rng, 200, first_octet_cap=5)[rng.integers(0, 200, 3000)]
        monkeypatch.setattr(model, "BATCH_RECORDS", 61)

        def sequence(*pool_ahead):
            return [(v.tolist(), c.tolist()) for v, c in model.runs(ArraySource(values), *pool_ahead)]

        inline = sequence()
        batches = [values[i : i + 61] for i in range(0, values.size, 61)]
        assert inline == [tuple(part.tolist() for part in model.aggregate(batch)) for batch in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the pool's aggregates finish in any order
        try:
            for threads in (2, 3):
                with ThreadPoolExecutor(threads) as pool:
                    assert sequence(pool, threads) == inline
        finally:
            sys.setswitchinterval(interval)

    def test_closing_cancels_the_queued_aggregates_and_closes_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "r.bin"
        write_binary(path, np.arange(40, dtype=np.uint32))
        monkeypatch.setattr(model, "BATCH_RECORDS", 4)
        handles = []
        monkeypatch.setattr(model, "open", lambda *args: handles.append(open(*args)) or handles[-1], raising=False)
        gate = threading.Event()
        aggregate = model.aggregate

        def gated_aggregate(batch):
            if batch[0]:  # every batch after the first waits for the gate
                gate.wait(10)
            return aggregate(batch)

        monkeypatch.setattr(model, "aggregate", gated_aggregate)
        futures = []
        with ThreadPoolExecutor(1) as pool:
            submit = pool.submit
            pool.submit = lambda *call: futures.append(submit(*call)) or futures[-1]
            batches = model.runs(FileSource(path), pool, 3)
            assert next(batches)[0].tolist() == [0, 1, 2, 3]
            batches.close()
            assert [handle.closed for handle in handles] == [True]
            # the one thread holds the second batch's aggregate, or it was cancelled; the two behind it were
            assert len(futures) == 4 and futures[0].done() and futures[2].cancelled() and futures[3].cancelled()
            gate.set()
        assert all(future.done() for future in futures)

    def test_inline_runs_start_no_thread(self, monkeypatch):
        monkeypatch.setattr(model, "BATCH_RECORDS", 2)
        threads = threading.active_count()
        seen = [threading.active_count() for _ in model.runs(ArraySource(np.arange(5, dtype=np.uint32)))]
        assert seen == [threads] * 3
