"""Addresses, text/binary record files, and stream sources."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import property_settings, random_addresses
from ipstat import model
from ipstat import (
    ArraySource,
    BinaryFormatError,
    FileSource,
    IPv4Address,
    MalformedAddress,
    OctetOutOfRange,
    SingleUseSource,
    SourceNotReplayable,
    format_dotted,
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
            assert parse_dotted(format_dotted(addr)) == addr

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
    return [str(from_u32(value)) for value in stream.read_all().tolist()]


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
            open_stream(path).read_all()
        assert "line 3" in str(err.value)

    def test_strict_short_line_one(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1.1.1\n")
        with pytest.raises(MalformedAddress) as err:
            open_stream(path).read_all()
        assert "line 1" in str(err.value)

    def test_strict_octet_out_of_range_in_clean_file(self, tmp_path):
        # the all-digits file exercises the vectorized path's range check
        path = tmp_path / "range.txt"
        path.write_text("1.1.1.1\n2.2.2.300\n")
        with pytest.raises(OctetOutOfRange) as err:
            open_stream(path).read_all()
        assert "line 2" in str(err.value)

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
        back = open_stream(path).read_all()
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
        return type(exc), exc.line_number


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
_line = st.one_of(_dotted, _dotted, _dotted, _gappy, st.text("0123456789.\r x", max_size=12), st.just(""))
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
    def test_vectorized_matches_per_line(self, path, data, chunk_bytes, slice_bytes, lenient):
        path.write_bytes(data)

        def decode():
            stream = open_stream(path, fmt="text", lenient=lenient)
            return stream.read_all().tolist(), stream.malformed_skipped

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
                open_stream(path).read_all()
            assert caught.value.line_number == 1


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(104)
        values = random_addresses(rng, 10_000)
        path = tmp_path / "r.bin"
        write_binary(path, values)
        assert path.read_bytes()[:4] == b"IPR1"
        stream = open_stream(path)
        assert np.array_equal(stream.read_all(), values)
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
        assert open_stream(path).read_all().size == 0


class TestSources:
    def test_file_source_replays(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("1.1.1.1\n2.2.2.2\n")
        source = FileSource(path)
        assert source.replayable
        first = source.open().read_all()
        second = source.open().read_all()
        assert np.array_equal(first, second)
        assert source.replays == 2

    def test_array_source_replays(self):
        values = np.array([1, 2, 3], dtype=np.uint32)
        source = ArraySource(values)
        assert np.array_equal(source.open().read_all(), values)
        assert np.array_equal(source.open().read_all(), values)
        assert source.replays == 2

    def test_single_use_source(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1.1.1.1\n")
        source = SingleUseSource(open_stream(path))
        assert not source.replayable
        source.open().read_all()
        with pytest.raises(SourceNotReplayable):
            source.open()
