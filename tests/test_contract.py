"""The output contract, end to end: every method, worker count and file format gives the oracle's bytes.

One record set is written as LF text, CRLF text, lenient text with junk
lines and an unterminated last record, and binary. Chunks, slices and
batches shrink to a few bytes or records, so every stream is cut many
times, and every cell's rendered ``topk`` lines must equal a sort oracle's.
The record sets are shaped to meet the seams: address-ordered input (the
first batch in one octet), all 256 first octets, a single address, k at
or above the distinct count, ties at the k-th count that span tlmb
owners, ssmb sweep ranges and 512-slot tiles, and no records at all.

Strict text errors placed at a later chunk's seams must name the first bad
line in every cell, and bytes after a binary file's declared records fail
strict reads and are ignored by lenient ones.
"""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import as_lines, oracle_top_k, property_settings
from ipstat import BinaryFormatError, FileSource, MalformedAddress, from_u32, model, query, write_binary
from ipstat.bench import METHODS
from ipstat.cli import main
from ipstat.ssmb import BLOCK_SLOTS, GROUP_TILES, TILE_SLOTS, sweep_ranges

FORMATS = ("lf", "crlf", "junk", "binary")
# low-24 slots at the block's seams: tiles, tile groups, and ssmb sweep ranges for W = 2 and 3
SEAM_SLOTS = sorted(
    {0, 1, TILE_SLOTS - 1, TILE_SLOTS, GROUP_TILES * TILE_SLOTS - 1, GROUP_TILES * TILE_SLOTS, BLOCK_SLOTS - 1}
    | {lo + step for workers in (2, 3) for lo, _ in sweep_ranges(workers)[1:] for step in (-1, 0)}
)
EDGE_OCTETS = (0, 1, 127, 128, 254, 255)
JUNK = (b"bad", b"1.2.3", b"1.2.3.256", b"1.2.3.4.5", b"1..2.3", b"x.1.2.3", b"")


def cells(octets: int, fmt: str):
    """(method, workers) run on a set with ``octets`` first octets, in ``fmt``.

    An ssmb query reads its whole block once per first octet and ipmap
    reserves one per first octet, so a set with many octets runs one ssmb
    cell and no ipmap.
    """
    yield from (("tlmb", workers) for workers in (1, 2, 3, 5))
    yield "hash", 1
    if octets <= 4:
        yield from (("ssmb", workers) for workers in (1, 2, 3))
        yield "ipmap", 1
    elif fmt == "binary":
        yield "ssmb", 3


def dotted(values: np.ndarray) -> list[bytes]:
    return [str(from_u32(value)).encode() for value in values.tolist()]


def write(path, fmt: str, records: np.ndarray, rng: np.random.Generator) -> None:
    if fmt == "binary":
        write_binary(path, records)
        return
    lines = dotted(records)
    if fmt != "junk":
        path.write_bytes(b"".join(line + (b"\r\n" if fmt == "crlf" else b"\n") for line in lines))
        return
    if not lines:
        # junk lines only, the last without a line end
        path.write_bytes(b"\n".join(JUNK))
        return
    # the strongest address with a lone CR in its quad: accepting it would change the top count
    top = oracle_top_k(records, 1)[0][0]
    a, b, c, d = from_u32(top)
    lone_cr = f"{a}.{b}\r.{c}.{d}".encode()
    out = []
    for line in lines:
        if rng.random() < 0.2:
            out.append(lone_cr if rng.random() < 0.5 else JUNK[rng.integers(len(JUNK))])
        out.append(line + b" tail" if rng.random() < 0.1 else line)
    eols = rng.choice([b"\n", b"\r\n"], size=len(out))
    # the last record has no line end
    path.write_bytes(b"".join(line + eol for line, eol in zip(out[:-1], eols)) + out[-1])


def records_of(distinct: np.ndarray, counts: np.ndarray, ordered: bool, rng: np.random.Generator) -> np.ndarray:
    records = np.repeat(distinct.astype(np.uint32), counts)
    return np.sort(records) if ordered else rng.permutation(records)


@st.composite
def record_sets(draw):
    """(records, k): a few first octets, addresses at seam slots and spread at random, small counts for ties."""
    octets = draw(st.lists(st.sampled_from(EDGE_OCTETS) | st.integers(0, 255), min_size=1, max_size=3, unique=True))
    seams = draw(st.lists(st.tuples(st.sampled_from(octets), st.sampled_from(SEAM_SLOTS)), max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0, 20, 300]))
    distinct = np.unique(
        np.concatenate(
            [
                np.array([octet << 24 | slot for octet, slot in seams], dtype=np.uint64),
                rng.choice(octets, spread).astype(np.uint64) << 24 | rng.integers(0, BLOCK_SLOTS, spread, np.uint64),
                np.array([octets[0] << 24], dtype=np.uint64),
            ]
        )
    )
    counts = rng.integers(1, draw(st.integers(1, 4)) + 1, distinct.size)
    records = records_of(distinct, counts, draw(st.booleans()), rng)
    return records, draw(st.integers(1, distinct.size + 3))


def _all_octets():
    rng = np.random.default_rng(7)
    distinct = np.arange(256, dtype=np.uint64) << 24 | rng.integers(0, BLOCK_SLOTS, 256, np.uint64)
    return records_of(distinct, rng.integers(1, 4, 256), False, rng), 40


def _ties_across_seams():
    octets = np.array([0, 127, 128, 255], dtype=np.uint64)
    distinct = (octets[:, None] << 24 | np.array(SEAM_SLOTS, dtype=np.uint64)).ravel()
    counts = np.full(distinct.size, 2)
    counts[[5, 20, 33]] = 5
    # the k-th count falls inside the tie of twos, which spans octets, ranges and tiles
    return records_of(distinct, counts, False, np.random.default_rng(8)), 3 + distinct.size // 3


def _address_ordered():
    # the first batch lies in octet 0, whose block holds over GROUP_TILES live tiles; k takes them all
    rng = np.random.default_rng(9)
    octets = rng.choice(np.array([0, 0, 3, 200], dtype=np.uint64), 400)
    distinct = np.unique(octets << 24 | rng.integers(0, BLOCK_SLOTS, octets.size, np.uint64))
    return records_of(distinct, rng.integers(1, 4, distinct.size), True, rng), distinct.size


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@pytest.fixture
def shrunk(monkeypatch):
    """Shrink the text chunk and slice to the given sizes, and batches to 5 records."""

    def shrink(chunk_bytes: int, slice_bytes: int) -> None:
        monkeypatch.setattr(model, "TEXT_CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(model, "TEXT_SLICE_BYTES", slice_bytes)
        monkeypatch.setattr(model, "BATCH_RECORDS", 5)

    return shrink


@property_settings(6)
@given(record_sets(), st.sampled_from([24, 64, 256]), st.sampled_from([8, 40, 128]), st.sampled_from([5, 64]))
@example(_all_octets(), 256, 40, 64)
@example(_ties_across_seams(), 64, 40, 5)
@example(_address_ordered(), 256, 128, 64)
# a single address, k past the distinct count
@example((np.full(9, 0xFFFFFFFF, dtype=np.uint32), 3), 24, 8, 5)
# no records: the junk file holds junk lines only
@example((np.empty(0, dtype=np.uint32), 3), 24, 8, 5)
def test_every_cell_renders_the_oracle_lines(folder, record_set, chunk_bytes, slice_bytes, batch_records):
    records, k = record_set
    octets = np.unique(records >> np.uint32(24)).size
    expected = [f"{from_u32(address)}\t{count}" for address, count in oracle_top_k(records, k)]
    rng = np.random.default_rng(records.size)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "TEXT_CHUNK_BYTES", chunk_bytes)
        patch.setattr(model, "TEXT_SLICE_BYTES", slice_bytes)
        patch.setattr(model, "BATCH_RECORDS", batch_records)
        for fmt in FORMATS:
            path = folder / f"records.{fmt}"
            write(path, fmt, records, rng)
            source = FileSource(path, lenient=fmt == "junk")
            for method, workers in cells(octets, fmt):
                entries, _ = query(source, method, k, workers)
                assert as_lines(entries) == expected, (fmt, method, workers)


BAD = b"1.2.3.256"


def seams(data: bytes, chunk_bytes: int, slice_bytes: int) -> dict[str, int]:
    """0-based lines of ``data`` where the text reader cuts its second chunk.

    A chunk is ``chunk_bytes`` read at the front, then the rest of its last
    line (the readline tail); a slice ends at the first LF that makes it
    ``slice_bytes`` long or longer.
    """
    starts = [0] + [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    start = data.index(b"\n", chunk_bytes) + 1
    offsets = {
        "chunk start": start,
        "later slice": data.index(b"\n", start + slice_bytes - 1) + 1,
        "readline tail": start + chunk_bytes,
        "last record": len(data) - 1,
    }
    return {name: bisect_right(starts, offset) - 1 for name, offset in offsets.items()}


@pytest.mark.parametrize("eol", [b"\n", b"\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("chunk_bytes, slice_bytes", [(24, 8), (64, 40), (256, 128)])
def test_strict_errors_name_the_first_bad_line(folder, shrunk, eol, chunk_bytes, slice_bytes):
    shrunk(chunk_bytes, slice_bytes)
    rng = np.random.default_rng(chunk_bytes)
    # 9-byte records, the length of BAD, so placing it moves no seam
    lines = [f"{octet}.2.3.{part}".encode() for octet, part in zip(rng.integers(1, 5, 400), rng.integers(100, 256, 400))]
    at = seams(eol.join(lines), chunk_bytes, slice_bytes)
    assert len(set(at.values())) == 4 and at["chunk start"] < at["later slice"] < at["readline tail"], at
    with pytest.raises(MalformedAddress) as parsed:
        model.parse_dotted(BAD.decode())
    message = str(parsed.value)
    placements = [[line] for line in at.values()] + [
        [at["chunk start"], at["last record"]],
        [at["later slice"], at["later slice"] + 1],
        [at["readline tail"], at["last record"]],
    ]
    path = folder / "strict.txt"
    for bad in placements:
        # the last record has no line end
        path.write_bytes(eol.join(BAD if index in bad else line for index, line in enumerate(lines)))
        for method, workers in cells(4, "text"):
            with pytest.raises(MalformedAddress) as err:
                query(FileSource(path), method, 3, workers)
            cell = (bad, method, workers)
            assert err.value.line_number == bad[0] + 1, cell
            assert str(err.value) == f"line {bad[0] + 1}: {message}", cell


@pytest.mark.parametrize("method", METHODS)
def test_topk_on_an_empty_file_prints_nothing(tmp_path, capsys, method):
    path = tmp_path / "empty.txt"
    path.write_bytes(b"")
    assert main(["topk", "--method", method, "--k", "3", "--input", str(path)]) == 0
    assert capsys.readouterr() == ("", "")


def test_binary_trailing_bytes_fail_strict_and_are_ignored_lenient(folder, shrunk):
    shrunk(24, 8)
    records = np.array([0x01020304] * 3 + [0x01020305] * 2 + [0x04000000] * 7, dtype=np.uint32)
    path = folder / "trailing.bin"
    write_binary(path, records)
    with open(path, "ab") as handle:
        handle.write(b"\x05\x06\x07\x08\x09")
    expected = [f"{from_u32(address)}\t{count}" for address, count in oracle_top_k(records, 2)]
    for method, workers in cells(2, "binary"):
        with pytest.raises(BinaryFormatError, match="trailing bytes after the declared record count"):
            query(FileSource(path), method, 2, workers)
        entries, _ = query(FileSource(path, lenient=True), method, 2, workers)
        assert as_lines(entries) == expected, (method, workers)
