"""Subset-scan counter: pass structure, zeroing, constant memory, the spill."""

import os
import sys
import tempfile
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ipstat.model
from conftest import SingleUseSource, as_pairs, oracle_top_k, property_settings, random_addresses
from ipstat import (
    ArraySource,
    FileSource,
    MalformedAddress,
    PartitionPlan,
    SsmbCounter,
    TlmbCounter,
    discover_subsets,
    from_u32,
    open_stream,
    parse_dotted,
    query,
    run_parallel,
    to_u32,
)
from ipstat.ssmb import RUN, OctetSpill, spilled

BLOCK_BYTES = 134_217_728


def addresses_of(*texts: str) -> np.ndarray:
    return np.array([to_u32(parse_dotted(t)) for t in texts], dtype=np.uint32)


class TestDiscovery:
    def test_single_octet(self):
        source = ArraySource(addresses_of("7.1.1.1", "7.2.2.2", "7.3.3.3"))
        assert discover_subsets(source) == [7]

    def test_ascending_distinct(self):
        source = ArraySource(addresses_of("9.0.0.1", "7.0.0.1", "9.0.0.2", "200.1.2.3"))
        assert discover_subsets(source) == [7, 9, 200]

    def test_empty(self):
        assert discover_subsets(ArraySource(np.empty(0, dtype=np.uint32))) == []


class TestTopK:
    def test_single_subset_case(self):
        counter = SsmbCounter()
        entries = counter.top_k(ArraySource(addresses_of("1.2.3.4", "1.2.3.4", "1.2.3.5")), 1)
        assert as_pairs(entries) == [(to_u32(parse_dotted("1.2.3.4")), 2)]
        assert counter.stats()["q"] == 1
        assert counter.stats()["passes"] == 1

    def test_two_subset_case(self):
        counter = SsmbCounter()
        source = ArraySource(addresses_of(*["10.0.0.1"] * 3, *["20.0.0.2"] * 5))
        entries = counter.top_k(source, 2)
        assert as_pairs(entries) == [
            (to_u32(parse_dotted("20.0.0.2")), 5),
            (to_u32(parse_dotted("10.0.0.1")), 3),
        ]
        assert counter.stats()["q"] == 2
        assert counter.stats()["passes"] == 2

    def test_matches_tlmb_on_random_input(self):
        rng = np.random.default_rng(401)
        ssmb = SsmbCounter()
        for trial in range(10):
            values = random_addresses(rng, 10_000, first_octet_cap=int(rng.integers(1, 9)))
            distinct = rng.choice(values, size=500)
            values = rng.choice(distinct, size=10_000).astype(np.uint32)
            source = ArraySource(values)
            tlmb = TlmbCounter()
            tlmb.ingest_many(values)
            for k in (1, 10, 100):
                assert ssmb.top_k(source, k) == tlmb.top_k(k), f"trial {trial} k={k}"

    def test_source_read_once(self):
        rng = np.random.default_rng(402)
        values = random_addresses(rng, 2000, first_octet_cap=5)
        source = ArraySource(values)
        counter = SsmbCounter()
        counter.top_k(source, 3)
        q = counter.stats()["q"]
        assert q == np.unique(values >> np.uint32(24)).size
        assert source.replays == 1

    def test_explicit_octets_read_source_once(self):
        rng = np.random.default_rng(403)
        values = random_addresses(rng, 2000, first_octet_cap=3)
        source = ArraySource(values)
        octets = discover_subsets(source)
        source.replays = 0
        counter = SsmbCounter()
        entries = counter.top_k(source, 5, octets=octets)
        assert source.replays == 1
        assert as_pairs(entries) == oracle_top_k(values, 5)

    def test_subset_restriction_counts_only_matching(self):
        values = addresses_of("5.0.0.1", "5.0.0.1", "6.0.0.1")
        counter = SsmbCounter()
        entries = counter.top_k(ArraySource(values), 5, octets=[5])
        assert as_pairs(entries) == [(to_u32(parse_dotted("5.0.0.1")), 2)]
        assert counter.stats()["records_ingested"] == 2

    def test_empty_source(self):
        assert query(ArraySource(np.empty(0, dtype=np.uint32)), "ssmb", 10)[0] == []


class TestSharedBlockReuse:
    def test_same_low_octets_under_different_first_octets(self):
        # if zeroing between passes broke, 9.1.2.3 would inherit 8.1.2.3's count
        values = addresses_of(*["8.1.2.3"] * 4, "9.1.2.3")
        counter = SsmbCounter()
        entries = counter.top_k(ArraySource(values), 2)
        assert as_pairs(entries) == [
            (to_u32(parse_dotted("8.1.2.3")), 4),
            (to_u32(parse_dotted("9.1.2.3")), 1),
        ]

    def test_pass_hook_reports_conserved_slot_sums(self):
        rng = np.random.default_rng(404)
        values = random_addresses(rng, 5000, first_octet_cap=4)
        seen = []
        counter = SsmbCounter()
        counter.top_k(ArraySource(values), 10, pass_hook=lambda octet, stats: seen.append(stats))
        assert [s["octet"] for s in seen] == discover_subsets(ArraySource(values))
        for stats in seen:
            # slot sum equals the pass's record count only if the block
            # started the pass all-zero
            assert stats["slot_sum"] == stats["pass_records"]
            assert stats["tracked_bytes"] == BLOCK_BYTES
        per_octet = {
            int(octet): int(count)
            for octet, count in zip(*np.unique(values >> np.uint32(24), return_counts=True))
        }
        assert {s["octet"]: s["pass_records"] for s in seen} == per_octet

    def test_counter_instance_is_reusable(self):
        rng = np.random.default_rng(405)
        counter = SsmbCounter()
        for trial in range(3):
            values = random_addresses(rng, 3000, first_octet_cap=3)
            entries = counter.top_k(ArraySource(values), 10)
            assert as_pairs(entries) == oracle_top_k(values, 10), f"trial {trial}"


class TestMemoryAndErrors:
    def test_tracked_bytes_constant(self):
        rng = np.random.default_rng(406)
        counter = SsmbCounter()
        for n in (100, 10_000, 100_000):
            counter.top_k(ArraySource(random_addresses(rng, n, first_octet_cap=3)), 10)
            assert counter.stats()["tracked_bytes"] == BLOCK_BYTES

    def test_single_use_source_multi_pass(self, tmp_path):
        values = addresses_of("1.0.0.1", "2.0.0.2", "2.0.0.2", "9.1.1.1", "1.0.0.1", "1.0.0.1")
        path = tmp_path / "three_octets.txt"
        path.write_text("".join(f"{from_u32(int(v))}\n" for v in values))
        counter = SsmbCounter()
        entries = counter.top_k(SingleUseSource(open_stream(path)), 10)
        assert as_pairs(entries) == oracle_top_k(values, 10)
        assert counter.stats()["passes"] == 3

    def test_single_use_source_fine_for_single_pass(self, tmp_path):
        path = tmp_path / "one_octet.txt"
        path.write_text("1.0.0.1\n1.0.0.1\n1.0.0.2\n")
        entries = SsmbCounter().top_k(SingleUseSource(open_stream(path)), 1, octets=[1])
        assert as_pairs(entries) == [(to_u32(parse_dotted("1.0.0.1")), 2)]

    def test_rejects_bad_octets(self):
        with pytest.raises(ValueError):
            SsmbCounter().top_k(ArraySource(np.empty(0, dtype=np.uint32)), 1, octets=[300])


# few first octets and low parts, so addresses repeat within and across batches
_spill_addresses = st.builds(
    lambda a, low: (a << 24) | low,
    st.sampled_from([0, 3, 7, 255]),
    st.one_of(st.integers(0, 40), st.just(0xFFFFFF)),
)


@pytest.fixture(scope="module")
def shared_counter():
    # one counter for every example: the shared block is reused across queries by design
    return SsmbCounter()


@property_settings(60)
@given(
    records=st.lists(_spill_addresses, max_size=300),
    batch_records=st.integers(1, 50),
    octets=st.none() | st.lists(st.sampled_from([0, 1, 3, 7, 128, 255]), max_size=5),
    k=st.integers(1, 20),
    prebuilt=st.booleans(),
)
def test_spill_backed_top_k_matches_oracle(shared_counter, records, batch_records, octets, k, prebuilt):
    values = np.array(records, dtype=np.uint32)
    source = ArraySource(values)
    planned = set(records if octets is None else (v for v in records if v >> 24 in octets))
    planned_records = [v for v in records if v in planned]
    passes = {}

    def hook(octet, stats):
        assert stats["slot_sum"] == stats["pass_records"]
        passes[octet] = stats["pass_records"]

    with mock.patch.object(ipstat.model, "BATCH_RECORDS", batch_records):
        if prebuilt:
            with spilled(source) as spill:
                entries = shared_counter.top_k(spill, k, octets=octets, pass_hook=hook)
        else:
            entries = shared_counter.top_k(source, k, octets=octets, pass_hook=hook)
    stats = shared_counter.stats()
    assert as_pairs(entries) == oracle_top_k(planned_records, k)
    assert stats["records_ingested"] == len(planned_records)
    expected_passes = sorted({v >> 24 for v in records}) if octets is None else sorted(set(octets))
    assert sorted(passes) == expected_passes
    assert passes == {o: sum(1 for v in planned_records if v >> 24 == o) for o in expected_passes}
    batches = [records[i : i + batch_records] for i in range(0, len(records), batch_records)]
    assert stats["spill_bytes"] == RUN.itemsize * sum(len(set(b)) for b in batches)
    assert stats["tracked_bytes"] == BLOCK_BYTES
    assert source.replays == 1


class TestSpill:
    def test_runs_filed_by_octet_across_batches(self, monkeypatch):
        values = addresses_of("7.0.0.1", "9.0.0.2", "7.0.0.1", "7.0.0.3", "9.0.0.2")
        monkeypatch.setattr(ipstat.model, "BATCH_RECORDS", 2)
        with spilled(ArraySource(values)) as spill:
            assert spill.octets == [7, 9]
            runs = {octet: Counter() for octet in spill.octets}
            for octet in spill.octets:
                for slots, counts in spill.runs(octet):
                    assert np.unique(slots).size == slots.size
                    runs[octet].update(dict(zip(slots.tolist(), counts.tolist())))
            assert runs == {7: Counter({1: 2, 3: 1}), 9: Counter({2: 2})}
            assert list(spill.runs(8)) == []

    def test_workers_share_one_spill(self, monkeypatch):
        rng = np.random.default_rng(407)
        values = random_addresses(rng, 4000, first_octet_cap=6)
        source = ArraySource(values)
        monkeypatch.setattr(ipstat.model, "BATCH_RECORDS", 97)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers' reads of the shared spill
        try:
            with spilled(source) as spill:
                plan = PartitionPlan.by_first_octets(spill.octets, 3)
                entries, results = run_parallel(spill, plan, 10)
        finally:
            sys.setswitchinterval(interval)
        assert as_pairs(entries) == oracle_top_k(values, 10)
        assert sum(r.stats["records_ingested"] for r in results) == values.size
        assert source.replays == 1
        assert len({r.stats["spill_bytes"] for r in results}) == 1

    def test_malformed_later_chunk_closes_spill(self, tmp_path, monkeypatch):
        data = tmp_path / "bad.txt"
        data.write_text("1.0.0.1\n2.0.0.2\n" * 50 + "3.0.0.x\n")
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        monkeypatch.setattr(ipstat.model, "TEXT_CHUNK_BYTES", 32)
        monkeypatch.setenv("TMPDIR", str(spill_dir))
        monkeypatch.setattr(tempfile, "tempdir", None)
        opened = []
        make = tempfile.TemporaryFile

        def spy(*args, **kwargs):
            opened.append((tempfile.gettempdir(), make(*args, **kwargs)))
            return opened[-1][1]

        appended = []
        append = OctetSpill.append
        monkeypatch.setattr(tempfile, "TemporaryFile", spy)
        monkeypatch.setattr(OctetSpill, "append", lambda self, batch: appended.append(append(self, batch)))
        with pytest.raises(MalformedAddress, match="line 101"):
            SsmbCounter().top_k(FileSource(data), 5)
        assert len(appended) > 1  # earlier chunks were spilled before the bad one
        assert [(where, handle.closed) for where, handle in opened] == [(str(spill_dir), True)]
        assert os.listdir(spill_dir) == []
