"""Dataset generator: determinism, exact shape, ground truth."""

import re

import numpy as np
import pytest

from conftest import oracle_top_k, read_all
from ipstat import (
    DatasetSpec,
    GroundTruthMismatch,
    InvalidSpec,
    build_dataset,
    from_u32,
    generate,
    load_truth,
    open_stream,
    verify,
)
from ipstat.datagen import _format_text, write_truth


class TestSpecValidation:
    def test_valid_spec(self):
        spec = DatasetSpec(records=100, distinct=10, seed=1)
        assert spec.distribution == "uniform"

    def test_distinct_exceeds_records(self):
        with pytest.raises(InvalidSpec, match="distinct exceeds records"):
            DatasetSpec(records=10, distinct=20, seed=1)

    def test_bad_values(self):
        with pytest.raises(InvalidSpec):
            DatasetSpec(records=0, distinct=1, seed=1)
        with pytest.raises(InvalidSpec):
            DatasetSpec(records=10, distinct=0, seed=1)
        with pytest.raises(InvalidSpec):
            DatasetSpec(records=10, distinct=5, seed=1, first_octet_cap=0)
        with pytest.raises(InvalidSpec):
            DatasetSpec(records=10, distinct=5, seed=1, distribution="normal")
        with pytest.raises(InvalidSpec):
            DatasetSpec(records=10, distinct=5, seed=1, distribution="zipf", zipf_exponent=0)
        with pytest.raises(InvalidSpec):
            DatasetSpec(records=10, distinct=5, seed=1, file_format="csv")
        with pytest.raises(InvalidSpec):
            DatasetSpec(records=10, distinct=5, seed=-3)

    def test_distinct_must_fit_under_cap(self):
        with pytest.raises(InvalidSpec):
            DatasetSpec(records=2**25, distinct=2**24 + 1, seed=1, first_octet_cap=1)

    def test_parse_distribution(self):
        assert DatasetSpec.parse_distribution("uniform") == ("uniform", 1.0)
        assert DatasetSpec.parse_distribution("zipf:1.5") == ("zipf", 1.5)
        assert DatasetSpec.parse_distribution("zipf") == ("zipf", 1.0)
        with pytest.raises(InvalidSpec):
            DatasetSpec.parse_distribution("zipf:abc")
        with pytest.raises(InvalidSpec):
            DatasetSpec.parse_distribution("pareto")


class TestBuildDataset:
    def test_exact_n_and_d(self):
        rng = np.random.default_rng(700)
        for trial in range(25):
            d = int(rng.integers(1, 300))
            n = d + int(rng.integers(0, 2000))
            spec = DatasetSpec(records=n, distinct=d, seed=int(rng.integers(0, 2**32)),
                               first_octet_cap=int(rng.integers(1, 257)))
            records, distinct, counts = build_dataset(spec)
            assert records.size == n, f"trial {trial}"
            assert np.unique(records).size == d
            assert distinct.size == d
            assert counts.sum() == n
            assert counts.min() >= 1

    def test_n_equals_d_every_address_once(self):
        records, _, counts = build_dataset(DatasetSpec(records=10, distinct=10, seed=5))
        assert np.unique(records).size == 10
        assert counts.tolist() == [1] * 10

    def test_distinct_set_depends_only_on_seed_d_cap(self):
        base = DatasetSpec(records=10_000, distinct=500, seed=9, first_octet_cap=8)
        bigger = DatasetSpec(records=100_000, distinct=500, seed=9, first_octet_cap=8)
        _, distinct_a, _ = build_dataset(base)
        _, distinct_b, _ = build_dataset(bigger)
        assert np.array_equal(np.sort(distinct_a), np.sort(distinct_b))

    def test_first_octet_cap_respected(self):
        records, _, _ = build_dataset(DatasetSpec(records=5000, distinct=100, seed=2, first_octet_cap=3))
        assert int((records >> np.uint32(24)).max()) < 3

    def test_zipf_is_more_skewed_than_uniform(self):
        kwargs = dict(records=50_000, distinct=1000, seed=3)
        _, _, uniform_counts = build_dataset(DatasetSpec(**kwargs))
        _, _, zipf_counts = build_dataset(DatasetSpec(**kwargs, distribution="zipf", zipf_exponent=1.2))
        assert zipf_counts.max() > 3 * uniform_counts.max()

    def test_mean_multiplicity_is_n_over_d(self):
        _, _, counts = build_dataset(DatasetSpec(records=50_000, distinct=500, seed=4))
        assert counts.sum() / counts.size == 100.0


class TestGenerateAndVerify:
    def test_text_round_trip_and_report(self, tmp_path):
        spec = DatasetSpec(records=20_000, distinct=400, seed=11, first_octet_cap=4)
        out = tmp_path / "ds.txt"
        report = generate(spec, out)
        assert report["written_records"] == 20_000
        assert report["distinct_written"] == 400
        assert report["ground_truth_path"] == str(tmp_path / "ds.txt.truth")
        stream = open_stream(out)
        values = read_all(stream)
        assert values.size == 20_000
        assert np.unique(values).size == 400

    def test_text_lines_match_from_u32(self):
        # each position runs through a permutation of 0-255, so every octet value lands in every position
        octets = np.arange(256, dtype=np.uint32)
        values = (octets << 24) | ((255 - octets) << 16) | (((octets + 85) % 256) << 8) | (octets * 3 % 256)
        values = np.concatenate([values, np.array([0, 0xFFFFFFFF], dtype=np.uint32)])
        assert _format_text(values) == "".join(f"{from_u32(v)}\n" for v in values.tolist()).encode()
        assert _format_text(values[:0]) == b""

    def test_same_seed_same_bytes(self, tmp_path):
        spec = DatasetSpec(records=5000, distinct=100, seed=77)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        generate(spec, a)
        generate(spec, b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.txt.truth").read_bytes() == (tmp_path / "b.txt.truth").read_bytes()

    def test_different_seed_different_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        generate(DatasetSpec(records=5000, distinct=100, seed=1), a)
        generate(DatasetSpec(records=5000, distinct=100, seed=2), b)
        assert a.read_bytes() != b.read_bytes()

    def test_binary_format(self, tmp_path):
        spec = DatasetSpec(records=3000, distinct=50, seed=13, file_format="binary")
        out = tmp_path / "ds.bin"
        generate(spec, out)
        assert out.read_bytes()[:4] == b"IPR1"
        assert read_all(open_stream(out)).size == 3000

    def test_truth_sidecar_ordering_and_totals(self, tmp_path):
        spec = DatasetSpec(records=10_000, distinct=200, seed=17)
        out = tmp_path / "ds.txt"
        generate(spec, out)
        truth = load_truth(tmp_path / "ds.txt.truth")
        assert len(truth) == 200
        assert sum(count for _, count in truth) == 10_000
        keys = [(-count, value) for value, count in truth]
        assert keys == sorted(keys)
        # sidecar equals an independent recount of the emitted file
        values = read_all(open_stream(out))
        assert truth[:50] == oracle_top_k(values, 50)

    def test_verify_accepts_fresh_pair(self, tmp_path):
        out = tmp_path / "ds.txt"
        generate(DatasetSpec(records=50_000, distinct=500, seed=19), out)
        report = verify(out, tmp_path / "ds.txt.truth")
        assert report["records"] == 50_000
        assert report["distinct"] == 500
        assert report["mean_multiplicity"] == 100.0

    def test_verify_catches_truncation(self, tmp_path):
        out = tmp_path / "ds.txt"
        generate(DatasetSpec(records=2000, distinct=50, seed=23), out)
        lines = out.read_bytes().splitlines(keepends=True)
        out.write_bytes(b"".join(lines[:-7]))
        with pytest.raises(GroundTruthMismatch):
            verify(out, tmp_path / "ds.txt.truth")

    def test_verify_catches_count_drift(self, tmp_path):
        out = tmp_path / "ds.txt"
        generate(DatasetSpec(records=2000, distinct=50, seed=29), out)
        truth_path = tmp_path / "ds.txt.truth"
        first, rest = truth_path.read_text().split("\n", 1)
        dotted, count = first.split("\t")
        truth_path.write_text(f"{dotted}\t{int(count) + 1}\n{rest}")
        with pytest.raises(GroundTruthMismatch) as err:
            verify(out, truth_path)
        assert dotted in str(err.value)

    def test_load_truth_rejects_garbage(self, tmp_path):
        bad = tmp_path / "junk.truth"
        for text, line in [
            ("1.2.3.4\tfive\n", 1),
            # a count below 1
            ("1.1.1.1\t2\n2.2.2.2\t1\n3.3.3.3\t0\n", 3),
            # ascending counts
            ("2.2.2.2\t1\n1.1.1.1\t2\n", 2),
            # a tie with the larger address first, and a repeated line
            ("2.2.2.2\t5\n1.1.1.1\t5\n", 2),
            ("1.1.1.1\t5\n1.1.1.1\t5\n", 2),
            # a line that is not UTF-8
            (b"1.1.1.1\t5\n\xff\xfe\t3\n", 2),
        ]:
            bad.write_bytes(text if isinstance(text, bytes) else text.encode())
            with pytest.raises(GroundTruthMismatch, match=rf"{re.escape(str(bad))}: .*line {line}\b"):
                load_truth(bad)

    def test_write_truth_tie_order(self, tmp_path):
        path = tmp_path / "ties.truth"
        write_truth(path, np.array([500, 100, 300], dtype=np.uint32), np.array([2, 2, 9], dtype=np.int64))
        assert path.read_text().splitlines() == [
            f"{from_u32(300)}\t9",
            f"{from_u32(100)}\t2",
            f"{from_u32(500)}\t2",
        ]
