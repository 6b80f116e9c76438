"""Command-line surface: subcommands, output bytes, exit codes."""

import errno
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from ipstat import CountOverflow, IpMapCounter, TlmbCounter, bench
from ipstat.cli import main


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def small_file(tmp_path):
    path = tmp_path / "small.txt"
    path.write_text("1.2.3.4\n1.2.3.4\n1.2.3.5\n")
    return path


class TestGen:
    def test_generates_with_sidecar(self, tmp_path, capsys):
        out = tmp_path / "d1.txt"
        code = run_cli("gen", "--records", "50000", "--distinct", "500", "--seed", "1", "--out", str(out))
        assert code == 0
        assert capsys.readouterr().out == f"generated n=50000 d=500 file={out}\n"
        assert out.exists()
        assert (tmp_path / "d1.txt.truth").exists()

    def test_distinct_exceeding_records_fails(self, tmp_path, capsys):
        code = run_cli("gen", "--records", "10", "--distinct", "20", "--seed", "1",
                       "--out", str(tmp_path / "x.txt"))
        assert code == 1
        assert "distinct exceeds records" in capsys.readouterr().err

    def test_zipf_and_binary_flags(self, tmp_path):
        out = tmp_path / "z.bin"
        code = run_cli("gen", "--records", "1000", "--distinct", "20", "--seed", "2",
                       "--dist", "zipf:1.3", "--first-octet-cap", "2", "--format", "binary",
                       "--out", str(out))
        assert code == 0
        assert out.read_bytes()[:4] == b"IPR1"

    def test_bad_distribution_fails(self, tmp_path, capsys):
        code = run_cli("gen", "--records", "10", "--distinct", "2", "--seed", "1",
                       "--dist", "pareto", "--out", str(tmp_path / "x.txt"))
        assert code == 1
        assert "distribution" in capsys.readouterr().err

    def test_unwritable_destination_fails(self, tmp_path, capsys):
        code = run_cli("gen", "--records", "10", "--distinct", "2", "--seed", "1",
                       "--out", str(tmp_path / "missing-dir" / "x.txt"))
        assert code == 2


class TestTopk:
    def test_known_case(self, small_file, capsys):
        code = run_cli("topk", "--method", "tlmb", "--k", "1", "--input", str(small_file))
        assert code == 0
        assert capsys.readouterr().out == "1.2.3.4\t2\n"

    def test_methods_print_identical_bytes(self, small_file, capsys):
        outputs = []
        for method in ("tlmb", "ssmb", "hash", "ipmap"):
            assert run_cli("topk", "--method", method, "--k", "2", "--input", str(small_file)) == 0
            outputs.append(capsys.readouterr().out)
        assert len(set(outputs)) == 1
        assert outputs[0] == "1.2.3.4\t2\n1.2.3.5\t1\n"

    def test_workers_output_identical_to_serial(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        run_cli("gen", "--records", "20000", "--distinct", "300", "--seed", "7", "--out", str(data))
        capsys.readouterr()
        outputs = []
        for args in (["--workers", "1"], ["--workers", "4"]):
            assert run_cli("topk", "--method", "tlmb", "--k", "10", "--input", str(data), *args) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 10

    def test_ssmb_workers_keep_exit_codes(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        run_cli("gen", "--records", "20000", "--distinct", "300", "--seed", "7",
                "--first-octet-cap", "3", "--out", str(data))
        capsys.readouterr()
        outputs = []
        # three sweep ranges are uneven
        for workers in ("1", "3"):
            assert run_cli("topk", "--method", "ssmb", "--k", "10", "--input", str(data), "--workers", workers) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 10
        bad = tmp_path / "bad.txt"
        bad.write_text("1.2.3.4\n999.1.1.1\n")
        assert run_cli("topk", "--method", "ssmb", "--k", "1", "--input", str(bad), "--workers", "3") == 2
        assert "line 2" in capsys.readouterr().err
        with pytest.raises(SystemExit) as err:
            run_cli("topk", "--method", "ssmb", "--k", "1", "--input", str(data), "--workers", "0")
        assert err.value.code == 1

    def test_binary_input(self, tmp_path, capsys):
        data = tmp_path / "d.bin"
        run_cli("gen", "--records", "500", "--distinct", "5", "--seed", "3",
                "--format", "binary", "--out", str(data))
        capsys.readouterr()
        assert run_cli("topk", "--method", "ssmb", "--k", "3", "--input", str(data)) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.2.3.4\n999.1.1.1\n")
        assert run_cli("topk", "--method", "tlmb", "--k", "1", "--input", str(bad)) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path):
        assert run_cli("topk", "--method", "tlmb", "--k", "1", "--input", str(tmp_path / "nope.txt")) == 2

    def test_missing_required_flag_exits_1(self, small_file):
        with pytest.raises(SystemExit) as err:
            run_cli("topk", "--method", "tlmb", "--input", str(small_file))
        assert err.value.code == 1

    def test_tlmb_takes_1_to_256_workers(self, small_file, capsys):
        outputs = []
        for workers in range(1, 9):
            assert run_cli("topk", "--method", "tlmb", "--k", "2", "--input", str(small_file),
                           "--workers", str(workers)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs == ["1.2.3.4\t2\n1.2.3.5\t1\n"] * 8
        # rejected by the plan, before the file is read or any thread starts
        assert run_cli("topk", "--method", "tlmb", "--k", "1", "--input", str(small_file),
                       "--workers", "257") == 1
        assert "at most 256" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method, counter, error",
        [
            ("ipmap", IpMapCounter, CountOverflow("an address count would exceed the 64-bit range")),
            ("tlmb", TlmbCounter, CountOverflow("an address count would exceed the 64-bit range")),
        ],
    )
    def test_resource_failure_exits_2(self, small_file, capsys, monkeypatch, method, counter, error):
        def fail(self, batch):
            raise error

        monkeypatch.setattr(counter, "ingest_many", fail)
        assert run_cli("topk", "--method", method, "--k", "1", "--input", str(small_file)) == 2
        assert capsys.readouterr().err == f"ipstat: error: {error}\n"

    @pytest.mark.parametrize("method", ["tlmb", "ssmb", "ipmap"])
    def test_out_of_memory_exits_2(self, small_file, capsys, monkeypatch, method):
        zeros = np.zeros

        def scarce(shape, *args, **kwargs):
            # the tlmb handle table and the ssmb and ipmap blocks are 2**24 slots each
            if np.prod(shape) >= 1 << 24:
                raise MemoryError()
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", scarce)
        assert run_cli("topk", "--method", method, "--k", "1", "--input", str(small_file)) == 2
        assert capsys.readouterr().err == "ipstat: error: out of memory: an allocation failed\n"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_full_spill_disk_exits_2(self, tmp_path, capsys, monkeypatch, workers):
        data = tmp_path / "two_octets.txt"
        data.write_text("1.0.0.1\n2.0.0.2\n")
        opened = []
        make = tempfile.TemporaryFile

        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

            def __getattr__(self, name):
                return getattr(self.handle, name)

        def full(*args, **kwargs):
            opened.append(FullDisk(make(*args, **kwargs)))
            return opened[-1]

        monkeypatch.setattr(tempfile, "TemporaryFile", full)
        code = run_cli("topk", "--method", "ssmb", "--k", "1", "--input", str(data), "--workers", workers)
        assert code == 2
        assert capsys.readouterr().err == "ipstat: error: [Errno 28] No space left on device\n"
        assert len(opened) == 1 and opened[0].closed


class TestBench:
    def test_bench_writes_csv(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        run_cli("gen", "--records", "20000", "--distinct", "200", "--seed", "5",
                "--first-octet-cap", "3", "--out", str(data))
        out = tmp_path / "rows.csv"
        code = run_cli("bench", "--input", str(data), "--truth", str(data) + ".truth",
                       "--methods", "tlmb,ssmb,hash", "--k", "10", "--reps", "2",
                       "--csv", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1].split(",")[0] == "method"
        assert len(lines) == 5  # comment + header + 3 method rows

    def test_bench_validation_failure_exits_3(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        run_cli("gen", "--records", "1000", "--distinct", "10", "--seed", "5", "--out", str(data))
        bogus = tmp_path / "bogus.truth"
        bogus.write_text("9.9.9.9\t4242\n")
        code = run_cli("bench", "--input", str(data), "--truth", str(bogus),
                       "--methods", "tlmb", "--k", "1", "--reps", "1",
                       "--csv", str(tmp_path / "rows.csv"))
        assert code == 3
        assert "rank 1" in capsys.readouterr().err

    def test_bench_rejects_a_sidecar_that_is_not_a_ranking(self, tmp_path, capsys):
        data, truth = tmp_path / "d.txt", tmp_path / "d.txt.truth"
        data.write_text("1.1.1.1\n2.2.2.2\n1.1.1.1\n")
        truth.write_text("2.2.2.2\t1\n1.1.1.1\t2\n")  # ascending: not a ranking
        code = run_cli("bench", "--input", str(data), "--truth", str(truth),
                       "--methods", "tlmb", "--k", "1", "--reps", "1",
                       "--csv", str(tmp_path / "rows.csv"))
        assert code == 3
        err = capsys.readouterr().err
        assert f"{truth}: truth line 2" in err and "rank 1" not in err

    def test_unpartitioned_method_with_workers_exits_1_before_timing(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.txt"
        run_cli("gen", "--records", "1000", "--distinct", "10", "--seed", "5", "--out", str(data))
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(bench, "run_method", lambda *args, **kwargs: calls.append(args))
        csv_path = tmp_path / "rows.csv"
        code = run_cli("bench", "--input", str(data), "--truth", str(data) + ".truth",
                       "--methods", "ssmb,hash", "--k", "1", "--reps", "1", "--workers", "2",
                       "--csv", str(csv_path))
        assert code == 1
        assert capsys.readouterr().err == (
            "ipstat: error: method 'hash' has no partition scheme; run it with workers=1\n"
        )
        assert calls == [] and not csv_path.exists()

    def test_unknown_method_exits_1(self, tmp_path, capsys):
        # neither file exists: the method is refused before either is read
        csv_path = tmp_path / "z.csv"
        assert run_cli("bench", "--input", str(tmp_path / "x"), "--truth", str(tmp_path / "y"),
                       "--methods", "tlmb,quantum", "--k", "1", "--reps", "1", "--csv", str(csv_path)) == 1
        assert capsys.readouterr().err == (
            f"ipstat: error: unknown method 'quantum'; choose from {', '.join(bench.METHODS)}\n"
        )
        assert not csv_path.exists()

    def test_negative_warmup_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("bench", "--input", "x", "--truth", "y", "--methods", "tlmb",
                    "--k", "1", "--reps", "1", "--csv", "z", "--warmup", "-5")
        assert err.value.code == 1
        assert "must be at least 0, got -5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--methods", ",", "expected comma-separated methods"),
            ("--k", ",", "expected comma-separated integers of at least 1"),
            ("--k", "10,0", "expected comma-separated integers of at least 1"),
        ],
    )
    def test_empty_or_nonpositive_lists_exit_1(self, tmp_path, capsys, option, value, message):
        argv = {"--methods": "tlmb", "--k": "1"}
        argv[option] = value
        csv_path = tmp_path / "rows.csv"
        with pytest.raises(SystemExit) as err:
            run_cli("bench", "--input", "x", "--truth", "y", "--methods", argv["--methods"],
                    "--k", argv["--k"], "--reps", "1", "--csv", str(csv_path))
        assert err.value.code == 1
        assert message in capsys.readouterr().err
        assert not csv_path.exists()


class TestVerify:
    def test_verify_matching_pair(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        run_cli("gen", "--records", "50000", "--distinct", "500", "--seed", "1", "--out", str(data))
        capsys.readouterr()
        assert run_cli("verify", "--input", str(data), "--truth", str(data) + ".truth") == 0
        out = capsys.readouterr().out
        assert "n=50000" in out and "d=500" in out and "mean 100.00" in out

    def test_verify_mismatch_exits_3(self, tmp_path):
        data = tmp_path / "d.txt"
        run_cli("gen", "--records", "1000", "--distinct", "10", "--seed", "1", "--out", str(data))
        data.write_text("1.2.3.4\n")
        assert run_cli("verify", "--input", str(data), "--truth", str(data) + ".truth") == 3

    def test_verify_sidecar_not_utf8_exits_3(self, tmp_path, capsys):
        data = tmp_path / "d.bin"
        run_cli("gen", "--records", "1000", "--distinct", "10", "--seed", "1", "--format", "binary",
                "--out", str(data))
        capsys.readouterr()
        # the binary dataset itself given as its sidecar
        assert run_cli("verify", "--input", str(data), "--truth", str(data)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"ipstat: error: {data}: bad truth line 1: ")
        assert err.count("\n") == 1

    def test_verify_empty_sidecar_exits_3(self, tmp_path, capsys):
        data, truth = tmp_path / "d.txt", tmp_path / "d.txt.truth"
        data.write_text("")
        truth.write_text("")
        assert run_cli("verify", "--input", str(data), "--truth", str(truth)) == 3
        assert f"{truth}: the sidecar lists no addresses" in capsys.readouterr().err


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        done = subprocess.run(
            [sys.executable, "-m", "ipstat", "gen", "--records", "100", "--distinct", "5",
             "--seed", "1", "--out", str(tmp_path / "d.txt")],
            capture_output=True, text=True,
        )
        assert done.returncode == 0
        assert done.stdout.startswith("generated n=100 d=5")

    def test_help_exits_zero(self):
        done = subprocess.run([sys.executable, "-m", "ipstat", "--help"], capture_output=True, text=True)
        assert done.returncode == 0
        for command in ("gen", "topk", "bench"):
            assert command in done.stdout
