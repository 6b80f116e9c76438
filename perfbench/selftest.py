#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny workloads; runs in about a minute.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
* BENCHMARK.json names exactly the metrics the harness reports, with the same units;
* every workload runs the cells whose metrics the JSON line carries;
* an untraced and a traced run of a tiny workload print every metric by
  name and unit, end with a well-formed JSON line, exit 0 and fail nothing;
* on serial cells the traced span self times add up to the traced wall
  time within 5%;
* a doctored truth sidecar makes every query fail and the run exit nonzero;
* without the ipstat sources the harness exits nonzero and prints no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

TINY = {
    "tiny-text": run.Workload(
        dict(records=20_000, distinct=500, first_octet_cap=2, file_format="text"), run.COMMON_CELLS + ("ipmap",)
    ),
    "tiny-q64": run.Workload(dict(records=20_000, distinct=2_000, first_octet_cap=64, file_format="binary")),
}


def invoke(workload: str, trace: int) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)], TINY)
    return code, out.getvalue().splitlines()


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_declared() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    check(e2e == run.end_to_end_units(run.COMMON_CELLS), "BENCHMARK.json end_to_end differs from the harness")
    check(layers == run.per_layer_units(run.COMMON_CELLS), "BENCHMARK.json per_layer differs from the harness")
    check(
        sorted(w["name"] for w in declared["workloads"]) == sorted(run.WORKLOADS),
        "BENCHMARK.json workloads differ from the harness",
    )
    for name, workload in run.WORKLOADS.items():
        check(set(run.COMMON_CELLS) <= set(workload.cells), f"{name} skips a common cell")


def check_run(workload: str, trace: int) -> None:
    code, lines = invoke(workload, trace)
    check(code == 0, f"{workload} trace={trace} exited {code}")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"bad JSON keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{workload}: {result}")
    cells = TINY[workload].cells
    units = run.per_layer_units(cells) if trace else run.end_to_end_units(cells)
    if not trace:
        units = dict(units, reference_s="s", **{f"query_s.{cell}": "s" for cell in cells})
    for name, unit in units.items():
        check(any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines), f"no line for {name}")
    common = run.per_layer_units(run.COMMON_CELLS) if trace else run.end_to_end_units(run.COMMON_CELLS)
    check(
        {name: m["unit"] for name, m in result["metrics"].items()} == common,
        f"{workload}: JSON metrics differ from the declared ones",
    )
    check(any(line.startswith("failed_share = 0 ") for line in lines), "no failed_share line")
    check(any(line.startswith("guardrail criterion 7") for line in lines), "no criterion 7 line")
    check(any(line.startswith("guardrail criterion 3") for line in lines), "no criterion 3 line")
    if trace:
        for cell in cells:
            if run.CELLS[cell][1] == 1:
                share = next(line for line in lines if line.startswith(f"{cell}.trace.self_time_share = "))
                value = float(share.split()[2])
                check(abs(value - 1) <= 0.05, f"{cell}: span self times cover {value:.3f} of the wall time")


def check_doctored_truth() -> None:
    sys.path.insert(0, str(run.SRC))
    from ipstat import datagen

    write_truth = datagen.write_truth

    def doctored(path, distinct, counts):
        write_truth(path, distinct, counts)
        lines = Path(path).read_text().splitlines()
        # move one count from the last line to the first: the total still matches, rank 1 does not
        for index, delta in ((0, 1), (-1, -1)):
            address, count = lines[index].split("\t")
            lines[index] = f"{address}\t{int(count) + delta}"
        Path(path).write_text("\n".join(lines) + "\n")

    datagen.write_truth = doctored
    print("selftest: doctored truth, the FAILED lines below are expected", file=sys.stderr)
    try:
        code, lines = invoke("tiny-q64", 0)
    finally:
        datagen.write_truth = write_truth
    result = json.loads(lines[-1])
    check(code != 0, "a doctored truth file did not make the run exit nonzero")
    check(not result["correct"] and result["failed"] == result["attempted"], f"doctored truth: {result}")


def check_without_sources() -> None:
    bare = run.WORKDIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(__file__).resolve().parent, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "text-cap4", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "the harness exited 0 without the ipstat sources")
    check('"correct"' not in proc.stdout, "the harness printed a result without the ipstat sources")


def main() -> int:
    check_declared()
    check_run("tiny-text", 0)
    check_run("tiny-text", 1)
    check_run("tiny-q64", 1)
    check_doctored_truth()
    check_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
