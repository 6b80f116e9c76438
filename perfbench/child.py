"""Query server: runs each ipstat top-k query in a fresh forked process.

Usage: python3 perfbench/child.py

The server imports numpy and ipstat once, then reads jobs from stdin, one
JSON object a line::

    {"path": ..., "method": ..., "workers": ..., "k": ..., "trace": false, "timeout": 150}

For each job it forks a fresh process that runs one complete
``ipstat.bench.run_method`` call, or with ``"method": "reference"`` the
fixed reference work of ``reference``, and exits; the server itself never runs a
query, so every query starts from the same state, as after the imports.
A query process that outlives ``timeout`` seconds is killed by its own
alarm. The server waits for it and writes one JSON line on stdout::

    {"status": <exit code, negative for a signal>, "maxrss_kib": ..., "result": ... or null}

``maxrss_kib`` is the query process's own ``ru_maxrss``, from ``wait4``.
``result`` holds the wall seconds of the ``run_method`` call, the answer
as [address u32, count] pairs, the method's records and tracked bytes, and
with ``trace`` true the spans and counter stats the tracer collected. A
query that raises exits nonzero and gives no result.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
from ipstat.bench import run_method  # noqa: E402
from ipstat.model import to_u32  # noqa: E402

REFERENCE_KEYS = 2_000_000


def query(job: dict) -> dict:
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    started = time.perf_counter()
    if tracer is None:
        entries, stats = run_method(job["path"], job["method"], job["k"], job["workers"])
    else:
        with tracer.span("bench.run_method"):
            entries, stats = run_method(job["path"], job["method"], job["k"], job["workers"])
    seconds = time.perf_counter() - started
    result = {
        "seconds": seconds,
        "entries": [[to_u32(e.address), e.count] for e in entries],
        "records": stats["records_ingested"],
        "tracked_bytes": stats["tracked_bytes"],
    }
    if tracer is not None:
        result.update(
            spans=tracer.spans,
            counter_stats=[[layer, ordinal, stats] for (layer, ordinal), stats in tracer.counter_stats.items()],
            worker_records=tracer.worker_records,
        )
    return result


def reference(job: dict) -> dict:
    """A fixed piece of work of the same kinds as a query's, without ipstat.

    It fills a fresh 128 MiB count block from 2M seeded keys, sweeps it for
    the 100 largest counts, and counts a quarter of the keys in a
    ``collections.Counter``: numpy scatter and sweep over fresh memory, as
    in tlmb, ssmb and ipmap, and Python object churn, as in hash. The
    harness times it between queries to follow how fast the machine runs
    at the moment.
    """
    keys = np.random.default_rng(0).integers(0, 1 << 24, REFERENCE_KEYS, dtype=np.uint32)
    started = time.perf_counter()
    block = np.zeros(1 << 24, dtype=np.uint64)
    block[keys] += 1
    hot = np.flatnonzero(block)
    top = hot[np.argsort(block[hot], kind="stable")[-100:]]
    table = Counter(keys[: REFERENCE_KEYS // 4].tolist())
    seconds = time.perf_counter() - started
    return {"seconds": seconds, "checksum": int(block[top].sum()) + len(table)}


def run_forked(job: dict) -> dict:
    """One query in a fresh forked process; its exit status, peak RSS and result."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            signal.alarm(job["timeout"])
            work = reference if job["method"] == "reference" else query
            with os.fdopen(write_fd, "w") as out:
                json.dump(work(job), out)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        out = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    return {"status": code, "maxrss_kib": usage.ru_maxrss, "result": json.loads(out) if code == 0 else None}


def serve() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run_forked(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
