"""Outside-in span tracer for one ipstat query, and the per-layer metrics it yields.

``install`` wraps the public entry points of the ipstat modules loaded in
this process; the package's files are never edited. Every wrapped call
becomes a span (id, name, start, end, parent, thread) kept in memory; the
child process ships the spans back to the harness, which writes them out
when the run ends. A span is named ``<layer>.<operation>`` and the layer is
the ipstat module the operation lives in.

A span's parent is the innermost open span of its own thread. A pool
thread that opens a span with nothing open in it is parented to the open
``parallel.run`` span, so worker work nests under the parallel layer.
``ssmb.pass`` spans are built from ``SsmbCounter.top_k``'s ``pass_hook``:
a pass runs from the end of the previous pass (or of subset discovery, or
the start of ``top_k``) to its hook call, so it covers the block
zero-fill, the replay, the counting and the sweep.

A span's self time is its duration minus the part of it that its children
cover (their union, so overlapping worker spans are not counted twice).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager

MIB = float(1 << 20)


class Tracer:
    """Collects spans and the counters' final stats for one query."""

    def __init__(self):
        self.spans: list[dict] = []
        # (layer, counter ordinal) -> that counter's last stats dict
        self.counter_stats: dict[tuple[str, int], dict] = {}
        self._counters = itertools.count()
        self.worker_records: list[int] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        # parent of a span opened in a pool thread that has nothing open
        self.adopt: int | None = None
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str) -> dict:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            thread = self._threads.setdefault(threading.get_ident(), len(self._threads))
        return {"id": span_id, "name": name, "parent": stack[-1] if stack else self.adopt, "thread": thread}

    @contextmanager
    def span(self, name: str):
        record = self._record(name)
        stack = self._stack()
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def add_span(self, name: str, start: float, end: float, **extra) -> None:
        """Record a span measured by the caller, parented to this thread's open span."""
        record = self._record(name)
        record.update(start=start, end=end, **extra)
        with self._lock:
            self.spans.append(record)

    def mark(self) -> None:
        """Note where the next ssmb pass in this thread starts."""
        self._local.pass_start = time.perf_counter()

    def pass_start(self) -> float:
        return self._local.pass_start


def _wrap_method(tracer: Tracer, cls, attr: str, name: str, count=None) -> None:
    original = getattr(cls, attr)

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        with tracer.span(name) as record:
            if count is not None:
                record["n"] = count(*args, **kwargs)
            return original(self, *args, **kwargs)

    setattr(cls, attr, wrapper)


def _capture_stats(tracer: Tracer, cls, layer: str) -> None:
    original = cls.stats

    @functools.wraps(original)
    def stats(self):
        result = original(self)
        # an ordinal, not id(): a freed counter's id can be reused by the next one
        if "_traced_ordinal" not in vars(self):
            self._traced_ordinal = next(tracer._counters)
        tracer.counter_stats[(layer, self._traced_ordinal)] = dict(result)
        return result

    cls.stats = stats


def _rebind(original, replacement) -> None:
    """Point every ipstat module's name for ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "ipstat" or module_name.startswith("ipstat."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap ipstat's layer entry points in this process so they report to ``tracer``."""
    from ipstat import baselines, model, parallel, ssmb, tlmb, topk

    _wrap_method(tracer, model.FileSource, "open", "model.open")
    batches = model.RecordStream.batches

    @functools.wraps(batches)
    def traced_batches(self):
        inner = batches(self)
        while True:
            with tracer.span("model.next") as record:
                try:
                    batch = next(inner)
                except StopIteration:
                    record["n"] = 0
                    return
                record["n"] = int(batch.size)
            yield batch

    model.RecordStream.batches = traced_batches

    _wrap_method(tracer, tlmb.TlmbCounter, "ingest_many", "tlmb.ingest_many")
    _wrap_method(tracer, tlmb.TlmbCounter, "top_k", "tlmb.top_k")
    _capture_stats(tracer, tlmb.TlmbCounter, "tlmb")
    for cls in (baselines.HashCounter, baselines.IpMapCounter):
        _wrap_method(tracer, cls, "ingest_many", "baselines.ingest_many")
        _wrap_method(tracer, cls, "top_k", "baselines.top_k")
        _capture_stats(tracer, cls, "baselines")
    _wrap_method(tracer, topk.TopKHeap, "offer_many", "topk.offer_many", count=lambda addresses, counts: len(counts))

    discover = ssmb.discover_subsets

    @functools.wraps(discover)
    def traced_discover(source):
        with tracer.span("ssmb.discover"):
            octets = discover(source)
        tracer.mark()
        return octets

    _rebind(discover, traced_discover)

    ssmb_top_k = ssmb.SsmbCounter.top_k

    @functools.wraps(ssmb_top_k)
    def traced_ssmb_top_k(self, source, k, octets=None, pass_hook=None):
        def hook(octet, pass_stats):
            now = time.perf_counter()
            ok = pass_stats["slot_sum"] == pass_stats["pass_records"]
            tracer.add_span("ssmb.pass", tracer.pass_start(), now, octet=octet, zeroing_ok=ok)
            tracer.mark()
            if pass_hook is not None:
                pass_hook(octet, pass_stats)

        with tracer.span("ssmb.top_k"):
            tracer.mark()
            return ssmb_top_k(self, source, k, octets=octets, pass_hook=hook)

    ssmb.SsmbCounter.top_k = traced_ssmb_top_k
    _capture_stats(tracer, ssmb.SsmbCounter, "ssmb")

    merge = topk.merge_top_k

    @functools.wraps(merge)
    def traced_merge(parts, k):
        with tracer.span("topk.merge"):
            return merge(parts, k)

    _rebind(merge, traced_merge)

    run_parallel = parallel.run_parallel

    @functools.wraps(run_parallel)
    def traced_run_parallel(source, plan, k):
        with tracer.span("parallel.run") as record:
            tracer.adopt = record["id"]
            try:
                merged, results = run_parallel(source, plan, k)
            finally:
                tracer.adopt = None
        tracer.worker_records = [int(r.stats.get("records_ingested", 0)) for r in results]
        return merged, results

    _rebind(run_parallel, traced_run_parallel)


# -- analysis ----------------------------------------------------------------


def _nest_passes(spans: list[dict]) -> None:
    """Re-parent spans that ran inside an ssmb pass to that pass.

    Pass spans are recorded at the pass's end, after the decode and offer
    spans inside it were already parented to the enclosing ``ssmb.top_k``.
    """
    for p in (s for s in spans if s["name"] == "ssmb.pass"):
        for s in spans:
            if (
                s is not p
                and s["parent"] == p["parent"]
                and s["thread"] == p["thread"]
                and p["start"] <= s["start"]
                and s["end"] <= p["end"]
            ):
                s["parent"] = p["id"]


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    _nest_passes(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def layer_units(method: str, workers: int) -> dict[str, str]:
    """Per-layer metric names (without the cell prefix) and units for one cell."""
    units = {
        "model.decode_s": "s",
        "model.opens": "count",
        "model.records_decoded": "count",
        "topk.offer_s": "s",
        "topk.candidates": "count",
    }
    if workers > 1 or method == "ipmap":
        units["topk.merge_s"] = "s"
    if method == "tlmb":
        units.update({"tlmb.ingest_s": "s", "tlmb.topk_s": "s", "tlmb.blocks": "count", "tlmb.tracked_mb": "MiB"})
    elif method == "ssmb":
        units.update(
            {
                "ssmb.discover_s": "s",
                "ssmb.passes": "count",
                "ssmb.pass_self_s": "s",
                "ssmb.pass_max_s": "s",
                "ssmb.zeroing_ok": "share",
                "ssmb.tracked_mb": "MiB",
            }
        )
    else:
        units.update({"baselines.ingest_s": "s", "baselines.topk_s": "s", "baselines.tracked_mb": "MiB"})
    if workers > 1:
        units.update({"parallel.self_s": "s", "parallel.worker_skew": "ratio"})
    units.update({"bench.self_s": "s", "trace.overhead_s": "s"})
    return units


def layer_values(method: str, workers: int, trace: dict, untraced_median: float) -> dict[str, float]:
    """Per-layer metric values for one traced query, keyed like ``layer_units``.

    ``trace`` is what the child sent back: spans, [layer, ordinal, stats]
    triples for every counter, worker record counts and the traced wall
    time. Every ``_s`` metric is self
    time, except ``ssmb.discover_s`` and ``ssmb.pass_max_s``, which are the
    wall time of the discovery pass and of the longest subset pass.
    """
    spans = trace["spans"]
    own = self_times(spans)

    def self_s(*names: str) -> float:
        return sum(own[s["id"]] for s in spans if s["name"] in names)

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def tracked_mb(layer: str) -> float:
        return sum(v["tracked_bytes"] for lay, _, v in trace["counter_stats"] if lay == layer) / MIB

    values = {
        "model.decode_s": self_s("model.open", "model.next"),
        "model.opens": len(named("model.open")),
        "model.records_decoded": sum(s["n"] for s in named("model.next")),
        "topk.offer_s": self_s("topk.offer_many"),
        "topk.candidates": sum(s["n"] for s in named("topk.offer_many")),
        "topk.merge_s": self_s("topk.merge"),
        "bench.self_s": self_s("bench.run_method"),
        "trace.overhead_s": trace["seconds"] - untraced_median,
    }
    if method == "tlmb":
        values.update(
            {
                "tlmb.ingest_s": self_s("tlmb.ingest_many"),
                "tlmb.topk_s": self_s("tlmb.top_k"),
                "tlmb.blocks": sum(v["allocated_second_blocks"] for lay, _, v in trace["counter_stats"] if lay == "tlmb"),
                "tlmb.tracked_mb": tracked_mb("tlmb"),
            }
        )
    elif method == "ssmb":
        passes = named("ssmb.pass")
        values.update(
            {
                "ssmb.discover_s": sum(s["end"] - s["start"] for s in named("ssmb.discover")),
                "ssmb.passes": len(passes),
                "ssmb.pass_self_s": self_s("ssmb.pass"),
                "ssmb.pass_max_s": max((s["end"] - s["start"] for s in passes), default=0.0),
                "ssmb.zeroing_ok": sum(s["zeroing_ok"] for s in passes) / len(passes) if passes else 0.0,
                "ssmb.tracked_mb": tracked_mb("ssmb"),
            }
        )
    else:
        values.update(
            {
                "baselines.ingest_s": self_s("baselines.ingest_many"),
                "baselines.topk_s": self_s("baselines.top_k"),
                "baselines.tracked_mb": tracked_mb("baselines"),
            }
        )
    if workers > 1:
        records = trace["worker_records"]
        values.update(
            {
                "parallel.self_s": self_s("parallel.run"),
                "parallel.worker_skew": max(records) / (sum(records) / len(records)) if sum(records) else 0.0,
            }
        )
    return {name: values[name] for name in layer_units(method, workers)}


def self_time_share(trace: dict) -> float:
    """Sum of every span's self time over the traced wall time.

    On a serial query the spans nest in one thread, so this is 1 up to the
    time spent between the child's clock reads and the root span.
    """
    return sum(self_times(trace["spans"]).values()) / trace["seconds"]
