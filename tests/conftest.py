"""Shared oracles and fixtures.

The reference answer for every counting test is deliberately primitive:
a collections.Counter over Python ints plus a full sort by the shared
total order (descending count, ties to the numerically smaller address).
Anything the library returns must match it exactly.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

from ipstat import to_u32

_ACCEPTANCE_LINES: list[str] = []


def oracle_top_k(addresses, k: int) -> list[tuple[int, int]]:
    """Brute-force top-k as (address u32, count) pairs, strongest first."""
    if isinstance(addresses, np.ndarray):
        addresses = addresses.tolist()
    table = Counter(int(a) for a in addresses)
    ranked = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def oracle_counts(addresses) -> Counter:
    if isinstance(addresses, np.ndarray):
        addresses = addresses.tolist()
    return Counter(int(a) for a in addresses)


def as_pairs(entries) -> list[tuple[int, int]]:
    """HeapEntry list -> (address u32, count) pairs in the same order."""
    return [(to_u32(entry.address), entry.count) for entry in entries]


def as_lines(entries) -> list[str]:
    """HeapEntry list -> the exact lines the CLI would print."""
    return [f"{entry.address}\t{entry.count}" for entry in entries]


def random_addresses(rng: np.random.Generator, n: int, first_octet_cap: int = 256) -> np.ndarray:
    """n random addresses (with repeats) under a first-octet cap."""
    space = first_octet_cap << 24
    return rng.integers(0, space, size=n, dtype=np.uint64).astype(np.uint32)


def read_all(stream) -> np.ndarray:
    """Drain a RecordStream into one uint32 array."""
    return np.concatenate([np.empty(0, dtype=np.uint32), *stream.batches()])


class SingleUseSource:
    """Record source over one open stream: it opens once, like a pipe."""

    def __init__(self, stream):
        self._stream = stream

    def open(self):
        if self._stream is None:
            raise RuntimeError("this source has already been consumed")
        stream, self._stream = self._stream, None
        return stream


class CountingSource:
    """Wraps a record source and counts the passes opened over it."""

    def __init__(self, source):
        self._source = source
        self.opens = 0

    def open(self):
        self.opens += 1
        return self._source.open()


def property_settings(max_examples: int) -> settings:
    """Hypothesis settings that replay the same bounded example set every run."""
    return settings(max_examples=max_examples, derandomize=True, database=None, deadline=None)


@pytest.fixture
def record_criterion():
    """Record and assert one acceptance criterion outcome."""

    def _record(number: int, passed: bool, detail: str):
        line = f"criterion {number}: {'PASS' if passed else 'FAIL'} - {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line, flush=True)
        assert passed, line

    return _record


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
