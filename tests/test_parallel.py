"""Partition plans and serial-parallel equivalence."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import as_pairs, oracle_top_k, property_settings, random_addresses
from ipstat import (
    ArraySource,
    InvalidPlan,
    PartitionPlan,
    parse_dotted,
    query,
    run_parallel,
    to_u32,
)
from ipstat import model


def cut(plan: PartitionPlan, addresses) -> list[list[int]]:
    """The slice of the ascending distinct addresses each worker of a tlmb plan gets."""
    values = np.unique(np.asarray(addresses, dtype=np.uint32))
    cuts = plan.bounds(values)
    return [values[lo:hi].tolist() for lo, hi in zip(cuts[:-1], cuts[1:])]


class TestPlans:
    def test_prefix_bits_assignment(self):
        plan = PartitionPlan.by_prefix_bits(2)
        assert plan.workers == 4
        low, mid, high = (to_u32(parse_dotted(a)) for a in ("10.1.2.3", "64.0.0.0", "192.1.2.3"))
        assert cut(plan, [high, low, mid]) == [[low], [mid], [], [high]]
        # a worker's first address opens its slice, the one below closes the previous
        assert cut(plan, [mid - 1, mid]) == [[mid - 1], [mid], [], []]

    def test_prefix_bits_zero_is_single_worker(self):
        plan = PartitionPlan.by_prefix_bits(0)
        assert plan.workers == 1
        assert cut(plan, [0, 2**32 - 1]) == [[0, 2**32 - 1]]
        assert plan.bounds(np.empty(0, dtype=np.uint32)) == [0, 0]

    def test_first_octet_assignment(self):
        plan = PartitionPlan.by_first_octets([7, 9], workers=2)
        assert [plan.worker_octets(w) for w in range(2)] == [[7], [9]]
        with pytest.raises(InvalidPlan):
            plan.bounds(np.array([7 << 24], dtype=np.uint32))

    def test_first_octets_deal_round_robin(self):
        plan = PartitionPlan.by_first_octets([3, 5, 8, 11, 40], workers=2)
        assert plan.worker_octets(0) == [3, 8, 40]
        assert plan.worker_octets(1) == [5, 11]

    def test_invalid_prefix_bits(self):
        for bad in (-1, 9, 100):
            with pytest.raises(InvalidPlan):
                PartitionPlan.by_prefix_bits(bad)

    def test_invalid_worker_counts(self):
        with pytest.raises(InvalidPlan):
            PartitionPlan(method="tlmb", workers=3, prefix_bits=2)
        with pytest.raises(InvalidPlan):
            PartitionPlan(method="ssmb", workers=0, octets=(1,))
        with pytest.raises(InvalidPlan):
            PartitionPlan(method="hash", workers=1)

    def test_for_source_tlmb_requires_power_of_two(self):
        source = ArraySource(np.array([1], dtype=np.uint32))
        with pytest.raises(InvalidPlan):
            PartitionPlan.for_source(source, "tlmb", 3)
        plan = PartitionPlan.for_source(source, "tlmb", 8)
        assert plan.prefix_bits == 3

    def test_for_source_ssmb_clamps_to_subset_count(self):
        values = np.array([to_u32(parse_dotted("1.0.0.1")), to_u32(parse_dotted("2.0.0.1"))], dtype=np.uint32)
        plan = PartitionPlan.for_source(ArraySource(values), "ssmb", 8)
        assert plan.workers == 2
        assert plan.octets == (1, 2)


class TestAssignmentProperties:
    def test_coverage_and_disjointness(self):
        rng = np.random.default_rng(600)
        for trial in range(50):
            r = int(rng.integers(0, 4))
            plan = PartitionPlan.by_prefix_bits(r)
            edges = np.arange(1, plan.workers, dtype=np.uint32) << np.uint32(32 - r)
            values = np.unique(np.concatenate([random_addresses(rng, 2000), edges, edges - np.uint32(1)]))
            cuts = plan.bounds(values)
            # the slices cover the values once, in order
            assert len(cuts) == plan.workers + 1 and cuts[0] == 0 and cuts[-1] == values.size
            assert all(lo <= hi for lo, hi in zip(cuts, cuts[1:])), f"trial {trial}"
            # partition rule: a value's owner is exactly its top r bits
            owners = np.repeat(np.arange(plan.workers), np.diff(cuts))
            assert np.array_equal(owners, values.astype(np.uint64) >> np.uint64(32 - r)), f"trial {trial}"

    def test_first_octet_coverage(self):
        rng = np.random.default_rng(601)
        for _ in range(30):
            cap = int(rng.integers(1, 17))
            workers = int(rng.integers(1, 5))
            batch = random_addresses(rng, 1000, first_octet_cap=cap)
            plan = PartitionPlan.for_source(ArraySource(batch), "ssmb", workers)
            per_worker = [plan.worker_octets(w) for w in range(plan.workers)]
            # every plan octet is owned by exactly one worker, and every record's octet is in the plan
            flattened = sorted(octet for octets in per_worker for octet in octets)
            assert flattened == list(plan.octets)
            assert set((batch >> np.uint32(24)).tolist()) == set(plan.octets)


@st.composite
def routed_inputs(draw):
    """(r, batch size, addresses) with the addresses clustered at tlmb owner boundaries."""
    r = draw(st.integers(0, 3))
    edges = [w << (32 - r) for w in range((1 << r) + 1)]
    near = st.tuples(st.sampled_from(edges), st.integers(-3, 2)).map(lambda t: min(max(sum(t), 0), 2**32 - 1))
    values = np.array(draw(st.lists(near, max_size=120)), dtype=np.uint32)
    if draw(st.booleans()):
        values.sort()  # long runs of one owner, so whole batches sit inside it
    return r, draw(st.integers(1, 64)), values


@property_settings(150)
@given(routed_inputs(), st.integers(1, 8))
def test_routing_matches_oracle(case, k):
    r, batch_records, values = case
    with mock.patch.object(model, "BATCH_RECORDS", batch_records):
        merged, results = run_parallel(ArraySource(values), PartitionPlan.by_prefix_bits(r), k)
    assert as_pairs(merged) == oracle_top_k(values, k)
    owners = (values.astype(np.uint64) >> np.uint64(32 - r)).astype(np.int64)
    assert [w.stats["records_ingested"] for w in results] == np.bincount(owners, minlength=1 << r).tolist()


class TestSerialParallelEquivalence:
    def test_tlmb_all_prefix_bit_settings(self):
        rng = np.random.default_rng(602)
        for trial in range(8):
            values = random_addresses(rng, 10_000)
            folded = rng.choice(rng.choice(values, size=500), size=10_000).astype(np.uint32)
            source = ArraySource(folded)
            serial, _ = query(source, "tlmb", 10)
            for r in (0, 1, 2, 3):
                plan = PartitionPlan.by_prefix_bits(r)
                merged, results = run_parallel(source, plan, 10)
                assert merged == serial, f"trial {trial} r={r}"
                assert len(results) == 2**r

    def test_ssmb_subset_workers(self):
        rng = np.random.default_rng(603)
        for trial in range(5):
            values = random_addresses(rng, 8000, first_octet_cap=6)
            source = ArraySource(values)
            serial, _ = query(source, "ssmb", 10)
            for workers in (1, 2, 4):
                # the driver runs workers=1 serially; the plan keeps the one-worker partition tested
                merged, _ = run_parallel(source, PartitionPlan.for_source(source, "ssmb", workers), 10)
                assert merged == serial, f"trial {trial} workers={workers}"

    def test_merged_equals_oracle(self):
        rng = np.random.default_rng(604)
        values = random_addresses(rng, 20_000, first_octet_cap=8)
        merged, _ = query(ArraySource(values), "tlmb", 25, 4)
        assert as_pairs(merged) == oracle_top_k(values, 25)


class TestWorkerResults:
    def test_tlmb_worker_isolation_and_narrowing(self):
        rng = np.random.default_rng(605)
        values = random_addresses(rng, 10_000)
        plan = PartitionPlan.by_prefix_bits(2)
        _, results = run_parallel(ArraySource(values), plan, 10)
        assert [w.ordinal for w in results] == [0, 1, 2, 3]
        for result in results:
            # candidates stay inside the worker's first-octet range
            for entry in result.candidates:
                assert result.ordinal == entry.address.a >> 6
            assert result.stats["first_layer_bytes"] == 33_554_432
        _, total = query(ArraySource(values), "tlmb", 10, 4)
        assert total["records_ingested"] == values.size
        assert total["workers"] == 4

    def test_ssmb_worker_candidates_stay_in_partition(self):
        rng = np.random.default_rng(606)
        values = random_addresses(rng, 5000, first_octet_cap=6)
        source = ArraySource(values)
        plan = PartitionPlan.for_source(source, "ssmb", 2)
        _, results = run_parallel(source, plan, 5)
        for result in results:
            owned = set(plan.worker_octets(result.ordinal))
            for entry in result.candidates:
                assert entry.address.a in owned

    def test_run_method_rejects_unpartitionable_methods(self):
        from ipstat import run_method

        for method, message in (("hash", "no partition scheme"), ("foo", "unknown method")):
            with pytest.raises(InvalidPlan, match=message):
                run_method("unused.txt", method, 5, workers=2)
