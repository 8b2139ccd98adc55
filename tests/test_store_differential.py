"""The store axis of the differential suite: out-of-core == in-RAM.

Every algorithm variant of the columnar differential suite runs over
:class:`~repro.store.StoreBackedDatabase` (and its sharded twin, S in
{1, 4}) -- *after a real save -> memory-mapped-load round trip* -- and
the entire observable output must equal the scalar reference exactly:
ranked items (objects, grades, bounds), halting reason, tie order,
round count, the full per-list :class:`AccessStats`, and the recorded
per-access trace events.  Floats compare with ``==``, never a
tolerance: reading the memory-mapped arrays must perform the same IEEE
operations as reading the in-RAM ones.

A 1-byte residency budget, and a fault granularity scaled down so
gathers slice at the valve's row floor, are used deliberately, so the
valve releases the map mid-query -- at chunk
boundaries and before each slice of every gather -- and queries keep
faulting pages back in: the valve's whole contract is that none of
that is observable.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.standard import AVERAGE, MAX, MEDIAN, MIN, PRODUCT, SUM
from repro.core.ca import CombinedAlgorithm
from repro.core.nra import NoRandomAccessAlgorithm
from repro.core.stream_combine import StreamCombine
from repro.core.ta import ThresholdAlgorithm
from repro.datagen import example_6_3, example_8_3, figure_5
from repro.middleware.access import AccessSession
from repro.middleware.cost import CostModel
from repro.middleware.database import Database
from repro.obs import QueryProbe
from repro.store import (
    StoreBackedDatabase,
    StoreBackedShardedDatabase,
    open_store,
    save_store,
)
from repro.store import valve as valve_module

AGGREGATIONS = [MIN, MAX, AVERAGE, SUM, PRODUCT, MEDIAN]
STORE_SHARDS = (1, 4)
#: a residency budget every check exceeds: releases must happen
#: mid-query without becoming observable
CACHE_BYTES = 1
#: the valve's fault granularity scaled down to these small matrices,
#: so the budget-derived gather slicing a large store gets in
#: production (slices of the row floor) applies to them too
FAULT_BYTES = 16


@pytest.fixture(autouse=True, scope="module")
def _small_fault_granularity():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(valve_module, "_FAULT_BYTES", FAULT_BYTES)
        yield


def signature(result):
    stats = result.stats
    return (
        [(it.obj, it.grade, it.lower_bound, it.upper_bound)
         for it in result.items],
        stats.sorted_accesses,
        stats.random_accesses,
        stats.sorted_by_list,
        stats.random_by_list,
        stats.middleware_cost,
        stats.depth,
        stats.distinct_objects_seen,
        result.halt_reason,
        result.rounds,
        result.max_buffer_size,
    )


def store_backends(db, tmp):
    """The store axis: each shard count persisted with
    :func:`save_store` and reopened memory-mapped -- every backend the
    caller sees has crossed a real save -> load round trip."""
    for shards in STORE_SHARDS:
        path = Path(tmp) / f"s{shards}.store"
        source = db if shards == 1 else db.to_sharded(shards)
        save_store(source, path)
        backend = open_store(path, cache_bytes=CACHE_BYTES)
        expected = (
            StoreBackedShardedDatabase
            if shards > 1
            else StoreBackedDatabase
        )
        assert type(backend) is expected
        yield f"store-{shards}", backend


def assert_store_agrees(db, algo, aggregation, k, cost_model=None):
    kwargs = {} if cost_model is None else {"cost_model": cost_model}
    scalar_result = algo.run_on(db, aggregation, k, **kwargs)
    expected = signature(scalar_result)
    with tempfile.TemporaryDirectory() as tmp:
        for label, backend in store_backends(db, tmp):
            result = algo.run_on(backend, aggregation, k, **kwargs)
            assert signature(result) == expected, (
                f"{algo.name} with {aggregation.name} diverged between "
                f"the scalar and {label} backends"
            )


def assert_store_trace_identical(db, algo, aggregation, k):
    """The instrumentation axis: the answer must equal the *scalar*
    reference, and the recorded per-access trace events must equal the
    in-RAM *columnar* twin's bit-for-bit (the store rides the same
    batched access plane, so its batch events must be byte-identical
    -- same objects, grades, positions, cumulative costs)."""
    expected = signature(algo.run_on(db, aggregation, k))
    reference = AccessSession(db.to_columnar(), record_trace=True)
    assert signature(algo.run(reference, aggregation, k)) == expected
    with tempfile.TemporaryDirectory() as tmp:
        for label, backend in store_backends(db, tmp):
            session = AccessSession(backend, record_trace=True)
            probe = QueryProbe(session)
            session.probe = probe
            result = algo.run(session, aggregation, k)
            assert signature(result) == expected, label
            assert session.trace.events == reference.trace.events, (
                f"{label}: trace events diverged"
            )
            assert probe.total_sorted == result.stats.sorted_accesses
            assert probe.total_random == result.stats.random_accesses
            assert probe.total_cost == result.stats.middleware_cost


def algorithms_for(m):
    yield ThresholdAlgorithm(), None
    yield ThresholdAlgorithm(remember_seen=True), None
    yield ThresholdAlgorithm(batch_sizes=[2] * m), None
    yield NoRandomAccessAlgorithm(), None
    yield NoRandomAccessAlgorithm(halt_check_interval=3), None
    yield CombinedAlgorithm(), CostModel(1.0, 5.0)
    yield CombinedAlgorithm(h=1), None
    yield StreamCombine(), None


grade_matrices = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.lists(
            st.lists(
                st.integers(min_value=0, max_value=8).map(lambda v: v / 8),
                min_size=m,
                max_size=m,
            ),
            min_size=n,
            max_size=n,
        )
    )
)


@settings(max_examples=25, deadline=None)
@given(rows=grade_matrices, data=st.data())
def test_store_agrees_on_tied_random_databases(rows, data):
    """Coarse grades (multiples of 1/8) force heavy ties everywhere --
    the shard merge and the candidate stores must reproduce exact tie
    order through the paging layer."""
    arr = np.asarray(rows, dtype=float)
    db = Database.from_array(arr)
    n, m = arr.shape
    k = data.draw(st.integers(min_value=1, max_value=min(n, 5)))
    aggregation = data.draw(st.sampled_from(AGGREGATIONS))
    for algo, cost_model in algorithms_for(m):
        assert_store_agrees(db, algo, aggregation, k, cost_model)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "aggregation", [MIN, SUM, MEDIAN], ids=lambda t: t.name
)
def test_store_agrees_on_continuous_random_databases(seed, aggregation):
    rng = np.random.default_rng(40 + seed)
    n = int(rng.integers(10, 200))
    m = int(rng.integers(1, 6))
    k = int(rng.integers(1, min(n, 10) + 1))
    db = Database.from_array(rng.random((n, m)))
    for algo, cost_model in algorithms_for(m):
        assert_store_agrees(db, algo, aggregation, k, cost_model)


@pytest.mark.parametrize(
    "instance",
    [figure_5(8), example_6_3(24), example_8_3(16)],
    ids=["figure-5", "example-6.3", "example-8.3"],
)
@pytest.mark.parametrize("aggregation", [MIN, AVERAGE], ids=lambda t: t.name)
def test_store_agrees_on_adversarial_constructions(instance, aggregation):
    """Tie *placement* sensitive databases: the store round trip must
    preserve it exactly."""
    db = instance.database
    assert_store_agrees(db, ThresholdAlgorithm(), aggregation, 1)
    assert_store_agrees(db, NoRandomAccessAlgorithm(), aggregation, 1)
    assert_store_agrees(
        db, CombinedAlgorithm(), aggregation, 1, CostModel(1.0, 3.0)
    )
    assert_store_agrees(db, StreamCombine(), aggregation, 1)


def test_store_agrees_on_string_object_ids():
    """Non-integer ids force the persisted id table (no trivial-rows
    elision) and the interning dict on load."""
    rng = np.random.default_rng(3)
    arr = rng.random((60, 3))
    ids = [f"obj-{i:03d}" for i in range(60)]
    db = Database.from_array(arr, object_ids=ids)
    for aggregation in (MIN, AVERAGE):
        for algo, cost_model in algorithms_for(3):
            assert_store_agrees(db, algo, aggregation, 4, cost_model)


@pytest.mark.parametrize("seed", range(3))
def test_store_trace_and_probe_identical(seed):
    """Trace bytes: every recorded access event (kind, list, object,
    grade, position, cumulative cost) must be identical between the
    scalar reference and the store backends, with the probe's totals
    matching the session accounting exactly."""
    rng = np.random.default_rng(7 + seed)
    n = int(rng.integers(12, 80))
    m = int(rng.integers(2, 4))
    db = Database.from_array(rng.integers(0, 9, (n, m)) / 8.0)
    k = int(rng.integers(1, 5))
    for algo in (
        ThresholdAlgorithm(),
        NoRandomAccessAlgorithm(),
        CombinedAlgorithm(),
        StreamCombine(),
    ):
        for aggregation in (MIN, AVERAGE):
            assert_store_trace_identical(db, algo, aggregation, k)


def test_store_axis_through_query_service(tmp_path):
    """A QueryService mounted on a store backend serves the same bills
    and results as one mounted on the in-RAM columnar twin, and its
    stats() surface carries the store snapshot."""
    from repro.server import QueryService, QuerySpec

    rng = np.random.default_rng(12)
    db = Database.from_array(rng.random((150, 3)))
    path = tmp_path / "svc.store"
    save_store(db, path)
    store_db = open_store(path, cache_bytes=CACHE_BYTES)

    specs = [
        QuerySpec(algorithm="ta", aggregation="min", k=4),
        QuerySpec(algorithm="nra", aggregation="average", k=6),
        QuerySpec(algorithm="ca", aggregation="sum", k=3),
        QuerySpec(algorithm="stream-combine", aggregation="max", k=5),
    ]
    with QueryService(database=db).start() as reference_service:
        expected = [
            signature(reference_service.submit(s).result(timeout=60.0))
            for s in specs
        ]
    with QueryService(database=store_db).start() as service:
        got = [
            signature(service.submit(s).result(timeout=60.0))
            for s in specs
        ]
        stats = service.stats()
    assert got == expected
    assert stats["store"] is not None
    assert stats["store"]["path"] == str(path)
    assert stats["store"]["format_version"] == 3
    assert stats["store"]["hits"] + stats["store"]["misses"] > 0


def test_store_axis_concurrent_service_submissions(tmp_path):
    """Daemon --store mode: up to max_active engine workers run
    concurrently over ONE shared residency valve.  Submitting every
    spec at once (several times over, with a budget every check
    exceeds and gathers sliced every few rows, so releases interleave
    across threads) must produce exactly the sequential bills and
    results -- a release under a concurrent reader only makes it fault
    its pages back in."""
    from repro.server import QueryService, QuerySpec

    rng = np.random.default_rng(34)
    db = Database.from_array(rng.random((200, 3)))
    path = tmp_path / "conc.store"
    save_store(db, path)
    store_db = open_store(path, cache_bytes=CACHE_BYTES)

    specs = [
        QuerySpec(algorithm="ta", aggregation="min", k=4),
        QuerySpec(algorithm="nra", aggregation="average", k=6),
        QuerySpec(algorithm="ca", aggregation="sum", k=3),
        QuerySpec(algorithm="stream-combine", aggregation="max", k=5),
    ] * 3
    with QueryService(database=db).start() as reference_service:
        expected = [
            signature(reference_service.submit(s).result(timeout=60.0))
            for s in specs
        ]
    with QueryService(database=store_db).start() as service:
        handles = [service.submit(s) for s in specs]  # all in flight
        got = [signature(h.result(timeout=60.0)) for h in handles]
    assert got == expected
    snap = store_db.page_cache.snapshot()
    assert snap["misses"] > 0
    store_db.page_cache.release_mappings()
    assert store_db.page_cache.snapshot()["resident_bytes"] == 0


def test_uncharged_speculation_contract(tmp_path):
    """Valve behaviour is uncharged, like speculation: running the same
    query twice over one store backend (the second run's opening check
    releases what the first left resident, so it faults its pages in
    afresh) leaves AccessStats identical -- checks and releases never
    bill."""
    rng = np.random.default_rng(21)
    db = Database.from_array(rng.random((120, 3)))
    path = tmp_path / "warm.store"
    save_store(db, path)
    backend = open_store(path, cache_bytes=CACHE_BYTES)
    algo = ThresholdAlgorithm()
    first = algo.run_on(backend, AVERAGE, 5)
    first_valve = backend.page_cache.snapshot()
    second = algo.run_on(backend, AVERAGE, 5)
    second_valve = backend.page_cache.snapshot()
    assert signature(first) == signature(second)
    assert second_valve["misses"] > first_valve["misses"]
    # the valve moved; the accounting did not
    assert first.stats == second.stats


def test_valve_fires_mid_query_on_both_store_layouts(tmp_path):
    """Large enough that every engine crosses several chunk boundaries
    and slices its gathers: on the plain and the sharded store the
    valve releases the map repeatedly *within* each query, and every
    answer -- items, tie order, AccessStats, halting -- still equals
    the scalar reference."""
    rng = np.random.default_rng(5)
    db = Database.from_array(rng.random((3000, 3)))
    for label, backend in store_backends(db, tmp_path):
        assert backend.page_cache.slice_rows == 8, label  # the row floor
        for algo, cost_model in algorithms_for(3):
            kwargs = {} if cost_model is None else {"cost_model": cost_model}
            expected = signature(algo.run_on(db, AVERAGE, 10, **kwargs))
            before = backend.page_cache.snapshot()["misses"]
            result = algo.run_on(backend, AVERAGE, 10, **kwargs)
            assert signature(result) == expected, (label, algo.name)
            # more releases than the one a session makes when it opens
            assert backend.page_cache.snapshot()["misses"] - before > 1, (
                label,
                algo.name,
            )
