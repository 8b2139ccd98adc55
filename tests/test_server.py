"""The concurrent query service, locked down by a differential load
suite.

The contract under test (see :mod:`repro.server`): any mix of
concurrent top-k queries -- mixed engines (TA, TA(cache), NRA, CA,
Stream-Combine), mixed k, overlapping and disjoint list subsets, run
directly on a local database (in RAM, sharded, store-backed or
mutable) or through the scan cache over services (shared or private
scans), embedded or over a live socket -- returns **bit-identically**
what each query's solo scalar-reference run returns: items, grades,
bounds, halting reason, tie order, round count, and the full per-list
``AccessStats``.  Scan sharing and cooperative scheduling must be
invisible in every observable except wall-clock and the uncharged
cache counters.

Tests that need a query to stay queued or running use one of two
devices: simulated service latency, which only the scan-cache path
(``services=``) has, or, on the direct path, a ``gated`` aggregation
that parks the engine's worker until the test releases it.

Riding along: the scheduler's band discipline, the scan cache's
demand watermark, admission/fairness (FIFO, bounded queue,
``AdmissionError`` on overflow), per-query billing (every terminal
query posts a bill whose charges equal its ``AccessStats``), the wire
result codec, and chaos -- client disconnects mid-query, per-query
budgets expiring among co-scheduled queries, and a SIGKILLed replica
under concurrent load.
"""

from __future__ import annotations

import asyncio
import gc
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import CombinedAlgorithm, HaltReason, NoRandomAccessAlgorithm
from repro.aggregation import AVERAGE
from repro.aggregation.standard import Average
from repro.middleware import (
    AccessSession,
    ColumnarDatabase,
    Database,
    DatabaseError,
    MutableColumnarDatabase,
    MutableShardedDatabase,
)
from repro.middleware.cost import CostModel, QueryBudget
from repro.middleware.errors import (
    AdmissionError,
    QueryCancelledError,
    UnknownQueryError,
)
from repro.resilience import ReplicaFleet, verify_against_oracle
from repro.server import (
    AGGREGATIONS,
    ALGORITHMS,
    QueryServer,
    QueryService,
    QueryServiceClient,
    QuerySpec,
    QueryStatus,
    ScanCache,
    Scheduler,
    decode_result,
    encode_result,
)
from repro.obs import Observability
from repro.server.service import AdmissionPolicy
from repro.services import (
    LatencyModel,
    SharedListScan,
    services_for_database,
)
from repro.store import open_store, save_store

from tests.helpers import (
    QueryCase,
    reference_signatures,
    result_signature,
    run_async,
    run_query_matrix,
)

pytestmark = pytest.mark.async_services

ALGORITHM_NAMES = sorted(ALGORITHMS)
AGGREGATION_NAMES = sorted(AGGREGATIONS)


@pytest.fixture(scope="module")
def db() -> Database:
    rng = np.random.default_rng(61)
    return Database.from_array(rng.integers(0, 12, (48, 4)) / 11.0)


def scan_service(db, latency=None, **service_kwargs) -> QueryService:
    """A service over simulated services of ``db``: the scan-cache
    path, where queries can be slowed by service latency."""
    return QueryService(
        services_for_database(db, latency=latency), **service_kwargs
    )


class Gate(Average):
    """``average`` whose batch evaluation parks the calling engine
    worker until :attr:`release` is set (signalling :attr:`entered`
    first): a direct-path query held queued or running on demand."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def aggregate_batch(self, rows):
        self.entered.set()
        assert self.release.wait(30), "gate never released"
        return super().aggregate_batch(rows)


class CountingGate(Gate):
    """``gated`` that parks the engine only on its ``park_at``-th
    batch evaluation (1-based); the evaluations before it run freely."""

    def __init__(self, park_at: int):
        super().__init__()
        self.park_at = park_at
        self.calls = 0

    def aggregate_batch(self, rows):
        self.calls += 1
        if self.calls == self.park_at:
            return super().aggregate_batch(rows)
        return Average.aggregate_batch(self, rows)


class StatsRecorder(Average):
    """``average`` that snapshots its session's ``AccessStats`` at
    every batch evaluation."""

    def __init__(self, session: AccessSession):
        self.session = session
        self.snapshots = []

    def aggregate_batch(self, rows):
        self.snapshots.append(self.session.stats())
        return super().aggregate_batch(rows)


@pytest.fixture
def gate(monkeypatch):
    gate = Gate()
    monkeypatch.setitem(AGGREGATIONS, "gated", gate)
    yield gate
    gate.release.set()


def through_service(make_service):
    """An ``execute`` callback for :func:`run_query_matrix`: run every
    case concurrently through one embedded QueryService built by
    ``make_service``, checking each bill against its result on the way
    out."""

    def execute(cases):
        with make_service().start() as service:
            handles = [service.submit(case.spec()) for case in cases]
            results = [handle.result(timeout=60) for handle in handles]
            for handle, result in zip(handles, results):
                bill = handle.bill()
                assert bill.outcome == "ok"
                assert bill.sorted_accesses == result.stats.sorted_accesses
                assert bill.random_accesses == result.stats.random_accesses
                assert bill.middleware_cost == result.stats.middleware_cost
                assert bill.halt_reason == result.halt_reason
            return results

    return execute


# ---------------------------------------------------------------------------
# the scheduler
# ---------------------------------------------------------------------------
class TestScheduler:
    def test_timed_calls_fire_in_due_order(self):
        async def go():
            order = []
            scheduler = Scheduler().start()
            scheduler.call_later(0.04, order.append, "late")
            scheduler.call_later(0.01, order.append, "early")
            scheduler.call_later(0.0, order.append, "now")
            await asyncio.sleep(0.1)
            await scheduler.stop()
            return order

        assert run_async(go()) == ["now", "early", "late"]

    def test_idle_started_service_sleeps(self, db):
        """With nothing queued the scheduler sleeps until its next
        timed call (the housekeeping sweep), so an idle service runs a
        handful of callbacks, not a busy loop."""
        with QueryService(database=db).start() as service:
            before = sum(service.stats()["scheduler"]["ran"].values())
            time.sleep(0.5)
            after = sum(service.stats()["scheduler"]["ran"].values())
        assert after - before < 100

    def test_cancelled_call_never_runs(self):
        async def go():
            ran = []
            scheduler = Scheduler().start()
            call = scheduler.call_soon(ran.append, "no")
            call.cancel()
            scheduler.call_soon(ran.append, "yes")
            await asyncio.sleep(0.02)
            await scheduler.stop()
            return ran

        assert run_async(go()) == ["yes"]

    def test_callback_failure_is_contained(self):
        async def go():
            ran = []
            scheduler = Scheduler().start()
            scheduler.call_soon(lambda: 1 / 0)
            scheduler.call_soon(ran.append, "survived")
            await asyncio.sleep(0.02)
            await scheduler.stop()
            return ran, list(scheduler.failures)

        ran, failures = run_async(go())
        assert ran == ["survived"]
        assert len(failures) == 1 and isinstance(failures[0], ZeroDivisionError)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Scheduler().call_later(-0.1, print)


# ---------------------------------------------------------------------------
# the scan cache
# ---------------------------------------------------------------------------
class _LoopThread:
    """A bare running event loop on a daemon thread (scan fetchers are
    loop-affine; the tests drive them from the main thread the way
    worker threads do in the service)."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.thread.start()

    def run(self, coro, timeout=30.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(
            timeout
        )

    def close(self):
        async def drain():
            tasks = [
                t
                for t in asyncio.all_tasks()
                if t is not asyncio.current_task()
            ]
            for t in tasks:
                t.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

        self.run(drain(), timeout=5.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=5.0)
        if not self.thread.is_alive():
            self.loop.close()


@pytest.fixture
def loop_thread():
    lt = _LoopThread()
    yield lt
    lt.close()


class TestScanCache:
    def test_demand_materializes_prefix_in_global_order(
        self, db, loop_thread
    ):
        services = services_for_database(db)
        scan = SharedListScan(services[0], loop_thread.loop, batch_size=8)
        try:
            scan.demand(20)
            with scan.cond:
                scan.cond.wait_for(lambda: len(scan.objects) >= 20, 10.0)
            assert len(scan.objects) >= 20
            entries = list(zip(scan.objects, scan.grades))
            assert entries == [
                db.sorted_entry(0, pos) for pos in range(len(entries))
            ]
        finally:
            loop_thread.run(scan.aclose())

    def test_no_demand_costs_nothing(self, db, loop_thread):
        scan = SharedListScan(
            services_for_database(db)[0], loop_thread.loop, batch_size=8
        )
        time.sleep(0.05)
        assert scan.pages_fetched == 0 and scan.materialized() == 0
        loop_thread.run(scan.aclose())

    def test_shared_mode_reuses_one_scan_per_list(self, db, loop_thread):
        cache = ScanCache(services_for_database(db), loop_thread.loop)
        try:
            a = cache.scans_for([0, 2])
            b = cache.scans_for([2, 0])
            assert a[0] is b[1] and a[1] is b[0]
            assert cache.scan(1) is cache.scans_for([1])[0]
        finally:
            loop_thread.run(cache.aclose())

    def test_private_mode_isolates_checkouts(self, db, loop_thread):
        cache = ScanCache(
            services_for_database(db), loop_thread.loop, shared=False
        )
        try:
            a = cache.scans_for([0])
            b = cache.scans_for([0])
            assert a[0] is not b[0]
            with pytest.raises(DatabaseError):
                cache.scan(0)
        finally:
            loop_thread.run(cache.aclose())

    def test_checkout_rejects_bad_lists(self, db, loop_thread):
        cache = ScanCache(services_for_database(db), loop_thread.loop)
        try:
            with pytest.raises(DatabaseError):
                cache.checkout([0, 0])
            with pytest.raises(DatabaseError):
                cache.checkout([db.num_lists])
        finally:
            loop_thread.run(cache.aclose())

    def test_sessions_share_one_cursor_with_private_charging(
        self, db, loop_thread
    ):
        """Two sessions at different depths over the same scan: each is
        charged exactly its own prefix, the deep session's pages are
        uncharged speculation for the shallow one, and the underlying
        cursor was paged once."""
        cache = ScanCache(
            services_for_database(db), loop_thread.loop, batch_size=8
        )
        try:
            deep = cache.checkout([0], query_id="deep")
            shallow = cache.checkout([0], query_id="shallow")
            with deep, shallow:
                for pos in range(24):
                    assert deep.sorted_access(0) == db.sorted_entry(0, pos)
                for pos in range(3):
                    assert shallow.sorted_access(0) == db.sorted_entry(0, pos)
                assert deep.stats().sorted_accesses == 24
                assert shallow.stats().sorted_accesses == 3
            scan = cache.scan(0)
            assert scan.attached == 0 and scan.peak_attached == 2
            # one shared cursor: ~24/8 pages + readahead, nowhere near
            # the 27 accesses the two sessions consumed together
            assert scan.pages_fetched <= 6
        finally:
            loop_thread.run(cache.aclose())

    def test_cancelled_session_charges_only_consumed_prefix(
        self, db, loop_thread
    ):
        cache = ScanCache(services_for_database(db), loop_thread.loop)
        try:
            session = cache.checkout([0, 1], query_id="doomed")
            with session:
                for _ in range(5):
                    session.sorted_access(0)
                session.cancel()
                with pytest.raises(QueryCancelledError):
                    session.sorted_access(0)
                with pytest.raises(QueryCancelledError):
                    session.random_access(1, next(iter(db.objects)))
                stats = session.stats()
                assert stats.sorted_accesses == 5
                assert stats.random_accesses == 0
                assert stats.middleware_cost == 5.0
        finally:
            loop_thread.run(cache.aclose())


# ---------------------------------------------------------------------------
# property: the shared-scan state machine
# ---------------------------------------------------------------------------
class SharedScanMachine(RuleBasedStateMachine):
    """Drive attach/consume/detach/cancel on one shared cursor.

    Invariants: the shared materialization is always the exact global
    prefix of the list's sorted order; every live session sees entries
    at *its own* position matching that prefix; a session's charge
    always equals the count it consumed; cancellation freezes the
    charge at the consumed prefix."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(79)
        self.db = Database.from_array(rng.integers(0, 6, (25, 2)) / 5.0)
        self.lt = _LoopThread()
        self.cache = ScanCache(
            services_for_database(self.db), self.lt.loop, batch_size=4
        )
        self.sessions = []  # (session, consumed, cancelled)
        self.next_id = 0

    @rule()
    def checkout(self):
        if len(self.sessions) >= 6:
            return
        self.next_id += 1
        session = self.cache.checkout(
            [0, 1], query_id=f"sm-{self.next_id}"
        )
        self.sessions.append([session, [0, 0], False])

    @precondition(lambda self: self.sessions)
    @rule(pick=st.integers(0, 5), list_index=st.integers(0, 1),
          steps=st.integers(1, 7))
    def consume(self, pick, list_index, steps):
        session, consumed, cancelled = self.sessions[
            pick % len(self.sessions)
        ]
        for _ in range(steps):
            if cancelled:
                with pytest.raises(QueryCancelledError):
                    session.sorted_access(list_index)
                return
            position = consumed[list_index]
            entry = session.sorted_access(list_index)
            if position < self.db.num_objects:
                assert entry == self.db.sorted_entry(list_index, position)
                consumed[list_index] = position + 1
            else:
                assert entry is None  # exhaustion is free

    @precondition(lambda self: self.sessions)
    @rule(pick=st.integers(0, 5))
    def cancel(self, pick):
        entry = self.sessions[pick % len(self.sessions)]
        entry[0].cancel()
        entry[2] = True

    @precondition(lambda self: self.sessions)
    @rule(pick=st.integers(0, 5))
    def detach(self, pick):
        session, consumed, cancelled = self.sessions.pop(
            pick % len(self.sessions)
        )
        # closing must leave the charge at exactly the consumed prefix
        stats = session.stats()
        charged = min(sum(consumed), stats.sorted_accesses)
        session.close()
        assert session.stats().sorted_accesses == stats.sorted_accesses
        assert stats.sorted_accesses == charged

    @invariant()
    def shared_prefix_is_the_global_prefix(self):
        for i in range(2):
            scan = self.cache.scan(i)
            with scan.cond:
                entries = list(zip(scan.objects, scan.grades))
            assert entries == [
                self.db.sorted_entry(i, pos) for pos in range(len(entries))
            ]

    @invariant()
    def every_charge_equals_consumption(self):
        for session, consumed, _cancelled in self.sessions:
            stats = session.stats()
            assert stats.sorted_accesses == sum(consumed)
            assert stats.sorted_by_list.get(0, 0) == consumed[0]
            assert stats.sorted_by_list.get(1, 0) == consumed[1]

    def teardown(self):
        for session, _consumed, _cancelled in self.sessions:
            session.close()
        self.lt.run(self.cache.aclose())
        self.lt.close()


def test_shared_scan_state_machine():
    run_state_machine_as_test(
        SharedScanMachine,
        settings=settings(
            max_examples=12,
            stateful_step_count=25,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )


# ---------------------------------------------------------------------------
# the differential load suite (embedded service)
# ---------------------------------------------------------------------------
def mixed_cases():
    """A fixed mix: every engine family, mixed k, overlapping and
    disjoint list subsets, non-unit cost models."""
    return [
        QueryCase("ta", "min", 3),
        QueryCase("ta", "sum", 7, lists=(0, 1)),
        QueryCase("ta-seen", "average", 5),
        QueryCase("nra", "min", 2, lists=(1, 2, 3)),
        QueryCase("nra", "median", 6),
        QueryCase("ca", "average", 4, sorted_cost=1.0, random_cost=5.0),
        QueryCase("ca", "max", 3, lists=(2, 3)),
        QueryCase("stream-combine", "min", 5),
        QueryCase("stream-combine", "product", 2, lists=(0, 3)),
        QueryCase("ta", "min", 1, lists=(2,)),
        QueryCase("nra", "sum", 8, lists=(3, 1)),
        QueryCase("ta", "average", 4, sorted_cost=2.0, random_cost=3.0),
    ]


class TestDifferentialLoad:
    def test_concurrent_mix_is_bit_identical_shared(self, db):
        run_query_matrix(
            db, mixed_cases(), through_service(lambda: scan_service(db))
        )

    def test_concurrent_mix_is_bit_identical_private_scans(self, db):
        run_query_matrix(
            db,
            mixed_cases(),
            through_service(lambda: scan_service(db, share_scans=False)),
        )

    def test_concurrent_mix_under_latency_and_narrow_admission(self, db):
        run_query_matrix(
            db,
            mixed_cases(),
            through_service(
                lambda: scan_service(
                    db,
                    latency=LatencyModel(base=0.001, jitter=0.001, seed=5),
                    admission=AdmissionPolicy(max_active=2),
                    batch_size=8,
                )
            ),
        )

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(data=st.data())
    def test_random_concurrent_mixes(self, db, data):
        """Hypothesis drives the mix: random engines, aggregations, k,
        list subsets, and submission interleavings."""
        m = db.num_lists
        subset = st.permutations(list(range(m))).flatmap(
            lambda perm: st.integers(1, m).map(
                lambda size: tuple(perm[:size])
            )
        )
        case = st.builds(
            QueryCase,
            algorithm=st.sampled_from(ALGORITHM_NAMES),
            aggregation=st.sampled_from(AGGREGATION_NAMES),
            k=st.integers(1, 8),
            lists=st.one_of(st.none(), subset),
            sorted_cost=st.sampled_from([1.0, 2.0]),
            random_cost=st.sampled_from([1.0, 5.0]),
            # CA requires cR >= cS (h = floor(cR/cS) >= 1)
        ).filter(
            lambda c: c.algorithm != "ca" or c.random_cost >= c.sorted_cost
        )
        cases = data.draw(st.lists(case, min_size=1, max_size=10))
        admission = AdmissionPolicy(max_active=data.draw(st.integers(1, 6)))
        batch_size = data.draw(st.one_of(st.none(), st.sampled_from([4, 16, 64])))
        if batch_size is None:  # the direct path
            make = lambda: QueryService(database=db, admission=admission)
        else:
            make = lambda: scan_service(
                db, admission=admission, batch_size=batch_size
            )
        run_query_matrix(db, cases, through_service(make))


# ---------------------------------------------------------------------------
# admission, billing, cancellation (embedded service)
# ---------------------------------------------------------------------------
class TestServiceSemantics:
    def test_private_scans_die_with_their_query(self):
        """``share_scans=False``: each query's scans stop when it ends,
        so neither the loop's tasks nor the cache's scans grow with the
        number of queries served."""
        rng = np.random.default_rng(67)
        deep = Database.from_array(rng.random((400, 3)))
        spec = QuerySpec(algorithm="nra", aggregation="average", k=5)

        def loop_footprint(service) -> int:
            async def count():
                return len(asyncio.all_tasks())

            return asyncio.run_coroutine_threadsafe(
                count(), service._loop
            ).result(timeout=5)

        def settled(service, most: int) -> int:
            # a finished query's scans stop on the loop a moment later
            deadline = time.monotonic() + 2.0
            tasks = loop_footprint(service)
            while tasks > most and time.monotonic() < deadline:
                time.sleep(0.01)
                tasks = loop_footprint(service)
            return tasks

        with scan_service(deep, share_scans=False).start() as service:
            idle = loop_footprint(service)
            for served in (1, 6):
                for _ in range(served):
                    service.submit(spec).result(timeout=60)
                assert settled(service, idle) <= idle
                assert service.stats()["cache"]["scans"] == []

    def test_invalid_specs_fail_at_submission(self, db):
        with QueryService(database=db).start() as service:
            for spec in [
                QuerySpec(algorithm="nope", aggregation="min", k=3),
                QuerySpec(algorithm="ta", aggregation="nope", k=3),
                QuerySpec(algorithm="ta", aggregation="min", k=10_000),
                QuerySpec(algorithm="ta", aggregation="min", k=3,
                          lists=(0, 0)),
                QuerySpec(algorithm="ta", aggregation="min", k=3,
                          lists=(99,)),
            ]:
                with pytest.raises(ValueError):
                    service.submit(spec)
            assert len(service.bills()) == 0  # nothing was admitted

    def test_fifo_queue_and_admission_refusal(self, db):
        with scan_service(
            db,
            latency=LatencyModel(base=0.02),
            admission=AdmissionPolicy(max_active=1, max_queued=2),
        ).start() as service:
            specs = [
                QuerySpec(algorithm="nra", aggregation="average", k=3)
                for _ in range(3)
            ]
            handles = [service.submit(s) for s in specs]
            with pytest.raises(AdmissionError):
                service.submit(specs[0])  # 1 running + 2 queued = full
            results = [h.result(timeout=60) for h in handles]
            # FIFO: bills post in submission order
            assert [b.query_id for b in service.bills()] == [
                h.query_id for h in handles
            ]
            references = reference_signatures(
                db, [QueryCase("nra", "average", 3)] * 3
            )
            for result, reference in zip(results, references):
                assert result_signature(result) == reference

    def test_cancel_queued_query_posts_zero_access_bill(self, db):
        with scan_service(
            db,
            latency=LatencyModel(base=0.05),
            admission=AdmissionPolicy(max_active=1),
        ).start() as service:
            running = service.submit(
                QuerySpec(algorithm="ta", aggregation="min", k=3)
            )
            queued = service.submit(
                QuerySpec(algorithm="ta", aggregation="min", k=3)
            )
            assert queued.cancel() is True
            with pytest.raises(QueryCancelledError):
                queued.result(timeout=10)
            bill = queued.bill()
            assert bill.outcome == "cancelled"
            assert bill.sorted_accesses == 0
            assert bill.random_accesses == 0
            assert bill.middleware_cost == 0.0
            assert running.result(timeout=30).halt_reason  # undisturbed
            assert queued.cancel() is False  # already terminal

    def test_cancel_running_query_charges_consumed_prefix_only(self, db):
        with scan_service(
            db, latency=LatencyModel(base=0.01)
        ).start() as service:
            handle = service.submit(
                QuerySpec(algorithm="nra", aggregation="average", k=5)
            )
            while service.status(handle.query_id)["status"] == "queued":
                time.sleep(0.001)
            time.sleep(0.03)  # let it consume a few pages
            handle.cancel()
            with pytest.raises(QueryCancelledError):
                handle.result(timeout=30)
            bill = handle.bill()
            assert bill.outcome == "cancelled"
            # charged exactly cS*s + cR*r for the consumed prefix
            assert bill.middleware_cost == float(
                bill.sorted_accesses + bill.random_accesses
            )

    def test_unknown_query_id_raises(self, db):
        with QueryService(database=db).start() as service:
            with pytest.raises(UnknownQueryError):
                service.result("q99999")
            with pytest.raises(UnknownQueryError):
                service.cancel("q99999")

    def test_ledger_totals_aggregate_outcomes(self, db):
        cases = mixed_cases()[:4]
        with QueryService(database=db).start() as service:
            handles = [service.submit(c.spec()) for c in cases]
            for handle in handles:
                handle.result(timeout=30)
            totals = service.ledger.totals()
            assert totals["queries"] == 4
            assert totals["by_outcome"] == {"ok": 4}
            assert totals["sorted_accesses"] == sum(
                b.sorted_accesses for b in service.bills()
            )


# ---------------------------------------------------------------------------
# the direct path: database= runs the columnar engines on the database
# ---------------------------------------------------------------------------
BACKENDS = (
    "columnar", "sharded", "store", "store-sharded", "mutable",
    "mutable-sharded",
)


def backend_of(db, kind, tmp_path):
    """``db``'s contents on the backend ``kind`` (same tie order)."""
    if kind == "columnar":
        return db.to_columnar()
    if kind == "sharded":
        return db.to_sharded(3)
    if kind.startswith("store"):
        path = tmp_path / f"{kind}.store"
        save_store(db.to_sharded(3) if kind == "store-sharded" else db, path)
        # a 1-byte residency budget: the valve releases the map at
        # every check, so queries keep faulting pages back in
        return open_store(path, cache_bytes=1)
    if kind == "mutable":
        return MutableColumnarDatabase.from_database(db)
    return MutableShardedDatabase.from_database(db, num_shards=3)


def reordered_cases():
    """The mixed cases plus list subsets given out of order."""
    return mixed_cases() + [
        QueryCase("ta", "average", 4, lists=(3, 1)),
        QueryCase("ca", "sum", 3, lists=(2, 0, 3), random_cost=5.0),
        QueryCase("stream-combine", "max", 2, lists=(1, 0)),
        QueryCase("ta-seen", "min", 3, lists=(3, 2, 1, 0)),
    ]


class TestDirectDatabasePath:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_concurrent_mix_is_bit_identical(self, db, kind, tmp_path):
        backend = backend_of(db, kind, tmp_path)

        def make():
            service = QueryService(
                database=backend, admission=AdmissionPolicy(max_active=3)
            )
            assert service.stats()["cache"] == {"shared": False, "scans": []}
            return service

        run_query_matrix(db, reordered_cases(), through_service(make))

    def test_mutated_database_stays_bit_identical(self, db):
        mutable = MutableColumnarDatabase.from_database(db)
        with QueryService(database=mutable).start() as service:
            service.mutate("update", 3, list_index=1, grade=1.0)
            service.mutate("insert", "new", grades=[0.5, 0.25, 1.0, 0.75])
            service.mutate("delete", 7)
            ids, matrix = mutable.to_array()

            def execute(cases):
                handles = [service.submit(case.spec()) for case in cases]
                return [handle.result(timeout=30) for handle in handles]

            run_query_matrix(
                Database.from_array(matrix, object_ids=ids),
                reordered_cases(),
                execute,
            )
            assert service.scan_cache is None

    def test_cancel_queued_query_posts_zero_access_bill(self, db, gate):
        with QueryService(
            database=db, admission=AdmissionPolicy(max_active=1)
        ).start() as service:
            running = service.submit(
                QuerySpec(algorithm="ta", aggregation="gated", k=3)
            )
            assert gate.entered.wait(10)
            queued = service.submit(
                QuerySpec(algorithm="ta", aggregation="average", k=3)
            )
            assert service.status(queued.query_id)["status"] == "queued"
            assert queued.cancel() is True
            with pytest.raises(QueryCancelledError):
                queued.result(timeout=10)
            bill = queued.bill()
            assert bill.outcome == "cancelled"
            assert (bill.sorted_accesses, bill.random_accesses) == (0, 0)
            gate.release.set()
            assert result_signature(running.result(timeout=30)) == (
                reference_signatures(db, [QueryCase("ta", "average", 3)])[0]
            )

    def test_cancel_running_query_charges_consumed_prefix_only(
        self, db, gate
    ):
        full = reference_signatures(db, [QueryCase("nra", "average", 5)])[0]
        with QueryService(database=db).start() as service:
            handle = service.submit(
                QuerySpec(algorithm="nra", aggregation="gated", k=5)
            )
            assert gate.entered.wait(10)
            assert service.status(handle.query_id)["status"] == "running"
            assert handle.cancel() is True
            gate.release.set()
            with pytest.raises(QueryCancelledError):
                handle.result(timeout=30)
            bill = handle.bill()
            assert bill.outcome == "cancelled"
            assert bill.middleware_cost == float(
                bill.sorted_accesses + bill.random_accesses
            )
            assert bill.sorted_accesses <= full[1]
            # the worker slot is free again
            assert service.submit(
                QuerySpec(algorithm="ta", aggregation="min", k=2)
            ).result(timeout=30).halt_reason

    def test_cancel_running_ca_query_bills_the_charged_prefix(
        self, monkeypatch
    ):
        """CA's columnar engine charges each chunk, phases included, in
        one ``charge_schedule`` call, which must honour cancellation: a
        CA query cancelled while parked mid-chunk raises at that call,
        and its bill is the prefix charged when it parked, priced at
        ``cS*s + cR*r``."""
        grades = np.random.default_rng(3).random((2000, 4))
        session = AccessSession(
            ColumnarDatabase.from_array(grades), CostModel(1.0, 5.0)
        )
        recorder = StatsRecorder(session)
        full = CombinedAlgorithm().run(session, recorder, 5)
        # park on the first evaluation after a phase was charged: a
        # later chunk, with more charges still to come
        park_at = next(
            n
            for n, stats in enumerate(recorder.snapshots, 1)
            if stats.random_accesses
        )
        prefix = recorder.snapshots[park_at - 1]
        assert prefix.sorted_accesses < full.stats.sorted_accesses
        gate = CountingGate(park_at)
        monkeypatch.setitem(AGGREGATIONS, "gated", gate)
        with QueryService(database=Database.from_array(grades)).start() as service:
            handle = service.submit(
                QuerySpec(
                    algorithm="ca", aggregation="gated", k=5, random_cost=5.0
                )
            )
            try:
                assert gate.entered.wait(10)
                assert service.status(handle.query_id)["status"] == "running"
                assert handle.cancel() is True
            finally:
                gate.release.set()
            with pytest.raises(QueryCancelledError):
                handle.result(timeout=30)
            bill = handle.bill()
        assert bill.outcome == "cancelled"
        assert (bill.sorted_accesses, bill.random_accesses) == (
            prefix.sorted_accesses,
            prefix.random_accesses,
        )
        assert bill.middleware_cost == (
            1.0 * prefix.sorted_accesses + 5.0 * prefix.random_accesses
        )

    def test_finished_query_releases_its_session(self, db, gate, monkeypatch):
        """Neither the tracked query state nor its sealed probe (kept
        by the tracer's ring) holds the session once the bill is
        posted, so a finished query's seen-object set dies with it."""
        sessions = []
        open_session = QueryService._open_session

        def spy(self, state):
            session = open_session(self, state)
            sessions.append(weakref.ref(session))
            return session

        monkeypatch.setattr(QueryService, "_open_session", spy)
        obs = Observability(slow_query_threshold=0.0)
        with QueryService(database=db, obs=obs).start() as service:
            handles = [service.submit(c.spec()) for c in mixed_cases()]
            for handle in handles:
                handle.result(timeout=30)
            doomed = service.submit(
                QuerySpec(algorithm="nra", aggregation="gated", k=2)
            )
            assert gate.entered.wait(10)
            doomed.cancel()
            gate.release.set()
            with pytest.raises(QueryCancelledError):
                doomed.result(timeout=30)
            deadline = time.monotonic() + 10
            while service.stats()["active"] and time.monotonic() < deadline:
                time.sleep(0.01)
            # the executor's worker drops its work item (which holds the
            # session argument) only after the future it resolved has
            # woken the loop, so the last session may outlive "inactive"
            # by a few microseconds
            deadline = time.monotonic() + 10
            gc.collect()
            while (
                any(ref() is not None for ref in sessions)
                and time.monotonic() < deadline
            ):
                time.sleep(0.001)
                gc.collect()
            assert len(sessions) == len(handles) + 1
            assert [ref() for ref in sessions] == [None] * len(sessions)
            trace = obs.tracer.find(handles[0].query_id)
            assert trace.probe.total_cost == handles[0].bill().middleware_cost

    def test_source_ops_follow_every_write(self):
        """The source ops read the database's current snapshot: after
        each insert, update and delete, ``page`` serves the new
        contents and ``meta``/``run_page`` the new runs."""
        from repro.services import network_client

        rng = np.random.default_rng(5)
        mutable = MutableShardedDatabase.from_array(
            rng.random((30, 3)), num_shards=2
        )
        service = QueryService(database=mutable)
        server = QueryServer(service)

        def column(i):
            return [
                mutable.sorted_entry(i, pos)
                for pos in range(mutable.num_objects)
            ]

        with server:
            server.start_in_thread()
            client = network_client(server.address)

            async def page(i):
                reply = await client.request(
                    {"op": "page", "src": i, "start": 0, "count": 100}
                )
                return list(zip(reply["objects"], reply["grades"].tolist()))

            async def runs(i):
                meta = await client.fetch_metadata()
                served = []
                for s, length in enumerate(meta["runs"][i]):
                    reply = await client.request(
                        {
                            "op": "run_page",
                            "list": i,
                            "shard": s,
                            "start": 0,
                            "count": length + 1,
                        }
                    )
                    served.append(
                        [reply[key].tolist() for key in ("rows", "grades", "ties")]
                    )
                return served

            def want_runs(i):
                return [
                    [part.tolist() for part in run]
                    for run in mutable.list_runs(i)
                ]

            async def go():
                try:
                    assert await page(2) == column(2)
                    for action, obj, kwargs in (
                        ("insert", 99, {"grades": [0.5, 0.5, 0.5]}),
                        ("update", 4, {"list_index": 0, "grade": 1.0}),
                        ("delete", 11, {}),
                    ):
                        service.mutate(action, obj, **kwargs)
                        for i in range(3):
                            assert await page(i) == column(i)
                            assert await runs(i) == want_runs(i)
                finally:
                    await client.aclose()

            run_async(go())


# ---------------------------------------------------------------------------
# the wire path
# ---------------------------------------------------------------------------
class TestResultCodec:
    def test_roundtrip_is_lossless(self, db):
        for name in ALGORITHM_NAMES:
            result = ALGORITHMS[name]().run_on(db, AVERAGE, 5)
            again = decode_result(encode_result(result))
            assert result_signature(again) == result_signature(result)
            assert again.depth == result.depth
            assert again.max_buffer_size == result.max_buffer_size
            assert again.stats.depth == result.stats.depth
            assert (
                again.stats.distinct_objects_seen
                == result.stats.distinct_objects_seen
            )

    def test_spec_roundtrip(self):
        spec = QuerySpec(
            algorithm="ca", aggregation="median", k=7, lists=(2, 0),
            sorted_cost=2.0, random_cost=9.0, deadline_s=1.5,
            max_cost=100.0, forbid_wild_guesses=True,
        )
        assert QuerySpec.from_dict(spec.as_dict()) == spec

    def test_spec_from_dict_rejects_garbage(self):
        for bad in [
            "not a dict",
            {},
            {"algorithm": "ta", "aggregation": "min", "k": 0},
            {"algorithm": "ta", "aggregation": "min", "k": True},
            {"algorithm": "ta", "aggregation": "min", "k": 3,
             "lists": ["x"]},
            {"algorithm": "ta", "aggregation": "min", "k": 3,
             "sorted_cost": "cheap"},
        ]:
            with pytest.raises(ValueError):
                QuerySpec.from_dict(bad)


class TestQueryServer:
    def test_live_socket_load_200_queries_bit_identical(self, db):
        """The acceptance bar: >= 200 concurrent mixed-algorithm
        queries over a real socket, every one bit-identical (result
        AND per-query AccessStats) to its solo scalar-reference run,
        every bill charged exactly its own consumption."""
        base = mixed_cases()
        cases = [base[i % len(base)] for i in range(204)]
        references = reference_signatures(db, cases)

        service = QueryService(
            database=db, admission=AdmissionPolicy(max_active=8)
        )
        server = QueryServer(service)
        with server:
            server.start_in_thread()
            host, port = server.address

            async def fire():
                client = QueryServiceClient(
                    host, port, request_timeout=120.0
                )
                try:
                    return await client.run_queries(
                        [case.spec() for case in cases]
                    )
                finally:
                    await client.aclose()

            outcomes = run_async(fire())
        assert len(outcomes) == len(cases)
        for index, (outcome, reference) in enumerate(
            zip(outcomes, references)
        ):
            assert not isinstance(outcome, BaseException), (index, outcome)
            assert result_signature(outcome.result) == reference, index
            bill = outcome.bill
            assert bill["outcome"] == "ok"
            assert (
                bill["sorted_accesses"]
                == outcome.result.stats.sorted_accesses
            )
            assert (
                bill["middleware_cost"]
                == outcome.result.stats.middleware_cost
            )
        totals = service.ledger.totals()
        assert totals["queries"] == len(cases)
        assert totals["by_outcome"] == {"ok": len(cases)}

    def test_wire_errors_map_to_inprocess_types(self, db):
        server = QueryServer(QueryService(database=db))
        with server:
            server.start_in_thread()
            host, port = server.address

            async def go():
                client = QueryServiceClient(host, port)
                try:
                    with pytest.raises(ValueError):
                        await client.submit_query(
                            {"algorithm": "nope", "aggregation": "min",
                             "k": 3}
                        )
                    with pytest.raises(UnknownQueryError):
                        await client.query_status("q04242")
                    qid = await client.submit_query(
                        QuerySpec(algorithm="ta", aggregation="min", k=2)
                    )
                    outcome = await client.stream_result(qid)
                    assert outcome.result.k == 2
                    # results are single-shot; cancel after terminal
                    assert await client.cancel_query(qid) is False
                finally:
                    await client.aclose()

            run_async(go())

    def test_admission_refusal_travels_as_admission_error(self, db):
        service = scan_service(
            db,
            latency=LatencyModel(base=0.05),
            admission=AdmissionPolicy(max_active=1, max_queued=1),
        )
        server = QueryServer(service)
        with server:
            server.start_in_thread()
            host, port = server.address

            async def go():
                client = QueryServiceClient(host, port)
                try:
                    spec = QuerySpec(
                        algorithm="nra", aggregation="average", k=3
                    )
                    first = await client.submit_query(spec)
                    await client.submit_query(spec)  # fills the queue
                    with pytest.raises(AdmissionError):
                        await client.submit_query(spec)
                    outcome = await client.stream_result(first)
                    assert outcome.bill["outcome"] == "ok"
                finally:
                    await client.aclose()

            run_async(go())

    def test_timed_out_poll_leaves_the_query_collectable(self, db):
        """A result long-poll that times out must not consume the
        query it waits on: a later poll still collects the result, and
        a cancel after a timed-out poll is an ordinary cancel."""
        case = QueryCase("nra", "average", 3)
        service = scan_service(
            db,
            latency=LatencyModel(base=0.05),
            admission=AdmissionPolicy(max_active=1),
        )
        server = QueryServer(service)
        with server:
            server.start_in_thread()
            host, port = server.address

            async def go():
                client = QueryServiceClient(host, port, request_timeout=10.0)

                async def poll(query_id):
                    reply = await client.request(
                        {"op": "result", "query": query_id, "timeout": 0.001},
                        service="query-service",
                    )
                    return reply["done"]

                try:
                    slow = await client.submit_query(case.spec())
                    queued = await client.submit_query(case.spec())
                    assert not await poll(slow)
                    assert not await poll(queued)
                    assert await client.cancel_query(queued) is True
                    with pytest.raises(QueryCancelledError):
                        await client.stream_result(queued)
                    return await client.stream_result(slow)
                finally:
                    await client.aclose()

            outcome = run_async(go())
        assert result_signature(outcome.result) == reference_signatures(
            db, [case]
        )[0]

    def test_caller_supplied_services_export_no_sources(self, db):
        """Only a service built over ``database=`` exports its sources;
        over caller-supplied services the source ops are refused with
        a typed error frame, and ``meta`` lists no sources."""
        from repro.middleware.errors import ServiceUnavailableError
        from repro.services import network_client

        server = QueryServer(QueryService(services_for_database(db)))
        with server:
            server.start_in_thread()
            client = network_client(server.address)

            async def go():
                try:
                    meta = await client.fetch_metadata()
                    assert (meta["sources"], meta["runs"]) == ([], [])
                    assert meta["m"] == db.num_lists
                    with pytest.raises(ServiceUnavailableError):
                        await client.request(
                            {"op": "page", "src": 0, "start": 0, "count": 1}
                        )
                finally:
                    await client.aclose()

            run_async(go())


# ---------------------------------------------------------------------------
# chaos
# ---------------------------------------------------------------------------
class TestChaos:
    def test_client_disconnect_mid_query_frees_attachments(self, db):
        """A client that hangs up abandons its in-flight queries: the
        service cancels them, their scan attachments drop, and a
        cancelled bill is posted -- no leaked worker slots."""
        service = scan_service(db, latency=LatencyModel(base=0.02))
        server = QueryServer(service)
        with server:
            server.start_in_thread()
            host, port = server.address

            async def fire_and_vanish():
                client = QueryServiceClient(host, port)
                try:
                    qid = await client.submit_query(
                        QuerySpec(
                            algorithm="nra", aggregation="average", k=5
                        )
                    )
                    # wait until it is actually running, then hang up
                    while (await client.query_status(qid))[
                        "status"
                    ] == QueryStatus.QUEUED:
                        await asyncio.sleep(0.005)
                finally:
                    client.close()
                return qid

            run_async(fire_and_vanish())
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                totals = service.ledger.totals()
                if totals["by_outcome"].get("cancelled"):
                    break
                time.sleep(0.01)
            totals = service.ledger.totals()
            assert totals["by_outcome"].get("cancelled") == 1
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                scans = service.stats()["cache"]["scans"]
                if all(s["attached"] == 0 for s in scans):
                    break
                time.sleep(0.01)
            assert all(s["attached"] == 0 for s in scans)

    def test_budget_exhaustion_degrades_one_query_not_its_neighbours(
        self,
    ):
        """A co-scheduled query whose cost budget expires halts with
        ``HaltReason.DEADLINE`` and a certified theta; every other
        concurrent query stays bit-identical to its solo reference.

        The columnar engines poll the budget at chunk boundaries (see
        ``QueryBudget``), so the database is deep enough that NRA's
        first 32-round chunk does not finish the query, and the doomed
        query's oracle is the same engine on a direct budgeted
        ``AccessSession``."""
        rng = np.random.default_rng(62)
        db = Database.from_array(rng.random((400, 4)))
        budget = QueryBudget(max_cost=15.0)
        expected = NoRandomAccessAlgorithm().run(
            AccessSession(db.to_columnar(), budget=budget), AVERAGE, 3
        )
        assert expected.halt_reason == HaltReason.DEADLINE
        cases = mixed_cases()[:6]
        references = reference_signatures(db, cases)
        with QueryService(database=db).start() as service:
            doomed = service.submit(
                QuerySpec(
                    algorithm="nra", aggregation="average", k=3,
                    max_cost=budget.max_cost,
                )
            )
            handles = [service.submit(c.spec()) for c in cases]
            degraded = doomed.result(timeout=30)
            results = [h.result(timeout=30) for h in handles]
        assert result_signature(degraded) == result_signature(expected)
        assert degraded.extras["certified_theta"] == (
            expected.extras["certified_theta"]
        )
        assert degraded.extras["certified_theta"] >= 1.0
        assert degraded.stats.middleware_cost >= budget.max_cost
        oracle = {obj: db.grade_vector(obj) for obj in db.objects}
        verify_against_oracle(degraded, oracle, AVERAGE)
        assert doomed.bill().halt_reason == HaltReason.DEADLINE
        for result, reference in zip(results, references):
            assert result_signature(result) == reference

    def test_replica_sigkill_under_concurrent_load_is_bit_identical(
        self, db
    ):
        """r=2 replicas behind every list; one replica of every list is
        SIGKILLed while a concurrent mix is in flight.  Failover
        happens *below* the shared scans, so every query -- including
        those mid-stream -- completes bit-identically to its solo
        scalar-reference run."""
        cases = [
            QueryCase("ta", "min", 3),
            QueryCase("nra", "average", 4),
            QueryCase("ca", "average", 3, sorted_cost=1.0, random_cost=5.0),
            QueryCase("stream-combine", "min", 5),
            QueryCase("ta-seen", "sum", 4, lists=(0, 1, 2)),
            QueryCase("nra", "median", 2, lists=(1, 3)),
        ]
        references = reference_signatures(db, cases)
        with ReplicaFleet(db, replicas=2, latency=0.002) as fleet:
            service = QueryService(
                services=fleet.services(),
                admission=AdmissionPolicy(max_active=len(cases)),
                batch_size=8,
            )
            with service.start():
                handles = [service.submit(c.spec()) for c in cases]
                time.sleep(0.05)  # streams are open and mid-flight ...
                fleet.kill(0)  # ... and replica 0 of every list dies
                results = [h.result(timeout=120) for h in handles]
        for index, (result, reference) in enumerate(
            zip(results, references)
        ):
            assert result_signature(result) == reference, cases[index]
        assert all(b.outcome == "ok" for b in service.bills())
