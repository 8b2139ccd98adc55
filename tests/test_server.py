"""The concurrent query service, locked down by a differential load
suite.

The contract under test (see :mod:`repro.server`): any mix of
concurrent top-k queries -- mixed engines (TA, TA(cache), NRA, CA,
Stream-Combine), mixed k, overlapping and disjoint list subsets,
shared or private scans, embedded or over a live socket -- returns
**bit-identically** what each query's solo scalar-reference run
returns: items, grades, bounds, halting reason, tie order, round
count, and the full per-list ``AccessStats``.  Scan sharing and
cooperative scheduling must be invisible in every observable except
wall-clock and the uncharged cache counters.

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
import threading
import time

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

from repro.core import HaltReason
from repro.aggregation import AVERAGE
from repro.middleware import Database, DatabaseError
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
    SharedListScan,
    decode_result,
    encode_result,
)
from repro.server.service import AdmissionPolicy
from repro.services import services_for_database

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


@pytest.fixture(scope="module")
def oracle(db):
    return {obj: db.grade_vector(obj) for obj in db.objects}


def through_service(db, **service_kwargs):
    """An ``execute`` callback for :func:`run_query_matrix`: run every
    case concurrently through one embedded QueryService, checking each
    bill against its result on the way out."""

    def execute(cases):
        with QueryService(database=db, **service_kwargs).start() as service:
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
            db, mixed_cases(), through_service(db)
        )

    def test_concurrent_mix_is_bit_identical_private_scans(self, db):
        run_query_matrix(
            db,
            mixed_cases(),
            through_service(db, share_scans=False),
        )

    def test_concurrent_mix_under_latency_and_narrow_admission(self, db):
        from repro.services import LatencyModel

        run_query_matrix(
            db,
            mixed_cases(),
            through_service(
                db,
                latency=LatencyModel(base=0.001, jitter=0.001, seed=5),
                admission=AdmissionPolicy(max_active=2),
                batch_size=8,
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
        max_active = data.draw(st.integers(1, 6))
        run_query_matrix(
            db,
            cases,
            through_service(
                db,
                admission=AdmissionPolicy(max_active=max_active),
                batch_size=data.draw(st.sampled_from([4, 16, 64])),
            ),
        )


# ---------------------------------------------------------------------------
# admission, billing, cancellation (embedded service)
# ---------------------------------------------------------------------------
class TestServiceSemantics:
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
        from repro.services import LatencyModel

        with QueryService(
            database=db,
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
        from repro.services import LatencyModel

        with QueryService(
            database=db,
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
        from repro.services import LatencyModel

        with QueryService(
            database=db, latency=LatencyModel(base=0.01)
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
        from repro.services import LatencyModel

        service = QueryService(
            database=db,
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
        from repro.services import LatencyModel

        case = QueryCase("nra", "average", 3)
        service = QueryService(
            database=db,
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
        from repro.services import LatencyModel

        service = QueryService(
            database=db, latency=LatencyModel(base=0.02)
        )
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
        self, db, oracle
    ):
        """A co-scheduled query whose cost budget expires halts with
        ``HaltReason.DEADLINE`` and a certified theta; every other
        concurrent query stays bit-identical to its solo reference."""
        cases = mixed_cases()[:6]
        references = reference_signatures(db, cases)
        with QueryService(database=db).start() as service:
            doomed = service.submit(
                QuerySpec(
                    algorithm="nra", aggregation="average", k=3,
                    max_cost=15.0,
                )
            )
            handles = [service.submit(c.spec()) for c in cases]
            degraded = doomed.result(timeout=30)
            results = [h.result(timeout=30) for h in handles]
        assert degraded.halt_reason == HaltReason.DEADLINE
        assert degraded.extras["certified_theta"] >= 1.0
        assert degraded.stats.middleware_cost >= 15.0
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
