"""The async remote-source subsystem: protocol, simulated services,
the overlapped session's charging equivalence, and the drain adapters.

The charging-equivalence contract under test: an
:class:`~repro.services.session.AsyncAccessSession` over simulated
services built from a database must be observationally identical to a
synchronous :class:`~repro.middleware.access.AccessSession` over that
database -- same entries, same ``AccessStats``, same trace bytes, same
errors -- regardless of page size, prefetch depth, latency or drain
mode.  (The full algorithm-level differential lives in
``tests/test_columnar_differential.py``; this module tests the
subsystem directly.)
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro import datagen
from repro.aggregation import AVERAGE, MIN
from repro.core import (
    CombinedAlgorithm,
    NoRandomAccessAlgorithm,
    StreamCombine,
    ThresholdAlgorithm,
)
from repro.middleware import (
    AccessSession,
    CapabilityError,
    Database,
    DatabaseError,
    GradedSource,
    ListCapabilities,
    QueryCancelledError,
    ShardedDatabase,
    UnknownObjectError,
    assemble_database,
)
from repro.middleware.cost import CostModel
from repro.services import (
    AsyncAccessSession,
    LatencyModel,
    SimulatedListService,
    SortedPage,
    assemble_remote_database,
    drain_columns,
    fetch_merged_orders,
    read_pages,
    services_for_database,
    services_for_sources,
    shard_run_services,
)

from tests.helpers import (
    QueryCase,
    result_signature,
    run_query_matrix,
    stats_tuple,
)

pytestmark = pytest.mark.async_services


class TestSimulatedListService:
    def _service(self, **kwargs):
        return SimulatedListService(
            "svc",
            [("a", 0.9), ("b", 0.7), ("c", 0.7), ("d", 0.2)],
            **kwargs,
        )

    def test_stream_pages_and_order(self):
        service = self._service()

        async def drain():
            pages = []
            async for page in read_pages(service.page, service.num_entries, 3):
                pages.append(page)
            return pages

        pages = asyncio.run(drain())
        assert [len(p) for p in pages] == [3, 1]
        assert isinstance(pages[0], SortedPage)
        flat = [entry for page in pages for entry in page]
        assert flat == [("a", 0.9), ("b", 0.7), ("c", 0.7), ("d", 0.2)]
        # one call per page, charged nowhere (services do not account)
        assert service.calls == 2

    def test_random_access_batch(self):
        service = self._service()
        grades = asyncio.run(service.random_access_batch(["c", "a", "c"]))
        assert grades == [0.7, 0.9, 0.7]
        with pytest.raises(UnknownObjectError):
            asyncio.run(service.random_access_batch(["a", "nope"]))

    def test_entries_must_be_sorted_and_distinct(self):
        with pytest.raises(DatabaseError):
            SimulatedListService("bad", [("a", 0.2), ("b", 0.9)])
        with pytest.raises(DatabaseError):
            SimulatedListService("dup", [("a", 0.9), ("a", 0.8)])
        with pytest.raises(DatabaseError):
            SimulatedListService("empty", [])

    def test_latency_is_deterministic(self):
        model = LatencyModel(base=0.001, jitter=0.002, seed=42)
        a, b = model.sampler(), model.sampler()
        assert [model.delay(a) for _ in range(5)] == [
            model.delay(b) for _ in range(5)
        ]

    def test_capabilities_flow_from_flags(self):
        service = self._service(supports_random=False)
        caps = service.capabilities()
        assert caps.sorted_allowed and not caps.random_allowed


class TestAsyncSessionCharging:
    @pytest.fixture
    def db(self):
        rng = np.random.default_rng(17)
        return Database.from_array(rng.integers(0, 10, (60, 3)) / 9.0)

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    @pytest.mark.parametrize("prefetch_pages", [0, 2])
    def test_scalar_access_parity(self, db, batch_size, prefetch_pages):
        """Interleaved sorted/random accesses charge exactly like the
        sync session, for every paging/prefetch shape."""
        sync = AccessSession(db)
        with AsyncAccessSession(
            services_for_database(db),
            batch_size=batch_size,
            prefetch_pages=prefetch_pages,
            eager=prefetch_pages > 0,
        ) as session:
            script = []
            for round_index in range(25):
                for i in range(db.num_lists):
                    script.append(
                        (session.sorted_access(i), sync.sorted_access(i))
                    )
                if round_index % 3 == 0:
                    obj = script[-1][1][0]
                    assert session.random_access(
                        1, obj
                    ) == sync.random_access(1, obj)
            for got, want in script:
                assert got == want
            assert stats_tuple(session) == stats_tuple(sync)
            assert session.position(0) == sync.position(0)
            assert session.depth == sync.depth

    def test_exhaustion_is_free(self, db):
        with AsyncAccessSession(
            services_for_database(db), batch_size=16
        ) as session:
            for _ in range(db.num_objects):
                assert session.sorted_access(0) is not None
            assert session.sorted_access(0) is None
            assert session.sorted_access(0) is None
            assert session.exhausted(0)
            assert session.sorted_accesses == db.num_objects

    def test_algorithm_parity_all_engines(self, db):
        cases = [
            QueryCase(ThresholdAlgorithm(), AVERAGE, 5),
            QueryCase(NoRandomAccessAlgorithm(), AVERAGE, 5),
            QueryCase(
                CombinedAlgorithm(), AVERAGE, 5,
                sorted_cost=1.0, random_cost=5.0,
            ),
            QueryCase(StreamCombine(), AVERAGE, 5),
        ]

        def through_async_session(cases):
            results = []
            for case in cases:
                with AsyncAccessSession(
                    services_for_database(db),
                    case.cost_model(),
                    batch_size=8,
                ) as session:
                    results.append(
                        case.resolve_algorithm().run(
                            session, case.resolve_aggregation(), case.k
                        )
                    )
            return results

        run_query_matrix(db, cases, through_async_session)

    def test_trace_bytes_identical(self, db):
        sync = AccessSession(db, record_trace=True)
        ThresholdAlgorithm().run(sync, MIN, 4)
        with AsyncAccessSession(
            services_for_database(db), record_trace=True, batch_size=16
        ) as session:
            ThresholdAlgorithm().run(session, MIN, 4)
        assert session.trace.events == sync.trace.events

    def test_capabilities_default_from_services(self, db):
        caps = [
            ListCapabilities(),
            ListCapabilities(random_allowed=False),
            ListCapabilities(sorted_allowed=False),
        ]
        with AsyncAccessSession(
            services_for_database(db, capabilities=caps)
        ) as session:
            assert session.sorted_lists == [0, 1]
            session.sorted_access(0)
            with pytest.raises(CapabilityError):
                session.random_access(1, 0)
            with pytest.raises(CapabilityError):
                session.sorted_access(2)

    def test_services_must_agree_on_size(self):
        a = SimulatedListService("a", [(0, 0.5), (1, 0.4)])
        b = SimulatedListService("b", [(0, 0.5)])
        with pytest.raises(DatabaseError):
            AsyncAccessSession([a, b])

    def test_prefetch_is_uncharged_speculation(self, db):
        with AsyncAccessSession(
            services_for_database(db), batch_size=8, prefetch_pages=3
        ) as session:
            session.sorted_access(0)
            # the prefetcher ran ahead of the single consumed entry...
            assert session.prefetched(0) >= 8
            # ...but only the consumed prefix is charged
            assert session.sorted_accesses == 1
        assert session.stats().sorted_by_list == {0: 1}

    def test_close_is_idempotent(self, db):
        session = AsyncAccessSession(services_for_database(db))
        session.sorted_access(1)
        session.close()
        session.close()

    def test_no_prefetch_fetches_strictly_on_demand(self, db):
        """``prefetch_pages=0``: reading exactly one page contacts the
        service once; no read has missed, so no second page is due."""
        services = services_for_database(db)
        with AsyncAccessSession(
            services, batch_size=4, prefetch_pages=0, eager=False
        ) as session:
            for _ in range(4):
                session.sorted_access(0)
            # flush the session loop: a fetch any read scheduled would
            # have reached the service by the last round trip
            for _ in range(5):
                asyncio.run_coroutine_threadsafe(
                    asyncio.sleep(0), session._loop
                ).result(timeout=5)
            assert services[0].calls == 1
            assert session.prefetched(0) == 4

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eager", [True, False])
    def test_closed_session_fails_fast(self, db, eager):
        """After ``close()`` the next sorted or random access raises
        :class:`QueryCancelledError` at once, before anything is
        charged -- also on a list that was never read."""
        session = AsyncAccessSession(services_for_database(db), eager=eager)
        obj, _ = session.sorted_access(0)
        session.close()
        before = session.stats()
        start = time.perf_counter()
        with pytest.raises(QueryCancelledError):
            session.sorted_access(1)
        with pytest.raises(QueryCancelledError):
            session.sorted_access(0)
        with pytest.raises(QueryCancelledError):
            session.random_access(2, obj)
        with pytest.raises(QueryCancelledError):
            session.random_access_batch(1, [obj])
        assert time.perf_counter() - start < 1.0
        assert session.stats() == before


class TestAsyncRandomAccessBatching:
    """The async-batching satellite: a ``random_access_batch`` on the
    async session is served by ONE bridged service round trip for the
    whole batch (not one per object), with the batched plane's exact
    charging semantics."""

    @pytest.fixture
    def db(self):
        rng = np.random.default_rng(41)
        return Database.from_array(rng.random((40, 2)))

    def test_one_service_call_per_batch_and_charging_parity(self, db):
        sync = AccessSession(db)
        services = services_for_database(db)
        with AsyncAccessSession(
            services, batch_size=4, prefetch_pages=0, eager=False
        ) as session:
            objs = [session.sorted_access(0)[0] for _ in range(6)]
            for _ in range(6):
                sync.sorted_access(0)
            calls_before = services[1].calls
            got = session.random_access_batch(1, objs + objs[:2])
            want = sync.random_access_batch(1, objs + objs[:2])
            assert np.array_equal(got, want)
            # eight objects (repeats included), ONE service round trip
            assert services[1].calls == calls_before + 1
            assert stats_tuple(session) == stats_tuple(sync)

    def test_empty_batch_is_free_and_callless(self, db):
        services = services_for_database(db)
        with AsyncAccessSession(
            services, prefetch_pages=0, eager=False
        ) as session:
            out = session.random_access_batch(0, [])
            assert len(out) == 0
            assert session.random_accesses == 0
            assert services[0].calls == 0

    def test_unknown_object_mid_batch_charges_prefix(self, db):
        sync = AccessSession(db)
        with AsyncAccessSession(
            services_for_database(db), prefetch_pages=0, eager=False
        ) as session:
            known = session.sorted_access(0)[0]
            sync.sorted_access(0)
            for s in (session, sync):
                with pytest.raises(UnknownObjectError):
                    s.random_access_batch(1, [known, "nope", known])
            # the object before the unknown one was served and charged,
            # the unknown raised uncharged -- scalar-loop accounting
            assert stats_tuple(session) == stats_tuple(sync)
            assert session.stats().random_by_list == {1: 1}

    def test_wild_guess_mid_batch_charges_prefix_before_any_round_trip(
        self, db
    ):
        services = services_for_database(db)
        with AsyncAccessSession(
            services,
            forbid_wild_guesses=True,
            prefetch_pages=0,
            eager=False,
        ) as session:
            seen = session.sorted_access(0)[0]
            calls_before = services[1].calls
            from repro.middleware import WildGuessError

            with pytest.raises(WildGuessError):
                session.random_access_batch(1, [seen, "never-seen"])
            # prefix charged, certificate fired before the round trip
            assert session.stats().random_by_list == {1: 1}
            assert services[1].calls == calls_before

    def test_rows_are_rejected_objects_required(self, db):
        with AsyncAccessSession(
            services_for_database(db), prefetch_pages=0, eager=False
        ) as session:
            with pytest.raises(ValueError):
                session.random_access_batch(0, None)

    def test_trace_fallback_keeps_bytes_identical(self, db):
        sync = AccessSession(db, record_trace=True)
        with AsyncAccessSession(
            services_for_database(db), record_trace=True,
            prefetch_pages=0, eager=False,
        ) as session:
            objs = [session.sorted_access(0)[0] for _ in range(3)]
            for _ in range(3):
                sync.sorted_access(0)
            session.random_access_batch(1, objs)
            sync.random_access_batch(1, objs)
            assert session.trace.events == sync.trace.events


class TestRandomAccessAcross:
    """The cross-list resolution primitive: TA's resolve step / CA's
    random phase as one concurrent gather on the async session, with
    the scalar loop's exact charging."""

    def _db(self, m=3):
        rng = np.random.default_rng(53)
        return Database.from_array(rng.random((30, m)))

    def test_parity_and_one_call_per_list(self):
        db = self._db()
        sync = AccessSession(db)
        services = services_for_database(db)
        with AsyncAccessSession(
            services, prefetch_pages=0, eager=False
        ) as session:
            obj, _ = session.sorted_access(0)
            sync.sorted_access(0)
            got = session.random_access_across(obj, [1, 2, 1])
            want = sync.random_access_across(obj, [1, 2, 1])
            assert got == want
            assert stats_tuple(session) == stats_tuple(sync)
            # one service round trip per listed list (repeats included)
            assert services[1].calls == 2 and services[2].calls == 1

    def test_round_trips_overlap(self):
        """Three 40 ms services resolved across must take ~one latency,
        not three (the TA/CA random-phase overlap win)."""
        import time

        db = self._db()
        latency = 0.04
        services = services_for_database(
            db, latency=LatencyModel(latency, 0.0)
        )
        with AsyncAccessSession(
            services, prefetch_pages=0, eager=False
        ) as session:
            obj, _ = session.sorted_access(0)
            start = time.perf_counter()
            session.random_access_across(obj, [0, 1, 2])
            elapsed = time.perf_counter() - start
        # sorted access cost one latency already; the across-fetch
        # must not cost anywhere near 3 more
        assert elapsed < 3 * latency

    def test_ta_and_ca_run_through_it_bit_identically(self):
        db = self._db()
        for algo, kwargs in [
            (ThresholdAlgorithm(), {}),
            (ThresholdAlgorithm(remember_seen=True), {}),
            (CombinedAlgorithm(h=2), {"cost_model": CostModel(1.0, 5.0)}),
        ]:
            reference = algo.run_on(db, AVERAGE, 4, **kwargs)
            with AsyncAccessSession(
                services_for_database(db),
                *([kwargs["cost_model"]] if kwargs else []),
                batch_size=8,
            ) as session:
                result = algo.run(session, AVERAGE, 4)
            assert result_signature(result) == result_signature(reference)

    def test_failure_mid_gather_charges_exact_list_prefix(self):
        """A failing list re-raises after the lists before it (in list
        order) were charged; later lists' grades are discarded
        uncharged -- the scalar loop's accounting."""
        from repro.services import FailureModel

        db = self._db()
        services = services_for_database(
            db,
            failures=[None, FailureModel(script={0: "permanent"}), None],
        )
        with AsyncAccessSession(
            services, prefetch_pages=0, eager=False
        ) as session:
            obj, _ = session.sorted_access(0)
            from repro.middleware import ServiceUnavailableError

            with pytest.raises(ServiceUnavailableError):
                session.random_access_across(obj, [0, 1, 2])
            assert session.stats().random_by_list == {0: 1}
            # list 2's grade was fetched concurrently but discarded
            assert services[2].calls == 1

    def test_wild_guess_falls_back_to_scalar_semantics(self):
        db = self._db()
        from repro.middleware import WildGuessError

        services = services_for_database(db)
        with AsyncAccessSession(
            services, forbid_wild_guesses=True, prefetch_pages=0,
            eager=False,
        ) as session:
            with pytest.raises(WildGuessError):
                session.random_access_across("never-seen", [0, 1])
            assert session.random_accesses == 0
            assert all(s.calls == 0 for s in services)

    def test_empty_lists_is_free(self):
        db = self._db()
        with AsyncAccessSession(
            services_for_database(db), prefetch_pages=0, eager=False
        ) as session:
            assert session.random_access_across("whatever", []) == []
            assert session.random_accesses == 0


class TestPerListRunGridModels:
    def test_shard_run_services_broadcast_per_list_latency(self):
        rng = np.random.default_rng(7)
        sharded = Database.from_array(rng.random((24, 2))).to_sharded(2)
        slow = LatencyModel(0.005, 0.0)
        grid = shard_run_services(sharded, latency=[None, slow])
        assert grid[0][0]._latency.base == 0.0
        assert grid[1][0]._latency.base == 0.005
        assert grid[1][1]._latency.base == 0.005
        with pytest.raises(DatabaseError):
            shard_run_services(sharded, latency=[slow])


class TestDrainAdapters:
    @pytest.fixture
    def db(self):
        rng = np.random.default_rng(23)
        return Database.from_array(rng.integers(0, 5, (40, 3)) / 4.0)

    def test_sequential_and_overlapped_drains_agree(self, db):
        fast = drain_columns(services_for_database(db), batch_size=7)
        # one service at a time, so one page in flight
        slow = [
            drain_columns([service], batch_size=7)[0]
            for service in services_for_database(db)
        ]
        assert fast == slow
        for i, column in enumerate(fast):
            assert column == [
                db.sorted_entry(i, pos) for pos in range(db.num_objects)
            ]

    def test_assemble_remote_database_matches_local(self, db):
        remote, caps = assemble_remote_database(
            services_for_database(db), batch_size=16
        )
        assert AccessSession(remote).supports_batches  # chunked engines on
        for i in range(db.num_lists):
            for pos in range(db.num_objects):
                assert remote.sorted_entry(i, pos) == db.sorted_entry(i, pos)
        for algo in (ThresholdAlgorithm(), NoRandomAccessAlgorithm()):
            assert result_signature(
                algo.run_on(remote, AVERAGE, 4)
            ) == result_signature(algo.run_on(db, AVERAGE, 4))

    def test_assemble_remote_database_sharded(self, db):
        remote, _ = assemble_remote_database(
            services_for_database(db), num_shards=3, batch_size=16
        )
        assert isinstance(remote, ShardedDatabase)
        assert remote.num_shards == 3
        # internal row numbering may differ (rows are interned by first
        # appearance when draining columns); the observable sorted
        # streams must not
        for i in range(db.num_lists):
            for pos in range(db.num_objects):
                assert remote.sorted_entry(i, pos) == db.sorted_entry(i, pos)

    def test_assemble_from_graded_sources_keeps_capabilities(self):
        sources = [
            GradedSource("s0", [("x", 0.9), ("y", 0.1)]),
            GradedSource(
                "s1", [("y", 0.8), ("x", 0.2)], supports_random=False
            ),
        ]
        local_db, local_caps = assemble_database(sources)
        remote_db, remote_caps = assemble_remote_database(
            services_for_sources(sources)
        )
        assert remote_caps == local_caps
        for i in range(2):
            for pos in range(2):
                assert remote_db.sorted_entry(i, pos) == local_db.sorted_entry(
                    i, pos
                )

    def test_universe_disagreement_raises(self):
        a = SimulatedListService("a", [("x", 0.9), ("y", 0.1)])
        b = SimulatedListService("b", [("x", 0.8), ("z", 0.2)])
        with pytest.raises(DatabaseError):
            assemble_remote_database([a, b])


class TestShardRunStreams:
    def test_merge_matches_sharded_orders(self):
        """Per-shard remote run streams + ListMergeCursor reconstruct
        the exact global order, tie placement included, in both drain
        modes -- even under latency jitter that scrambles arrivals."""
        db = datagen.figure_5(6).database.to_sharded(4)
        for kwargs in (
            {},
            {"latency": LatencyModel(0.0005, 0.001, seed=7)},
        ):
            grid = shard_run_services(db, **kwargs)
            merged = fetch_merged_orders(grid, batch_size=5)
            sequential = fetch_merged_orders(
                shard_run_services(db, **kwargs),
                batch_size=5,
                sequential=True,
            )
            for i in range(db.num_lists):
                assert np.array_equal(
                    merged[i][0], np.asarray(db._order_rows[i])
                )
                assert np.array_equal(
                    merged[i][1], np.asarray(db._order_grades[i])
                )
                assert np.array_equal(merged[i][0], sequential[i][0])
                assert np.array_equal(merged[i][1], sequential[i][1])
