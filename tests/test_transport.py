"""The real transport subsystem: wire-protocol server + client sources
spanning actual processes.

The parity contract under test (the PR's acceptance bar): runs whose
every source lives behind a real socket -- in-thread servers for the
protocol mechanics, a *spawned subprocess* for the differential suite
-- must be bit-identical to the in-process simulated path: same items,
same halting, same tie order, same ``AccessStats``, same error types.

Everything here runs under the ``async_services`` SIGALRM guard
(tests/conftest.py); server subprocesses are cleaned up even when the
guard fires mid-test (context-manager unwinding plus the harness's
atexit registry; see ``repro.transport.harness``).
"""

from __future__ import annotations

import asyncio

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
    Database,
    DatabaseError,
    ListCapabilities,
    ServiceTimeoutError,
    ServiceUnavailableError,
    UnknownObjectError,
)
from repro.middleware.cost import CostModel
from repro.services import (
    AsyncAccessSession,
    FailureModel,
    RetryPolicy,
    assemble_remote_database,
    drain_columns,
    fetch_merged_orders,
    network_client,
    network_services,
    network_shard_runs,
    services_for_database,
)
from repro.middleware.sources import GradedSource
from repro.server import QueryService, QueryServiceClient, QuerySpec
from repro.transport import (
    GradedSourceServer,
    ServerProcess,
    serve_sources,
)

from tests.helpers import result_signature, stats_tuple

pytestmark = pytest.mark.async_services


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(31)
    return Database.from_array(rng.integers(0, 10, (60, 3)) / 9.0)


@pytest.fixture(scope="module")
def server(db):
    with serve_sources(db.to_sharded(2)) as handle:
        yield handle


class TestInThreadServer:
    def test_metadata_and_source_shape(self, db, server):
        sources = network_services(server.address)
        assert [s.name for s in sources] == ["list-0", "list-1", "list-2"]
        assert all(s.num_entries == db.num_objects for s in sources)
        assert all(
            s.capabilities() == ListCapabilities() for s in sources
        )

    def test_sorted_stream_bytes_identical(self, db, server):
        """Pages over the socket equal the database's sorted order --
        grades compared by ==, tie placement included."""
        sources = network_services(server.address)
        columns = drain_columns(sources, batch_size=7)
        for i, column in enumerate(columns):
            assert column == [
                db.sorted_entry(i, pos) for pos in range(db.num_objects)
            ]

    def test_sequential_and_overlapped_drains_agree(self, server):
        fast = drain_columns(network_services(server.address), batch_size=11)
        slow = drain_columns(
            network_services(server.address), batch_size=11, sequential=True
        )
        assert fast == slow

    def test_session_scalar_access_parity(self, db, server):
        """Interleaved sorted/random accesses over the socket charge
        exactly like the synchronous session over the local database."""
        sync = AccessSession(db)
        with AsyncAccessSession(
            network_services(server.address), batch_size=8, prefetch_pages=2
        ) as session:
            for round_index in range(20):
                for i in range(db.num_lists):
                    assert session.sorted_access(i) == sync.sorted_access(i)
                if round_index % 3 == 0:
                    obj = sync.sorted_access(0)[0]
                    session.sorted_access(0)
                    assert session.random_access(
                        1, obj
                    ) == sync.random_access(1, obj)
            assert stats_tuple(session) == stats_tuple(sync)

    def test_algorithm_parity_over_socket_sessions(self, db, server):
        for algo, cost_model in [
            (ThresholdAlgorithm(), None),
            (NoRandomAccessAlgorithm(), None),
            (CombinedAlgorithm(), CostModel(1.0, 5.0)),
            (StreamCombine(), None),
        ]:
            kwargs = {} if cost_model is None else {"cost_model": cost_model}
            reference = algo.run_on(db, AVERAGE, 5, **kwargs)
            with AsyncAccessSession(
                network_services(server.address),
                *([] if cost_model is None else [cost_model]),
                batch_size=16,
            ) as session:
                result = algo.run(session, AVERAGE, 5)
            assert result_signature(result) == result_signature(reference)

    def test_trace_bytes_identical_over_socket(self, db, server):
        sync = AccessSession(db, record_trace=True)
        ThresholdAlgorithm().run(sync, MIN, 4)
        with AsyncAccessSession(
            network_services(server.address),
            record_trace=True,
            batch_size=16,
        ) as session:
            ThresholdAlgorithm().run(session, MIN, 4)
        assert session.trace.events == sync.trace.events

    def test_random_access_batch_is_one_round_trip(self, db, server):
        """The async-batching satellite over real sockets: a whole
        batch is one request/response exchange, charged per object."""
        sync = AccessSession(db)
        with AsyncAccessSession(
            network_services(server.address),
            batch_size=8,
            prefetch_pages=0,
            eager=False,
        ) as session:
            objs = [session.sorted_access(0)[0] for _ in range(6)]
            for _ in range(6):
                sync.sorted_access(0)
            got = session.random_access_batch(1, objs + objs[:2])
            want = sync.random_access_batch(1, objs + objs[:2])
            assert np.array_equal(got, want)
            assert stats_tuple(session) == stats_tuple(sync)

    def test_concurrent_multiplexed_requests(self, db, server):
        """Many in-flight requests on one pooled connection: every
        response must land on its own request (ids, not arrival
        order)."""
        client = network_client(server.address)
        ids0 = [db.sorted_entry(0, p)[0] for p in range(db.num_objects)]

        async def storm():
            sources = await client.sources()
            probes = [
                sources[i].random_access_batch([obj])
                for i in range(db.num_lists)
                for obj in ids0[:20]
            ]
            return await asyncio.gather(*probes)

        grades = asyncio.run(storm())
        flat = iter(grades)
        for i in range(db.num_lists):
            for obj in ids0[:20]:
                assert next(flat) == [db.grade(obj, i)]

    def test_unknown_object_maps_across_the_wire(self, server):
        with AsyncAccessSession(
            network_services(server.address), prefetch_pages=0, eager=False
        ) as session:
            with pytest.raises(UnknownObjectError):
                session.random_access(0, "nope")
            assert session.random_accesses == 0

    def test_capability_flags_travel(self, db):
        sources = [
            GradedSource("s0", [("x", 0.9), ("y", 0.1)]),
            GradedSource("s1", [("y", 0.8), ("x", 0.2)],
                         supports_random=False),
        ]
        with serve_sources(sources) as handle:
            remote = network_services(handle.address)
            assert [s.name for s in remote] == ["s0", "s1"]
            assert remote[0].capabilities() == ListCapabilities()
            assert remote[1].capabilities() == ListCapabilities(
                random_allowed=False
            )

    def test_server_side_failure_models_map_identically(self, db):
        """A scripted failure on the serving source surfaces over the
        wire as the exact in-process error type, with the exact
        in-process charging (the failed access never charges)."""
        services = services_for_database(
            db,
            failures=[
                FailureModel(script={1: "timeout", 2: "timeout"}),
                None,
                None,
            ],
            retry=RetryPolicy(max_attempts=2),
        )
        with serve_sources(services) as handle:
            with AsyncAccessSession(
                network_services(handle.address),
                batch_size=4,
                prefetch_pages=0,
                eager=False,
            ) as session:
                obj, _ = session.sorted_access(0)
                with pytest.raises(ServiceTimeoutError) as err:
                    session.random_access(0, obj)
                assert err.value.attempts == 2
                assert session.random_accesses == 0
                # a later retry by the caller charges exactly once
                assert session.random_access(0, obj) == db.grade(obj, 0)
                assert session.random_accesses == 1

    def test_shard_runs_merge_bit_identically(self, db, server):
        sharded = db.to_sharded(2)
        for sequential in (False, True):
            grid = network_shard_runs(server.address)
            merged = fetch_merged_orders(
                grid, batch_size=13, sequential=sequential
            )
            for i in range(db.num_lists):
                assert np.array_equal(
                    merged[i][0], np.asarray(sharded._order_rows[i])
                )
                assert np.array_equal(
                    merged[i][1], np.asarray(sharded._order_grades[i])
                )

    def test_flat_database_exports_no_runs(self, db):
        with serve_sources(db) as handle:
            assert network_shard_runs(handle.address) == []

    def test_refusing_connection_is_unavailable(self, db, server):
        host, _ = server.address
        with serve_sources(db) as scratch:
            free_port = scratch.address[1]
        # the scratch server is down; its port now refuses connections
        dead = network_client((host, free_port))

        async def probe():
            await dead.fetch_metadata()

        with pytest.raises(ServiceUnavailableError):
            asyncio.run(probe())

    def test_nothing_to_serve_fails_loudly(self):
        with pytest.raises(DatabaseError):
            GradedSourceServer(())


class TestSubprocessDifferential:
    """assert_backends_agree-style parity where every source lives
    behind a real socket served by a *spawned subprocess* -- the PR's
    acceptance criterion, for all four chunked engines and the sharded
    drain."""

    ALGORITHMS = [
        (ThresholdAlgorithm(), None),
        (ThresholdAlgorithm(remember_seen=True), None),
        (NoRandomAccessAlgorithm(), None),
        (CombinedAlgorithm(h=2), CostModel(1.0, 5.0)),
        (StreamCombine(), None),
    ]

    @pytest.fixture(scope="class")
    def subprocess_setup(self):
        db = datagen.figure_5(8).database  # adversarial tie placement
        with ServerProcess(db, num_shards=2) as server:
            yield db, server

    def test_chunked_engines_bit_identical_over_subprocess(
        self, subprocess_setup
    ):
        db, server = subprocess_setup
        client = network_client(server.address)
        sources = network_services(client=client)
        # the drained backend: every byte of it crossed the socket
        remote_db, caps = assemble_remote_database(sources, batch_size=5)
        simulated, sim_caps = assemble_remote_database(
            services_for_database(db), batch_size=5
        )
        assert caps == sim_caps
        for i in range(db.num_lists):
            for pos in range(db.num_objects):
                assert remote_db.sorted_entry(i, pos) == db.sorted_entry(
                    i, pos
                )
        for algo, cost_model in self.ALGORITHMS:
            kwargs = (
                {} if cost_model is None else {"cost_model": cost_model}
            )
            reference = algo.run_on(db, MIN, 3, **kwargs)
            over_wire = algo.run_on(remote_db, MIN, 3, **kwargs)
            in_process = algo.run_on(simulated, MIN, 3, **kwargs)
            assert result_signature(over_wire) == result_signature(
                reference
            ), algo.name
            assert result_signature(over_wire) == result_signature(
                in_process
            ), algo.name

    def test_sessions_bit_identical_over_subprocess(self, subprocess_setup):
        db, server = subprocess_setup
        for algo, cost_model in self.ALGORITHMS:
            kwargs = (
                {} if cost_model is None else {"cost_model": cost_model}
            )
            reference = algo.run_on(db, AVERAGE, 3, **kwargs)
            with AsyncAccessSession(
                network_services(server.address),
                *([] if cost_model is None else [cost_model]),
                batch_size=4,
                prefetch_pages=2,
            ) as session:
                result = algo.run(session, AVERAGE, 3)
            assert result_signature(result) == result_signature(
                reference
            ), algo.name

    def test_sharded_drain_bit_identical_over_subprocess(
        self, subprocess_setup
    ):
        db, server = subprocess_setup
        sharded = db.to_sharded(2)
        grid = network_shard_runs(server.address)
        assert [len(row) for row in grid] == [2] * db.num_lists
        merged = fetch_merged_orders(grid, batch_size=3)
        sequential = fetch_merged_orders(
            network_shard_runs(server.address),
            batch_size=3,
            sequential=True,
        )
        for i in range(db.num_lists):
            assert np.array_equal(
                merged[i][0], np.asarray(sharded._order_rows[i])
            )
            assert np.array_equal(
                merged[i][1], np.asarray(sharded._order_grades[i])
            )
            assert np.array_equal(merged[i][0], sequential[i][0])
            assert np.array_equal(merged[i][1], sequential[i][1])

    def test_one_daemon_serves_sources_and_queries(self, subprocess_setup):
        """The spawned daemon answers both roles on one port: the
        source ops (a drain through ``network_services``) and whole
        queries (``QueryServiceClient``), each bit-identical to the
        in-process run."""
        db, server = subprocess_setup
        remote_db, _ = assemble_remote_database(
            network_services(server.address), batch_size=5
        )
        simulated, _ = assemble_remote_database(
            services_for_database(db), batch_size=5
        )
        for i in range(db.num_lists):
            for pos in range(db.num_objects):
                assert remote_db.sorted_entry(i, pos) == simulated.sorted_entry(
                    i, pos
                )
        specs = [
            QuerySpec(algorithm=name, aggregation="min", k=3)
            for name in ("ta", "nra", "ca")
        ]

        async def remote():
            client = QueryServiceClient(*server.address)
            try:
                return await client.run_queries(specs)
            finally:
                await client.aclose()

        outcomes = asyncio.run(remote())
        with QueryService(database=db).start() as service:
            embedded = [service.submit(spec).result(30) for spec in specs]
        assert [result_signature(o.result) for o in outcomes] == [
            result_signature(r) for r in embedded
        ]

    def test_server_side_latency_overlaps(self, subprocess_setup):
        """Probes to different subprocess-served sources overlap their
        server-side service time (the transport benchmark's premise):
        m concurrent 25 ms probes take nowhere near m * 25 ms."""
        db, _ = subprocess_setup
        with ServerProcess(db, latency=0.025) as server:
            sources = network_services(server.address)

            async def concurrent():
                obj = db.sorted_entry(0, 0)[0]
                loop = asyncio.get_running_loop()
                start = loop.time()
                await asyncio.gather(
                    *(s.random_access_batch([obj]) for s in sources)
                )
                return loop.time() - start

            elapsed = asyncio.run(concurrent())
        assert elapsed < 0.025 * len(sources)
