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
import os
import subprocess
import sys
import time
from pathlib import Path

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
    ColumnarDatabase,
    Database,
    ListCapabilities,
    MutableColumnarDatabase,
    RemoteServiceError,
    ServiceTimeoutError,
    ServiceTransientError,
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
    read_pages,
    services_for_database,
    shard_run_services,
)
from repro.resilience import ReplicatedGradedSource
from repro.server import (
    QueryServer,
    QueryService,
    QueryServiceClient,
    QuerySpec,
)
from repro.store import save_store
from repro.transport import FrameServer, ServerProcess

from tests.helpers import result_signature, run_async, stats_tuple

pytestmark = pytest.mark.async_services


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(31)
    return Database.from_array(rng.integers(0, 10, (60, 3)) / 9.0)


def serve(database, **models) -> QueryServer:
    """An in-thread query server over ``database``: its source ops
    serve the lists, with ``models`` (latency/failures/retry)."""
    service = QueryService(database=database, **models)
    return QueryServer(service).start_in_thread()


@pytest.fixture(scope="module")
def server(db):
    with serve(db.to_sharded(2)) as handle:
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
        # one source at a time, so one page in flight
        slow = [
            drain_columns([source], batch_size=11)[0]
            for source in network_services(server.address)
        ]
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

    def test_capability_flags_travel(self):
        """The client reads each list's name and sorted/random flags
        off the ``meta`` manifest."""

        class Manifest(FrameServer):
            async def _dispatch(self, message, conn):
                assert message["op"] == "meta"
                return {
                    "sources": [
                        {"name": name, "n": 2, "sorted": True, "random": rand}
                        for name, rand in (("s0", True), ("s1", False))
                    ],
                    "runs": [],
                }

        with Manifest().start_in_thread() as handle:
            remote = network_services(handle.address)
            assert [s.name for s in remote] == ["s0", "s1"]
            assert [s.num_entries for s in remote] == [2, 2]
            assert remote[0].capabilities() == ListCapabilities()
            assert remote[1].capabilities() == ListCapabilities(
                random_allowed=False
            )

    def test_server_side_failure_models_map_identically(self, db):
        """A scripted failure on the serving source surfaces over the
        wire as the exact in-process error type, with the exact
        in-process charging (the failed access never charges)."""
        with serve(
            db,
            failures=[
                FailureModel(script={1: "timeout", 2: "timeout"}),
                None,
                None,
            ],
            retry=RetryPolicy(max_attempts=2),
        ) as handle:
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

    def test_failure_script_counts_calls_across_writes(self):
        """The source ops' models live as long as the service: a write
        does not reset them, so a scripted failure fires at its call
        index counted from service start."""
        mutable = MutableColumnarDatabase.from_array(
            np.random.default_rng(4).random((20, 2))
        )
        with serve(
            mutable,
            failures=FailureModel(script={1: "transient"}),
            retry=RetryPolicy(max_attempts=1),
        ) as server:
            service = server.service
            client = network_client(server.address)

            async def go():
                try:
                    source = (await client.sources())[0]
                    assert len((await source.page(0, 5)).objects) == 5
                    service.mutate("insert", 99, grades=[1.0, 1.0])
                    with pytest.raises(ServiceTransientError):
                        await source.page(0, 5)  # call 1, after the write
                    page = await source.page(0, 5)
                    assert page.objects[0] == 99
                finally:
                    await client.aclose()

            run_async(go())
        assert service._endpoint(0).calls == 3
        assert service._endpoint(0).failed_attempts == 1

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
        with serve(db) as handle:
            assert network_shard_runs(handle.address) == []

    def test_refusing_connection_is_unavailable(self, db, server):
        host, _ = server.address
        with serve(db) as scratch:
            free_port = scratch.address[1]
        # the scratch server is down; its port now refuses connections
        dead = network_client((host, free_port))

        async def probe():
            await dead.fetch_metadata()

        with pytest.raises(ServiceUnavailableError):
            asyncio.run(probe())


#: every page-serving source kind: three list sources, two run sources
PAGE_SOURCES = [
    "simulated",
    "network",
    "replicated",
    "simulated-run",
    "network-run",
]


def page_source(kind, db, server):
    """``(read, num_entries, reference)`` for one source kind: its
    ``page``/``run_page``, its ``N`` and the entries it must serve, as
    ``(object, grade)`` pairs or ``(row, grade, tie)`` triples."""
    if kind.endswith("-run"):
        runs = db.to_sharded(2).list_runs(1)
        if kind == "network-run":
            source = network_shard_runs(server.address)[1][1]
        else:
            source = shard_run_services(db.to_sharded(2))[1][1]
        reference = list(zip(*(a.tolist() for a in runs[1])))
        return source.run_page, source.num_entries, reference
    if kind == "simulated":
        source = services_for_database(db)[1]
    elif kind == "network":
        source = network_services(server.address)[1]
    else:
        source = ReplicatedGradedSource(
            "list-1",
            [
                network_services(server.address)[1],
                services_for_database(db)[1],
            ],
        )
    reference = [db.sorted_entry(1, p) for p in range(db.num_objects)]
    return source.page, source.num_entries, reference


def entries(page) -> list[tuple]:
    if hasattr(page, "objects"):
        return list(page)
    return list(zip(*(a.tolist() for a in page)))


class TestPageContract:
    """Every source serves the same stateless pages, and the one pager
    reads any of them in ``ceil(N / b)`` calls."""

    @pytest.mark.parametrize("kind", PAGE_SOURCES)
    def test_pages_at_every_boundary(self, kind, db, server):
        read, n, reference = page_source(kind, db, server)
        assert n == len(reference)
        windows = [
            (0, 1),
            (0, 7),
            (5, 7),
            (n - 1, 1),
            (n - 3, 7),  # count runs past the end
            (0, n),
            (0, n + 5),
            (n, 1),  # start == n: an empty page
            (n, 4),
        ]

        async def go():
            return [entries(await read(*window)) for window in windows]

        for (start, count), served in zip(windows, run_async(go())):
            assert served == reference[start : start + count]

    @pytest.mark.parametrize("kind", PAGE_SOURCES)
    def test_refuses_negative_or_empty_windows(self, kind, db, server):
        read, _, _ = page_source(kind, db, server)
        for window in ((-1, 4), (0, 0)):
            with pytest.raises(ValueError):
                run_async(read(*window))

    @pytest.mark.parametrize("batch_size", [1, 7, 30, 64])
    @pytest.mark.parametrize("kind", PAGE_SOURCES)
    def test_pager_makes_ceil_n_over_b_calls(
        self, kind, batch_size, db, server
    ):
        read, n, reference = page_source(kind, db, server)
        calls = []

        async def counted(start, count):
            calls.append((start, count))
            return await read(start, count)

        async def go():
            return [
                entry
                async for page in read_pages(counted, n, batch_size)
                for entry in entries(page)
            ]

        assert run_async(go()) == reference
        assert len(calls) == -(-n // batch_size)
        assert calls == [(p, batch_size) for p in range(0, n, batch_size)]


class TestHostileSourceOps:
    """Malformed source ops come back as ``bad_request`` error frames,
    refused before the op's service call (so before any read), and
    the connection keeps serving."""

    def test_refused_before_any_read(self):
        col = ColumnarDatabase.from_array(
            np.random.default_rng(8).random((200, 2))
        )
        service = QueryService(database=col.to_sharded(2))
        # a full list (200 grades, 1600 bytes) or a full shard run (100
        # grades, 800 bytes) cannot fit one 512-byte frame
        server = QueryServer(service, max_frame=512).start_in_thread()
        hostile = [
            {"op": "page", "src": 0, "start": -1, "count": 4},
            {"op": "page", "src": 0, "start": 0, "count": 0},
            {"op": "page", "src": 2, "start": 0, "count": 4},
            {"op": "page", "src": -1, "start": 0, "count": 4},
            {"op": "page", "src": 0, "start": 0, "count": 200},
            {"op": "random", "src": 2, "ids": [0]},
            {"op": "random", "src": 0, "ids": "0"},
            {"op": "run_page", "list": 0, "shard": 0, "start": -1,
             "count": 4},
            {"op": "run_page", "list": 0, "shard": 0, "start": 0,
             "count": 0},
            {"op": "run_page", "list": 2, "shard": 0, "start": 0,
             "count": 4},
            {"op": "run_page", "list": 0, "shard": 2, "start": 0,
             "count": 4},
            {"op": "run_page", "list": 1, "shard": 1, "start": 0,
             "count": 10**9},
        ]
        client = network_client(server.address)

        async def go():
            try:
                for message in hostile:
                    with pytest.raises(RemoteServiceError, match="bad_request"):
                        await client.request(message)
                # the same connection serves on; a huge count clamped
                # to the list's tail fits
                reply = await client.request(
                    {"op": "page", "src": 1, "start": 196, "count": 10**9}
                )
                rows = col._order_rows[1][196:]
                assert reply["objects"] == rows.tolist()
                assert reply["grades"].tolist() == col._matrix[rows, 1].tolist()
                reply = await client.request(
                    {"op": "run_page", "list": 0, "shard": 1, "start": 0,
                     "count": 3}
                )
                run = col.to_sharded(2).list_runs(0)[1]
                assert reply["rows"].tolist() == run[0][:3].tolist()
                assert len(server._connections) == 1
            finally:
                await client.aclose()

        with server:
            run_async(go())
        # only the two served ops made (and called) an endpoint
        assert list(service._endpoints) == [(1, None), (0, 1)]
        assert [e.calls for e in service._endpoints.values()] == [1, 1]


def _vmhwm(pid: int) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("no VmHWM line")


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="reads VmHWM"
)
def test_daemon_source_ops_keep_vmhwm_within_budget(tmp_path):
    """The daemon answers source ops straight from its store: over a
    sharded store ~23x its residency budget, the first ``page`` answers
    at once (no per-list copy is built), a TA query through
    ``network_services`` plus ``random`` and ``run_page`` ops answer
    bit-identically to the in-RAM database, and the daemon's peak RSS
    (VmHWM, which counts resident file pages) grows by at most the
    budget plus a stated slack.  The slack is what the valve cannot
    see between two checks: one gather slice (8 rows, each fault
    mapping up to a 2 MiB folio: 16 MiB), the folios under one page
    of the sorted orders and runs (8 MiB), and the serving loop's own
    buffers and lazy imports (8 MiB)."""
    import repro

    col = ColumnarDatabase.from_array(
        np.random.default_rng(3).random((1_000_000, 2)), validate=False
    )
    sharded = col.to_sharded(2)
    path = tmp_path / "big.store"
    save_store(sharded, path)
    budget = 4 * 2**20
    slack = 32 * 2**20
    assert path.stat().st_size >= 20 * budget
    want = ThresholdAlgorithm().run_on(col, AVERAGE, 10)
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--store", str(path),
         "--port", "0", "--store-cache-mb", "4"],
        stdout=subprocess.PIPE,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": str(Path(repro.__file__).parent.parent),
        },
    )
    try:
        assert daemon.stdout is not None
        banner = daemon.stdout.readline().split()
        assert banner[0] == "LISTENING", banner
        address = (banner[1], int(banner[2]))
        baseline = _vmhwm(daemon.pid)
        client = network_client(address)
        rng = np.random.default_rng(9)
        ids = rng.integers(0, col.num_objects, 64).tolist()

        async def ops():
            try:
                start = time.perf_counter()
                page = await client.request(
                    {"op": "page", "src": 0, "start": 0, "count": 64}
                )
                first_page_s = time.perf_counter() - start
                rows = col._order_rows[0][:64]
                assert page["objects"] == rows.tolist()
                assert np.array_equal(page["grades"], col._matrix[rows, 0])
                grades = await client.request(
                    {"op": "random", "src": 1, "ids": ids}
                )
                assert np.array_equal(grades["grades"], col._matrix[ids, 1])
                for i in range(2):
                    for s, run in enumerate(sharded.list_runs(i)):
                        at = len(run[0]) - 100
                        reply = await client.request(
                            {"op": "run_page", "list": i, "shard": s,
                             "start": at, "count": 64}
                        )
                        for key, part in zip(("rows", "grades", "ties"), run):
                            assert np.array_equal(reply[key], part[at:at + 64])
                return first_page_s
            finally:
                await client.aclose()

        assert run_async(ops()) < 1.0
        with AsyncAccessSession(network_services(address)) as session:
            got = ThresholdAlgorithm().run(session, AVERAGE, 10)
        assert result_signature(got) == result_signature(want)
        growth = _vmhwm(daemon.pid) - baseline
        assert growth <= budget + slack, growth
    finally:
        daemon.terminate()
        daemon.wait(timeout=10)
        daemon.stdout.close()


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
