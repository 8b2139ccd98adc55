"""Failure injection: malformed inputs, capability violations, remote
service faults, and mis-use must fail loudly with the right error
types -- and must never corrupt the access accounting."""

import numpy as np
import pytest

from repro import datagen
from repro.aggregation import AVERAGE, MIN, make_aggregation
from repro.core import (
    CombinedAlgorithm,
    FaginAlgorithm,
    NoRandomAccessAlgorithm,
    QuickCombine,
    RestrictedSortedAccessTA,
    StreamCombine,
    ThresholdAlgorithm,
)
from repro.core.base import QueryError
from repro.middleware import (
    AccessSession,
    CapabilityError,
    Database,
    DatabaseError,
    ListCapabilities,
    RemoteServiceError,
    ServiceTimeoutError,
    ServiceTransientError,
    ServiceUnavailableError,
    UnknownListError,
    UnknownObjectError,
    WildGuessError,
)
from repro.services import (
    AsyncAccessSession,
    FailureModel,
    RetryPolicy,
    SimulatedListService,
    services_for_database,
)


class TestMalformedDatabases:
    def test_grade_out_of_range(self):
        with pytest.raises(DatabaseError):
            Database.from_rows({"a": (0.5, 1.2)})

    def test_inconsistent_arity(self):
        with pytest.raises(DatabaseError):
            Database.from_rows({"a": (0.5,), "b": (0.5, 0.6)})

    def test_column_not_sorted(self):
        with pytest.raises(DatabaseError):
            Database.from_columns([[("a", 0.2), ("b", 0.9)]])

    def test_column_missing_object(self):
        with pytest.raises(DatabaseError):
            Database.from_columns(
                [[("a", 0.9), ("b", 0.2)], [("a", 0.9)]]
            )

    def test_nan_grade(self):
        with pytest.raises(DatabaseError):
            Database.from_array(np.array([[0.5, float("nan")]]))

    def test_empty_array(self):
        with pytest.raises(DatabaseError):
            Database.from_array(np.zeros((0, 2)))


class TestQueryValidation:
    @pytest.mark.parametrize(
        "algo",
        [
            ThresholdAlgorithm(),
            FaginAlgorithm(),
            NoRandomAccessAlgorithm(),
            CombinedAlgorithm(h=1),
            QuickCombine(),
            StreamCombine(),
        ],
        ids=lambda a: a.name,
    )
    def test_k_out_of_range(self, algo, tiny_db):
        with pytest.raises(QueryError):
            algo.run_on(tiny_db, AVERAGE, 0)
        with pytest.raises(QueryError):
            algo.run_on(tiny_db, AVERAGE, 7)

    def test_arity_mismatch_surfaces(self, tiny_db):
        t = make_aggregation(lambda g: g[0], arity=2)
        with pytest.raises(Exception) as err:
            ThresholdAlgorithm().run_on(tiny_db, t, 1)
        assert "expects 2 arguments" in str(err.value)


class TestCapabilityViolations:
    def test_ta_on_no_random_session(self, tiny_db):
        session = AccessSession.no_random(tiny_db)
        with pytest.raises(QueryError):
            ThresholdAlgorithm().run(session, AVERAGE, 1)

    def test_fa_on_no_random_session(self, tiny_db):
        session = AccessSession.no_random(tiny_db)
        with pytest.raises(QueryError):
            FaginAlgorithm().run(session, AVERAGE, 1)

    def test_ta_on_restricted_sorted_session(self, tiny_db):
        session = AccessSession.sorted_only_on(tiny_db, [0])
        with pytest.raises(QueryError):
            ThresholdAlgorithm().run(session, AVERAGE, 1)

    def test_taz_with_wrong_z(self, tiny_db):
        session = AccessSession.sorted_only_on(tiny_db, [0])
        with pytest.raises(QueryError):
            RestrictedSortedAccessTA(z=[1]).run(session, AVERAGE, 1)

    def test_raw_capability_error_if_algorithm_misbehaves(self, tiny_db):
        # bypass the pre-check: the session still defends itself
        session = AccessSession(
            tiny_db, capabilities=ListCapabilities(random_allowed=False)
        )
        with pytest.raises(CapabilityError):
            session.random_access(0, "a")


class TestWildGuessDefense:
    def test_rogue_algorithm_caught(self, tiny_db):
        """An 'algorithm' that guesses object names is exactly what
        Theorem 6.1's class excludes."""
        session = AccessSession(tiny_db, forbid_wild_guesses=True)

        def rogue(session):
            return session.random_access(0, "c")  # never seen c

        with pytest.raises(WildGuessError):
            rogue(session)

    def test_all_library_algorithms_pass_wild_guess_audit(self):
        db = datagen.uniform(60, 3, seed=2)
        for algo in (
            ThresholdAlgorithm(),
            ThresholdAlgorithm(remember_seen=True),
            FaginAlgorithm(),
            CombinedAlgorithm(h=2),
            QuickCombine(),
        ):
            session = AccessSession(db, forbid_wild_guesses=True)
            algo.run(session, MIN, 3)  # must not raise


class TestUnknownTargets:
    def test_unknown_object(self, tiny_db):
        session = AccessSession(tiny_db)
        with pytest.raises(UnknownObjectError):
            session.random_access(0, "nope")

    def test_unknown_list(self, tiny_db):
        session = AccessSession(tiny_db)
        with pytest.raises(UnknownListError):
            session.sorted_access(5)
        with pytest.raises(UnknownListError):
            session.random_access(-1, "a")


@pytest.mark.async_services
class TestRemoteServiceFailures:
    """Timeout / retry / permanent-failure injection on remote graded
    sources: failures surface as the middleware error types, retries
    are invisible to the accounting, and a failed access is never
    charged (the session charges only after a grade is served)."""

    def _db(self, n=30, m=2, seed=4):
        rng = np.random.default_rng(seed)
        return Database.from_array(rng.random((n, m)))

    def test_transient_failure_is_retried_and_uncharged(self):
        db = self._db(m=1)
        reference = AccessSession(db)
        services = services_for_database(
            db,
            failures=FailureModel(script={0: "transient"}),
            retry=RetryPolicy(max_attempts=2),
        )
        with AsyncAccessSession(
            services, batch_size=4, prefetch_pages=0, eager=False
        ) as session:
            for _ in range(db.num_objects):
                assert session.sorted_access(0) == reference.sorted_access(0)
            assert session.stats() == reference.stats()
        assert services[0].failed_attempts == 1
        # 1 failed attempt + ceil(30/4) successful pages
        assert services[0].calls == 1 + 8

    def test_timeout_exhausts_retries_and_never_charges(self):
        db = self._db(m=1)
        services = services_for_database(
            db,
            # call 0 is the first sorted page; calls 1-2 are the random
            # probe and its retry, both timing out
            failures=FailureModel(script={1: "timeout", 2: "timeout"}),
            retry=RetryPolicy(max_attempts=2),
        )
        with AsyncAccessSession(
            services, batch_size=4, prefetch_pages=0, eager=False
        ) as session:
            obj, _ = session.sorted_access(0)
            with pytest.raises(ServiceTimeoutError) as err:
                session.random_access(0, obj)
            assert err.value.attempts == 2
            assert isinstance(err.value, RemoteServiceError)
            # the failed probe was never charged...
            assert session.random_accesses == 0
            assert session.stats().random_by_list == {}
            # ...and a later retry by the caller charges exactly once
            grade = session.random_access(0, obj)
            assert grade == db.grade(obj, 0)
            assert session.random_accesses == 1
            assert session.sorted_accesses == 1

    def test_transient_exhaustion_surfaces_transient_error(self):
        db = self._db(m=1)
        services = services_for_database(
            db,
            failures=FailureModel(
                script={1: "transient", 2: "transient", 3: "transient"}
            ),
            retry=RetryPolicy(max_attempts=3),
        )
        with AsyncAccessSession(
            services, batch_size=4, prefetch_pages=0, eager=False
        ) as session:
            obj, _ = session.sorted_access(0)
            with pytest.raises(ServiceTransientError):
                session.random_access(0, obj)
            assert session.random_accesses == 0

    def test_permanent_failure_mid_stream_charges_only_served_prefix(self):
        db = self._db(n=30, m=2)
        services = services_for_database(
            db,
            failures=[
                None,
                # list 1 dies on its third page: entries 8.. never arrive
                FailureModel(script={2: "permanent"}),
            ],
        )
        with AsyncAccessSession(
            services, batch_size=4, prefetch_pages=0, eager=False
        ) as session:
            with pytest.raises(ServiceUnavailableError):
                NoRandomAccessAlgorithm().run(session, AVERAGE, 3)
            # lockstep rounds: list 0 served round 9's entry, list 1
            # raised instead -- the failed access is not charged
            assert session.stats().sorted_by_list == {0: 9, 1: 8}
            assert session.middleware_cost == 17
            # the dead service keeps failing loudly
            with pytest.raises(ServiceUnavailableError):
                session.sorted_access(1)
            assert session.stats().sorted_by_list == {0: 9, 1: 8}

    def test_pipelined_prefetch_failure_still_charges_exactly(self):
        """With overlap the failure fires in the background long before
        the consumer reaches it; charging must still cover exactly the
        served prefix."""
        db = self._db(n=40, m=1)
        services = services_for_database(
            db, failures=FailureModel(script={3: "permanent"})
        )
        with AsyncAccessSession(
            services, batch_size=4, prefetch_pages=3, eager=True
        ) as session:
            consumed = 0
            with pytest.raises(ServiceUnavailableError):
                for _ in range(db.num_objects):
                    session.sorted_access(0)
                    consumed += 1
            assert consumed == 12  # three pages arrived before the fault
            assert session.sorted_accesses == 12

    def test_probabilistic_failures_with_retry_are_invisible(self):
        """Seeded random transient/timeout faults, absorbed by a retry
        budget, must not change results or accounting at all."""
        db = self._db(n=50, m=3, seed=11)
        reference = NoRandomAccessAlgorithm().run_on(db, MIN, 4)
        services = services_for_database(
            db,
            failures=FailureModel(
                timeout_rate=0.1, transient_rate=0.1, seed=99
            ),
            retry=RetryPolicy(max_attempts=8),
        )
        with AsyncAccessSession(services, batch_size=8) as session:
            result = NoRandomAccessAlgorithm().run(session, MIN, 4)
        assert result.items == reference.items
        assert result.stats == reference.stats
        assert sum(s.failed_attempts for s in services) > 0

    def test_wild_guess_check_precedes_the_service_call(self):
        db = self._db(m=1)
        services = services_for_database(
            db, failures=FailureModel(script={0: "permanent"})
        )
        with AsyncAccessSession(
            services,
            forbid_wild_guesses=True,
            prefetch_pages=0,
            eager=False,
        ) as session:
            with pytest.raises(WildGuessError):
                session.random_access(0, 0)
        # the certificate fired before any service round trip
        assert services[0].calls == 0

    def test_unknown_object_through_async_session(self):
        db = self._db(m=1)
        with AsyncAccessSession(
            services_for_database(db), prefetch_pages=0, eager=False
        ) as session:
            with pytest.raises(UnknownObjectError):
                session.random_access(0, "missing")
            assert session.random_accesses == 0

    def test_failure_model_validation(self):
        with pytest.raises(ValueError):
            FailureModel(script={0: "explode"})
        with pytest.raises(ValueError):
            FailureModel(timeout_rate=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        from repro.services import LatencyModel

        with pytest.raises(ValueError):
            LatencyModel(base=-1.0)

    def test_zero_batch_size_rejected(self):
        import asyncio

        service = SimulatedListService("s", [("a", 0.5)])
        with pytest.raises(ValueError):
            asyncio.run(service.page(0, 0))
        assert service.calls == 0


@pytest.mark.async_services
class TestConnectionFailures:
    """Socket-level faults on the real transport must map onto the
    service error taxonomy and -- like the PR 4 permanent-failure
    semantics -- charge exactly the served prefix: a failed access is
    an access that never happened."""

    def _db(self, n=30, m=2, seed=4):
        rng = np.random.default_rng(seed)
        return Database.from_array(rng.random((n, m)))

    def test_killed_server_stream_fails_at_exact_page_boundary(self):
        """Drive a network source's page stream directly (no session
        prefetcher): after the server process is SIGKILLed, the pages
        already shipped stand, and the next page request maps the
        reset/refused connection into the service taxonomy -- exactly
        two pages served, never 2.5."""
        import asyncio

        from repro.services import RetryPolicy, network_services, read_pages
        from repro.transport import ServerProcess

        db = self._db(n=30, m=1)
        with ServerProcess(db) as server:
            source = network_services(
                server.address, retry=RetryPolicy(max_attempts=2)
            )[0]

            async def consume():
                served = []
                stream = read_pages(source.page, source.num_entries, 4)
                for _ in range(2):
                    page = await anext(stream)
                    served.extend(page)
                server.kill()  # SIGKILL: no draining, no goodbye
                with pytest.raises(
                    (ServiceUnavailableError, ServiceTransientError)
                ):
                    await anext(stream)
                return served

            served = asyncio.run(consume())
        assert served == [db.sorted_entry(0, p) for p in range(8)]

    def test_killed_server_mid_run_charges_only_served_prefix(self):
        """The real-socket twin of
        ``test_permanent_failure_mid_stream_charges_only_served_prefix``:
        the server *process* dies mid-run.  Buffered-but-unconsumed
        pages are uncharged speculation either way, so the exact
        invariant is: every entry the algorithm consumed is charged,
        the access that hit the dead socket is not, and the failure
        surfaces as a service error the retry machinery understands."""
        from repro.services import RetryPolicy, network_services
        from repro.transport import ServerProcess

        db = self._db(n=200, m=2)
        with ServerProcess(db) as server:
            with AsyncAccessSession(
                network_services(
                    server.address, retry=RetryPolicy(max_attempts=2)
                ),
                batch_size=4,
                prefetch_pages=0,
                eager=False,
            ) as session:
                consumed = {0: 0, 1: 0}
                for _ in range(5):
                    for i in (0, 1):
                        assert session.sorted_access(i) is not None
                        consumed[i] += 1
                server.kill()  # SIGKILL: no draining, no goodbye
                with pytest.raises(RemoteServiceError):
                    # the handful of already-buffered entries still
                    # serve (uncharged speculation made real on
                    # consumption); the first entry that needs the
                    # dead process raises *before* being charged
                    for _ in range(db.num_objects):
                        for i in (0, 1):
                            assert session.sorted_access(i) is not None
                            consumed[i] += 1
                assert sum(consumed.values()) < db.num_objects  # mid-run
                assert session.stats().sorted_by_list == consumed
                assert session.middleware_cost == sum(consumed.values())
                # the dead server keeps failing: any leftover buffered
                # entries still serve (and charge), then every further
                # attempt raises without charging
                with pytest.raises(RemoteServiceError):
                    while True:
                        session.sorted_access(0)
                        consumed[0] += 1
                assert session.stats().sorted_by_list == consumed

    def test_mid_frame_eof_maps_to_transient_and_exhausts_retries(self):
        """A peer that closes mid-frame (IncompleteReadError territory)
        is a retryable transient; exhausting the budget surfaces
        ServiceTransientError with the attempt count."""
        import socket
        import threading

        from repro.services import RetryPolicy, network_client

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        listener.settimeout(0.1)
        stop = threading.Event()

        def rude_server():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                with conn:
                    conn.recv(65536)
                    conn.sendall(b"\xff\xff")  # 2 of 4 header bytes
        thread = threading.Thread(target=rude_server, daemon=True)
        thread.start()
        try:
            client = network_client(
                listener.getsockname(),
                retry=RetryPolicy(max_attempts=3),
                request_timeout=5.0,
            )

            async def probe():
                await client.fetch_metadata()

            with pytest.raises(ServiceTransientError) as err:
                import asyncio

                asyncio.run(probe())
            assert err.value.attempts == 3
        finally:
            stop.set()
            thread.join(timeout=5.0)
            listener.close()

    def test_corrupt_frame_is_never_retried(self):
        """A complete frame with a garbage payload is a protocol
        violation: WireFormatError, raised immediately -- retry
        policies are for weather, not bugs."""
        import socket
        import struct
        import threading

        from repro.middleware import WireFormatError
        from repro.services import RetryPolicy, network_client

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        listener.settimeout(0.1)
        stop = threading.Event()
        served = []

        def corrupt_server():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                with conn:
                    conn.recv(65536)
                    served.append(1)
                    # well-formed frame, unknown tag byte inside
                    conn.sendall(struct.pack("<I", 1) + b"z")
        thread = threading.Thread(target=corrupt_server, daemon=True)
        thread.start()
        try:
            client = network_client(
                listener.getsockname(),
                retry=RetryPolicy(max_attempts=5),
                request_timeout=5.0,
            )

            async def probe():
                await client.fetch_metadata()

            with pytest.raises(WireFormatError):
                import asyncio

                asyncio.run(probe())
            assert len(served) == 1  # no retry happened
        finally:
            stop.set()
            thread.join(timeout=5.0)
            listener.close()

    def test_connection_error_mapping_table(self):
        """The documented socket-fault -> taxonomy mapping."""
        from repro.middleware import connection_error_to_service_error as f

        assert isinstance(f("s", TimeoutError()), ServiceTimeoutError)
        assert isinstance(
            f("s", ConnectionRefusedError()), ServiceUnavailableError
        )
        assert isinstance(
            f("s", ConnectionResetError()), ServiceTransientError
        )
        assert isinstance(f("s", BrokenPipeError()), ServiceTransientError)
        assert isinstance(f("s", EOFError()), ServiceTransientError)
        assert isinstance(f("s", OSError()), ServiceTransientError)
        already = ServiceTimeoutError("s", 2)
        assert f("s", already) is already
        with pytest.raises(TypeError):
            f("s", KeyError("not a connection failure"))


class TestNonMonotoneMisuse:
    def test_non_monotone_function_can_break_ta(self):
        """TA's contract requires monotone t; with a non-monotone rule the
        verifier catches the wrong answer (documented behaviour, not an
        exception)."""
        from repro.analysis import is_correct_topk

        db = Database.from_rows(
            {
                "good": (0.9, 0.9),
                "sneaky": (0.05, 0.05),
                "mid": (0.5, 0.5),
            }
        )
        trap = make_aggregation(
            lambda g: 1.0 - sum(g) / len(g), name="anti-average",
            monotone=False,
        )
        res = ThresholdAlgorithm().run_on(db, trap, 1)
        # TA cannot be trusted here: 'sneaky' is the true winner
        truth_ok = is_correct_topk(db, trap, 1, res.objects)
        assert not truth_ok or res.objects == ["sneaky"]
