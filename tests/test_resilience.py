"""Resilient query execution: replica failover, hedged requests,
deadlines, and certified degraded-mode answers.

The contracts under test (the PR's acceptance bar):

* failover is *invisible* -- a replica dying mid-stream (scripted
  in-process, or a real server SIGKILLed mid-query) leaves the query's
  observable stream, items, halting, and ``AccessStats`` bit-identical
  to a failure-free run;
* a whole list lost for good still yields an answer whose certificate
  (exact or theta-approximate, with per-object bound intervals) holds
  against an oracle over the full data;
* a query budget (wall-clock deadline or cost ceiling) halts every
  engine cleanly with ``HaltReason.DEADLINE`` and a certified theta;
* breakers, retry backoff, and hedging are deterministic under fixed
  seeds, and hedged duplicates are never charged.

Everything here runs under the ``async_services`` SIGALRM guard
(tests/conftest.py); server subprocesses are reaped even when the guard
fires mid-test (``ReplicaFleet``/``ServerProcess`` context managers
plus the harness's atexit registry).
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aggregation import AVERAGE
from repro.core import (
    CombinedAlgorithm,
    HaltReason,
    NoRandomAccessAlgorithm,
    StreamCombine,
    ThresholdAlgorithm,
)
from repro.middleware import (
    AccessSession,
    Database,
    DatabaseError,
    ListLostError,
    QueryBudget,
    ReplicaGroupExhaustedError,
    ServiceTimeoutError,
    ServiceTransientError,
    ServiceUnavailableError,
)
from repro.middleware.cost import CostModel
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    CircuitBreakerPolicy,
    DegradedResult,
    ReplicaFleet,
    ReplicatedGradedSource,
    verify_against_oracle,
)
from repro.services import (
    AsyncAccessSession,
    FailureModel,
    LatencyModel,
    RetryPolicy,
    network_client,
    network_services,
    read_pages,
    services_for_database,
)
from repro.server import QueryServer, QueryService
from repro.transport import ServerProcess

from tests.helpers import result_signature, run_async

pytestmark = pytest.mark.async_services

#: one entry per engine family exercised over service sessions
ALGORITHMS = [
    (ThresholdAlgorithm(), None),
    (ThresholdAlgorithm(remember_seen=True), None),
    (NoRandomAccessAlgorithm(), None),
    (CombinedAlgorithm(h=2), CostModel(1.0, 5.0)),
    (StreamCombine(), None),
]

NO_RETRY = RetryPolicy(max_attempts=1)


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(47)
    return Database.from_array(rng.integers(0, 10, (36, 3)) / 9.0)


@pytest.fixture(scope="module")
def oracle(db):
    return {obj: db.grade_vector(obj) for obj in db.objects}


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_threshold_and_cools_down(self):
        breaker = CircuitBreaker(
            CircuitBreakerPolicy(failure_threshold=2, cooldown_ticks=4)
        )
        assert breaker.state == BreakerState.CLOSED
        breaker.record_failure(0)
        assert breaker.state == BreakerState.CLOSED
        breaker.record_failure(1)
        assert breaker.state == BreakerState.OPEN
        assert breaker.opens == 1
        assert not breaker.allow(2)
        assert not breaker.allow(4)
        # cooldown elapsed: exactly the probe is allowed (HALF_OPEN)
        assert breaker.allow(5)
        assert breaker.state == BreakerState.HALF_OPEN

    def test_probe_success_closes_probe_failure_reopens(self):
        policy = CircuitBreakerPolicy(failure_threshold=1, cooldown_ticks=3)
        good = CircuitBreaker(policy)
        good.record_failure(0)
        assert good.allow(3)
        good.record_success()
        assert good.state == BreakerState.CLOSED
        assert good.consecutive_failures == 0

        bad = CircuitBreaker(policy)
        bad.record_failure(0)
        assert bad.allow(3)
        bad.record_failure(3)  # failed probe: straight back to OPEN
        assert bad.state == BreakerState.OPEN
        assert bad.opens == 2
        assert not bad.allow(5)

    def test_reopen_in_counts_down(self):
        breaker = CircuitBreaker(
            CircuitBreakerPolicy(failure_threshold=1, cooldown_ticks=5)
        )
        assert breaker.reopen_in(0) == 0.0
        breaker.record_failure(10)
        assert breaker.reopen_in(10) == 5.0
        assert breaker.reopen_in(13) == 2.0
        assert breaker.reopen_in(40) == 0.0

    def test_jittered_cooldown_is_deterministic_under_seed(self):
        policy = CircuitBreakerPolicy(
            failure_threshold=1, cooldown_ticks=10, jitter=0.5, seed=7
        )
        a, b = CircuitBreaker(policy), CircuitBreaker(policy)
        schedule_a, schedule_b = [], []
        for breaker, schedule in ((a, schedule_a), (b, schedule_b)):
            tick = 0
            for _ in range(5):
                breaker.record_failure(tick)
                reopen = breaker.reopen_in(tick)
                schedule.append(reopen)
                tick += int(reopen) + 1
                assert breaker.allow(tick)
        assert schedule_a == schedule_b
        # jitter actually stretches the cooldown beyond the base
        assert all(10.0 <= r <= 15.0 for r in schedule_a)
        assert len(set(schedule_a)) > 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CircuitBreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreakerPolicy(cooldown_ticks=0)
        with pytest.raises(ValueError):
            CircuitBreakerPolicy(jitter=1.5)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        events=st.lists(
            st.sampled_from(["ok", "fail", "skip"]), max_size=60
        ),
        threshold=st.integers(min_value=1, max_value=4),
        cooldown=st.integers(min_value=1, max_value=6),
        jitter=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_state_machine_invariants(
        self, events, threshold, cooldown, jitter, seed
    ):
        """The breaker never leaves its three states, only refuses when
        OPEN, and twins under the same seed walk in lockstep."""
        policy = CircuitBreakerPolicy(
            failure_threshold=threshold,
            cooldown_ticks=cooldown,
            jitter=jitter,
            seed=seed,
        )
        breaker, twin = CircuitBreaker(policy), CircuitBreaker(policy)
        for tick, event in enumerate(events):
            for b in (breaker, twin):
                allowed = b.allow(tick)
                if not allowed:
                    assert b.state == BreakerState.OPEN
                    assert b.reopen_in(tick) > 0
                    continue
                if event == "ok":
                    b.record_success()
                    assert b.state == BreakerState.CLOSED
                elif event == "fail":
                    b.record_failure(tick)
            assert breaker.state == twin.state
            assert breaker.opens == twin.opens
            assert breaker.reopen_in(tick) == twin.reopen_in(tick)
            assert breaker.state in (
                BreakerState.CLOSED,
                BreakerState.OPEN,
                BreakerState.HALF_OPEN,
            )


# ---------------------------------------------------------------------------
# retry backoff
# ---------------------------------------------------------------------------
class TestRetryBackoff:
    def test_exponential_schedule_with_cap(self):
        policy = RetryPolicy(
            max_attempts=5, backoff=0.1, multiplier=2.0, max_backoff=0.5
        )
        delays = [policy.delay(a) for a in range(1, 6)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jittered_schedule_is_deterministic_under_seed(self):
        policy = RetryPolicy(
            max_attempts=4, backoff=0.2, jitter=0.5, seed=11
        )
        first = [policy.delay(a, policy.sampler()) for a in (1, 2, 3)]
        second = [policy.delay(a, policy.sampler()) for a in (1, 2, 3)]
        assert first == second
        base = [0.2, 0.4, 0.8]
        for got, expect in zip(first, base):
            assert expect * 0.5 <= got <= expect * 1.5

    def test_zero_backoff_keeps_retries_immediate(self):
        policy = RetryPolicy(max_attempts=3)
        assert [policy.delay(a) for a in (1, 2)] == [0.0, 0.0]


# ---------------------------------------------------------------------------
# replica groups, in-process (scripted failures: bit-reproducible)
# ---------------------------------------------------------------------------
def replica_groups(db, *, replica0_kwargs=None, **group_kwargs):
    """Two in-process replicas per list; replica 0 optionally broken."""
    primary = services_for_database(db, **(replica0_kwargs or {}))
    secondary = services_for_database(db)
    return [
        ReplicatedGradedSource(
            first.name, [first, second], **group_kwargs
        )
        for first, second in zip(primary, secondary)
    ], primary


class TestReplicatedSourceInProcess:
    def test_replica_disagreement_is_rejected(self, db, two_list_db):
        a = services_for_database(db)[0]
        b = services_for_database(two_list_db)[0]
        with pytest.raises(DatabaseError):
            ReplicatedGradedSource("list-0", [a, b])
        with pytest.raises(DatabaseError):
            ReplicatedGradedSource("empty", [])

    def test_mid_stream_failover_is_bit_identical(self, db):
        """Replica 0 dies for good between pages: the stream resumes on
        replica 1 at the exact page boundary."""
        groups, primary = replica_groups(
            db,
            replica0_kwargs=dict(
                failures=FailureModel(script={2: "permanent"}),
                retry=NO_RETRY,
            ),
        )
        group = groups[0]

        async def drain():
            out = []
            async for page in read_pages(group.page, group.num_entries, 5):
                out.extend(zip(page.objects, page.grades))
            return out

        entries = run_async(drain())
        assert entries == [
            db.sorted_entry(0, pos) for pos in range(db.num_objects)
        ]
        assert group.failovers >= 1
        assert primary[0]._dead

    def test_group_exhausted_when_every_replica_fails(self, db):
        service = services_for_database(
            db,
            failures=FailureModel(
                script={i: "transient" for i in range(10)}
            ),
            retry=NO_RETRY,
        )[0]
        group = ReplicatedGradedSource(
            "list-0",
            [service],
            breaker_policy=CircuitBreakerPolicy(
                failure_threshold=2, cooldown_ticks=3
            ),
        )
        with pytest.raises(ReplicaGroupExhaustedError) as excinfo:
            run_async(group.page(0, 4))
        assert isinstance(excinfo.value, ServiceUnavailableError)
        with pytest.raises(ReplicaGroupExhaustedError):
            run_async(group.page(0, 4))
        assert group.breakers[0].opens >= 1
        # the open-breakered sole replica is still force-probed: the
        # group keeps trying (and keeps reporting honestly) rather than
        # refusing outright
        with pytest.raises(ReplicaGroupExhaustedError):
            run_async(group.page(0, 4))

    def test_breaker_skips_failing_replica(self, db):
        """After the breaker trips, the broken replica is not even
        attempted until its cooldown elapses."""
        groups, primary = replica_groups(
            db,
            replica0_kwargs=dict(
                failures=FailureModel(transient_rate=1.0),
                retry=NO_RETRY,
            ),
            breaker_policy=CircuitBreakerPolicy(
                failure_threshold=1, cooldown_ticks=100
            ),
        )
        group = groups[0]

        async def pages(n):
            for start in range(0, n * 4, 4):
                await group.page(start, 4)

        run_async(pages(5))
        assert primary[0].calls == 1  # only the request that tripped it
        assert group.breakers[0].state == BreakerState.OPEN
        assert group.failovers == 1

    def test_scripted_failover_parity_all_engines(self, db):
        """Transient failures sprinkled over replica 0 of every list:
        every engine's result (items, halting, stats, rounds) is
        bit-identical to a failure-free run."""
        script = FailureModel(
            script={0: "transient", 2: "timeout", 5: "transient"}
        )
        for algorithm, cost_model in ALGORITHMS:
            extra = [] if cost_model is None else [cost_model]
            with AsyncAccessSession(
                services_for_database(db),
                *extra,
                batch_size=4,
                prefetch_pages=0,
            ) as session:
                reference = algorithm.run(session, AVERAGE, 3)
            groups, _ = replica_groups(
                db,
                replica0_kwargs=dict(failures=script, retry=NO_RETRY),
            )
            with AsyncAccessSession(
                groups, *extra, batch_size=4, prefetch_pages=0
            ) as session:
                result = algorithm.run(session, AVERAGE, 3)
            assert result_signature(result) == result_signature(
                reference
            ), algorithm.name
            assert sum(g.failovers for g in groups) >= 1


class _SlowReplica:
    """Delegating wrapper that sleeps before every call -- the injected
    tail latency for hedging tests (wall-clock only, never model
    cost)."""

    def __init__(self, inner, delay: float):
        self._inner = inner
        self._delay = delay
        self.name = inner.name

    @property
    def num_entries(self):
        return self._inner.num_entries

    def capabilities(self):
        return self._inner.capabilities()

    async def page(self, start, count):
        await asyncio.sleep(self._delay)
        return await self._inner.page(start, count)

    async def random_access_batch(self, objects):
        await asyncio.sleep(self._delay)
        return await self._inner.random_access_batch(objects)


class TestHedging:
    def test_hedge_wins_against_slow_primary(self, db):
        slow = [
            _SlowReplica(s, 0.25) for s in services_for_database(db)
        ]
        fast = services_for_database(db)
        groups = [
            ReplicatedGradedSource(
                a.name, [a, b], hedge_after=0.01
            )
            for a, b in zip(slow, fast)
        ]
        started = time.monotonic()
        page = run_async(groups[0].page(0, 4))
        elapsed = time.monotonic() - started
        assert list(zip(page.objects, page.grades)) == [
            db.sorted_entry(0, pos) for pos in range(4)
        ]
        assert groups[0].hedges_fired >= 1
        assert groups[0].hedge_wins >= 1
        assert groups[0].failovers == 0
        assert elapsed < 0.25  # did not wait out the slow replica

    def test_fast_primary_never_hedges(self, db):
        groups, _ = replica_groups(db, hedge_after=5.0)
        run_async(groups[0].page(0, 4))
        assert groups[0].hedges_fired == 0
        assert groups[0].hedge_wins == 0

    def test_hedged_run_is_uncharged_and_bit_identical(self, db):
        """A full engine run with hedging against a slow primary charges
        exactly what the failure-free run charges -- speculation is
        wall-clock, never model cost."""
        with AsyncAccessSession(
            services_for_database(db), batch_size=4, prefetch_pages=0
        ) as session:
            reference = NoRandomAccessAlgorithm().run(session, AVERAGE, 3)
        slow = [
            _SlowReplica(s, 0.2) for s in services_for_database(db)
        ]
        fast = services_for_database(db)
        groups = [
            ReplicatedGradedSource(a.name, [a, b], hedge_after=0.005)
            for a, b in zip(slow, fast)
        ]
        with AsyncAccessSession(
            groups, batch_size=4, prefetch_pages=0
        ) as session:
            result = NoRandomAccessAlgorithm().run(session, AVERAGE, 3)
        assert result_signature(result) == result_signature(reference)
        assert sum(g.hedge_wins for g in groups) >= 1


# ---------------------------------------------------------------------------
# query budgets: deadlines and cost ceilings
# ---------------------------------------------------------------------------
class TestQueryBudget:
    def test_validation_and_clock(self):
        with pytest.raises(ValueError):
            QueryBudget(deadline_s=-1.0)
        with pytest.raises(ValueError):
            QueryBudget(max_cost=-0.5)
        now = {"t": 0.0}
        budget = QueryBudget(deadline_s=5.0, clock=lambda: now["t"])
        assert not budget.expired()
        assert budget.started  # expired() arms the wall clock
        now["t"] = 4.9
        assert not budget.expired()
        assert budget.remaining() == pytest.approx(0.1)
        now["t"] = 5.0
        assert budget.expired()

    def test_cost_ceiling_expires_at_the_boundary(self):
        budget = QueryBudget(max_cost=10.0)
        assert not budget.expired(9.99)
        assert budget.expired(10.0)
        assert QueryBudget(max_cost=0.0).expired(0.0)

    def test_engines_halt_on_cost_ceiling_with_certificates(
        self, db, oracle
    ):
        """Every engine, mid-run over a service session: DEADLINE halt,
        a certified theta in extras, and intervals that contain the
        truth."""
        for algorithm, cost_model in ALGORITHMS:
            extra = [] if cost_model is None else [cost_model]
            with AsyncAccessSession(
                services_for_database(db),
                *extra,
                batch_size=4,
                prefetch_pages=0,
                budget=QueryBudget(max_cost=20.0),
            ) as session:
                result = algorithm.run(session, AVERAGE, 3)
            assert result.halt_reason == HaltReason.DEADLINE, (
                algorithm.name
            )
            assert result.stats.middleware_cost >= 20.0
            theta = result.extras["certified_theta"]
            assert theta >= 1.0
            verify_against_oracle(result, oracle, AVERAGE)

    def test_zero_budget_returns_immediately(self, db, oracle):
        with AsyncAccessSession(
            services_for_database(db),
            budget=QueryBudget(max_cost=0.0),
        ) as session:
            result = NoRandomAccessAlgorithm().run(session, AVERAGE, 3)
        assert result.halt_reason == HaltReason.DEADLINE
        assert result.stats.middleware_cost == 0.0
        verify_against_oracle(result, oracle, AVERAGE)

    def test_wall_clock_deadline_with_fake_clock(self, db, oracle):
        """The injectable clock makes deadline expiry deterministic:
        every poll advances one fake second, so a 5s deadline stops the
        run after a handful of rounds -- no sleeping anywhere."""
        now = {"t": 0.0}

        def clock():
            now["t"] += 1.0
            return now["t"]

        with AsyncAccessSession(
            services_for_database(db),
            batch_size=4,
            prefetch_pages=0,
            budget=QueryBudget(deadline_s=5.0, clock=clock),
        ) as session:
            result = NoRandomAccessAlgorithm().run(session, AVERAGE, 3)
        assert result.halt_reason == HaltReason.DEADLINE
        assert result.stats.sorted_accesses < 3 * db.num_objects
        verify_against_oracle(result, oracle, AVERAGE)

    def test_columnar_engines_honour_budget_at_chunk_boundaries(
        self, db, oracle
    ):
        result = NoRandomAccessAlgorithm().run(
            AccessSession(db, budget=QueryBudget(max_cost=0.0)),
            AVERAGE,
            3,
        )
        assert result.halt_reason == HaltReason.DEADLINE
        verify_against_oracle(result, oracle, AVERAGE)

    @pytest.mark.parametrize(
        "max_cost,rounds", [(0.0, 0), (1.0, 32)], ids=["zero", "first-chunk"]
    )
    @pytest.mark.parametrize(
        "algorithm,cost_model",
        [
            (NoRandomAccessAlgorithm(), None),
            (CombinedAlgorithm(), CostModel(1.0, 5.0)),
            (StreamCombine(), None),
        ],
        ids=["nra", "ca", "stream-combine"],
    )
    def test_bound_engines_halt_with_deadline_at_chunk_boundaries(
        self, algorithm, cost_model, max_cost, rounds
    ):
        """Every engine on the lockstep chunk driver stops at a chunk
        boundary once its budget is spent: a zero ceiling before the
        first chunk, a ceiling of 1 after the first chunk of 32 rounds
        (none of which halts on this database), and the answer stays
        certified."""
        rng = np.random.default_rng(47)
        scalar = Database.from_array(rng.random((400, 3)))
        oracle = {obj: scalar.grade_vector(obj) for obj in scalar.objects}
        session = AccessSession(
            scalar.to_columnar(),
            cost_model or CostModel(1.0, 1.0),
            budget=QueryBudget(max_cost=max_cost),
        )
        assert session.supports_batches
        result = algorithm.run(session, AVERAGE, 3)
        assert result.halt_reason == HaltReason.DEADLINE
        assert result.rounds == rounds
        verify_against_oracle(result, oracle, AVERAGE)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(max_cost=st.floats(min_value=0.0, max_value=120.0))
    def test_any_budget_yields_a_sound_certificate(
        self, db, oracle, max_cost
    ):
        """Whatever the ceiling, the answer's bounds and certified
        factor hold against the oracle (hypothesis sweep)."""
        result = NoRandomAccessAlgorithm().run(
            AccessSession(db, budget=QueryBudget(max_cost=max_cost)),
            AVERAGE,
            3,
        )
        verify_against_oracle(result, oracle, AVERAGE)
        if result.halt_reason == HaltReason.DEADLINE:
            assert result.extras["certified_theta"] >= 1.0


# ---------------------------------------------------------------------------
# degraded mode: losing a whole list, in-process
# ---------------------------------------------------------------------------
class TestListLossInProcess:
    def lossy_session(self, db, *extra, **kwargs):
        """Sources whose list-2 service dies for good on its second
        call."""
        failures = [None, None, FailureModel(script={1: "permanent"})]
        return AsyncAccessSession(
            services_for_database(db, failures=failures, retry=NO_RETRY),
            *extra,
            batch_size=4,
            prefetch_pages=0,
            survive_list_loss=True,
            **kwargs,
        )

    @pytest.mark.parametrize(
        "algorithm,cost_model", ALGORITHMS, ids=lambda v: ""
    )
    def test_every_engine_survives_and_certifies(
        self, db, oracle, algorithm, cost_model
    ):
        extra = [] if cost_model is None else [cost_model]
        with self.lossy_session(db, *extra) as session:
            result = algorithm.run(session, AVERAGE, 3)
        assert isinstance(result, DegradedResult), algorithm.name
        assert set(result.lost_lists) == {2}
        assert result.certified_theta >= 1.0
        assert result.is_exact == (result.guarantee == "exact")
        assert len(result.items) == 3
        verify_against_oracle(result, oracle, AVERAGE)

    def test_loss_depth_is_recorded(self, db):
        with self.lossy_session(db) as session:
            result = NoRandomAccessAlgorithm().run(session, AVERAGE, 3)
        # one 4-entry page was consumed before the second page died
        assert 0 <= result.lost_lists[2] <= 4

    def test_without_survive_mode_the_loss_propagates(self, db):
        failures = [None, None, FailureModel(script={1: "permanent"})]
        with AsyncAccessSession(
            services_for_database(db, failures=failures, retry=NO_RETRY),
            batch_size=4,
            prefetch_pages=0,
        ) as session:
            with pytest.raises(ServiceUnavailableError):
                NoRandomAccessAlgorithm().run(session, AVERAGE, 3)

    def test_random_access_to_lost_list_raises_list_lost(self, db):
        failures = [None, None, FailureModel(script={0: "permanent"})]
        with AsyncAccessSession(
            services_for_database(db, failures=failures, retry=NO_RETRY),
            survive_list_loss=True,
            batch_size=4,
            prefetch_pages=0,
        ) as session:
            obj = session.sorted_access(0)[0]
            with pytest.raises(ListLostError) as excinfo:
                session.random_access(2, obj)
            assert excinfo.value.list_index == 2
            assert 2 in session.lost_lists


# ---------------------------------------------------------------------------
# chaos over live transport: SIGKILL mid-query
# ---------------------------------------------------------------------------
class TestChaosTransport:
    @pytest.fixture(scope="class")
    def fleet(self, db):
        with ReplicaFleet(db, replicas=2) as fleet:
            yield fleet

    def revive(self, fleet):
        for j, server in enumerate(fleet.servers):
            if server.process.poll() is not None:
                fleet.restart(j)

    def test_sigkill_mid_stream_failover_is_bit_identical(
        self, db, fleet
    ):
        """SIGKILL the preferred replica between pages of a live sorted
        stream: the stream resumes on the survivor at the exact page
        boundary -- bytes on a socket, no shared state."""
        self.revive(fleet)
        group = fleet.services()[0]

        async def drain():
            out = []
            position = 0
            killed = False
            while position < group.num_entries:
                page = await group.page(position, 5)
                out.extend(zip(page.objects, page.grades))
                position += len(page.objects)
                if not killed and position >= 10:
                    fleet.kill(0)
                    killed = True
            return out

        entries = run_async(drain())
        assert entries == [
            db.sorted_entry(0, pos) for pos in range(db.num_objects)
        ]
        assert group.failovers >= 1
        fleet.restart(0)

    def test_sigkilled_replica_mid_query_parity_all_engines(
        self, db, fleet
    ):
        """The acceptance bar: r=2 replicas per list, one replica of
        every list SIGKILLed mid-query -- every engine completes over
        live transport bit-identically to the failure-free run."""
        for algorithm, cost_model in ALGORITHMS:
            extra = [] if cost_model is None else [cost_model]
            with AsyncAccessSession(
                services_for_database(db),
                *extra,
                batch_size=4,
                prefetch_pages=0,
            ) as reference_session:
                for i in range(db.num_lists):
                    reference_session.sorted_access(i)
                reference = algorithm.run(reference_session, AVERAGE, 3)

            self.revive(fleet)
            groups = fleet.services()
            with AsyncAccessSession(
                groups, *extra, batch_size=4, prefetch_pages=0
            ) as session:
                # same primer as the reference: the query is live and
                # every group's stream is open on replica 0 ...
                for i in range(db.num_lists):
                    session.sorted_access(i)
                # ... then replica 0 of *every* list dies, no goodbye
                fleet.kill(0)
                result = algorithm.run(session, AVERAGE, 3)
            assert result_signature(result) == result_signature(
                reference
            ), algorithm.name
            assert any(g.failovers >= 1 for g in groups)

    def test_whole_list_lost_over_transport_yields_certified_answer(
        self, db, oracle, fleet
    ):
        """List 2 is served by a single sacrificial server; killing it
        mid-query loses the list for good.  NRA finishes over the
        survivors and the certificate holds against the oracle."""
        self.revive(fleet)
        with ServerProcess(db) as sacrificial:
            groups = fleet.services()
            solo = ReplicatedGradedSource(
                "list-2",
                [
                    s
                    for s in network_services(sacrificial.address)
                    if s.name == "list-2"
                ],
            )
            with AsyncAccessSession(
                [groups[0], groups[1], solo],
                batch_size=4,
                prefetch_pages=0,
                survive_list_loss=True,
            ) as session:
                for i in range(db.num_lists):
                    session.sorted_access(i)
                sacrificial.kill()
                result = NoRandomAccessAlgorithm().run(
                    session, AVERAGE, 3
                )
        assert isinstance(result, DegradedResult)
        assert set(result.lost_lists) == {2}
        assert result.certified_theta >= 1.0
        verify_against_oracle(result, oracle, AVERAGE)

    def test_deadline_over_live_transport(self, db, oracle, fleet):
        self.revive(fleet)
        with AsyncAccessSession(
            fleet.services(),
            batch_size=4,
            prefetch_pages=0,
            budget=QueryBudget(max_cost=15.0),
        ) as session:
            result = NoRandomAccessAlgorithm().run(session, AVERAGE, 3)
        assert result.halt_reason == HaltReason.DEADLINE
        assert result.extras["certified_theta"] >= 1.0
        verify_against_oracle(result, oracle, AVERAGE)


# ---------------------------------------------------------------------------
# transport server hardening: caps, backpressure, drain, restart
# ---------------------------------------------------------------------------
async def _concurrent_pages(address, n, *, start=0, count=4):
    client = network_client(address, pool_size=n)
    try:
        sources = await client.sources()
        return await asyncio.gather(
            *(sources[0].page(start, count) for _ in range(n))
        )
    finally:
        client.close()


class TestServerHardening:
    def test_max_concurrent_caps_inflight(self, db):
        """Eight simultaneous slow requests against a cap of two: all
        succeed, but the server never holds more than two in flight --
        the backpressure loop simply stops reading frames."""
        service = QueryService(database=db, latency=LatencyModel(base=0.05))
        with QueryServer(service, max_concurrent=2).start_in_thread() as server:
            pages = run_async(_concurrent_pages(server.address, 8))
            assert all(
                list(zip(p.objects, p.grades))
                == [db.sorted_entry(0, pos) for pos in range(4)]
                for p in pages
            )
            assert server.peak_inflight <= 2

    def test_uncapped_server_runs_wide_open(self, db):
        service = QueryService(database=db, latency=LatencyModel(base=0.05))
        with QueryServer(service).start_in_thread() as server:
            run_async(_concurrent_pages(server.address, 8))
            assert server.peak_inflight > 2

    def test_max_concurrent_validation(self, db):
        with pytest.raises(DatabaseError):
            QueryServer(QueryService(database=db), max_concurrent=0)

    def test_sigterm_drains_inflight_request(self, db):
        """SIGTERM while a slow request is in flight: the response
        still arrives, and the child exits 0 (graceful drain, not a
        dropped connection)."""
        server = ServerProcess(db, latency=0.5)
        try:
            out = {}

            def worker():
                out["pages"] = run_async(
                    _concurrent_pages(server.address, 1, count=6)
                )

            thread = threading.Thread(target=worker)
            thread.start()
            time.sleep(0.25)  # metadata done, the slow page in flight
            os.kill(server.pid, signal.SIGTERM)
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            page = out["pages"][0]
            assert list(zip(page.objects, page.grades)) == [
                db.sorted_entry(0, pos) for pos in range(6)
            ]
            assert server.process.wait(timeout=10.0) == 0
        finally:
            server.terminate()

    def test_restart_revives_on_the_same_address(self, db):
        with ServerProcess(db) as server:
            address = server.address
            before = run_async(_concurrent_pages(address, 1))[0]
            server.kill()
            with pytest.raises(
                (
                    ServiceUnavailableError,
                    ServiceTransientError,
                    ServiceTimeoutError,
                )
            ):
                run_async(_concurrent_pages(address, 1))
            server.restart()
            assert server.address == address
            after = run_async(_concurrent_pages(address, 1))[0]
            assert list(zip(after.objects, after.grades)) == list(
                zip(before.objects, before.grades)
            )
