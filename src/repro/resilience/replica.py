"""Replica groups: one logical graded list served by ``r`` replicas.

:class:`ReplicatedGradedSource` satisfies the
:class:`~repro.services.protocol.RemoteGradedSource` protocol, so it
plugs into :class:`~repro.services.session.AsyncAccessSession` exactly
like a single service -- but behind it sit any mix of
:class:`~repro.services.simulated.SimulatedListService` and
:class:`~repro.transport.client.NetworkGradedSource` replicas of the
*same* list.  Three mechanisms, all invisible to the charging model:

failover
    Every network-shaped operation is a *stateless, idempotent* page or
    batch request (the reader keeps the cursor:
    :func:`~repro.services.protocol.read_pages`).  When the current
    replica fails with a
    :class:`~repro.middleware.errors.ServiceTimeoutError` /
    ``ServiceTransientError`` / ``ServiceUnavailableError``, the same
    request is re-issued verbatim against the next healthy replica --
    so a mid-scan failover resumes at the exact page boundary and the
    reader sees bit-identical pages.  Only when every replica has
    failed does the group raise
    :class:`~repro.middleware.errors.ReplicaGroupExhaustedError` (a
    ``ServiceUnavailableError``: the *group* is the unavailable
    service).

circuit breaking
    Each replica carries a :class:`~repro.resilience.breaker.CircuitBreaker`
    clocked by the group's request tick, so repeatedly-failing replicas
    are skipped for a deterministic cooldown instead of being retried
    on every request.  When every breaker is open, the replica whose
    cooldown expires soonest is force-probed -- the group never
    refuses to try at all.

hedging
    With ``hedge_after`` set, a request that has not completed within
    that many seconds speculatively fires the same request at the next
    candidate replica; the first success wins and the losers are
    cancelled.  A cancelled request served nothing, so nothing is
    charged -- the same speculation contract as the session's prefetch
    (and :meth:`~repro.middleware.access.AccessSession.columnar_view`
    reads).  Failures still fail over immediately, timer or not.

The charging equivalence is structural: the session charges accesses
when *it* consumes entries, and the group only ever returns data that a
single-service source would have returned for the same request.
Duplicated work on a losing replica is wall-clock, never model cost.
"""

from __future__ import annotations

import asyncio
from collections.abc import Sequence
from typing import Callable, Hashable

from ..middleware.access import ListCapabilities
from ..middleware.errors import (
    DatabaseError,
    ReplicaGroupExhaustedError,
    ServiceTimeoutError,
    ServiceTransientError,
    ServiceUnavailableError,
)
from ..obs import NULL_OBS
from ..services.protocol import SortedPage, check_window
from .breaker import CircuitBreaker, CircuitBreakerPolicy

__all__ = ["ReplicatedGradedSource"]

#: failures that trigger failover to the next replica; anything else
#: (UnknownObjectError, WireFormatError, bugs) propagates immediately
_RETRYABLE = (
    ServiceTimeoutError,
    ServiceTransientError,
    ServiceUnavailableError,
)


class ReplicatedGradedSource:
    """``r`` replicas of one graded list behind the single-source
    protocol (see the module docstring).

    Parameters
    ----------
    name:
        The logical service name reported to the session and carried by
        raised errors.
    replicas:
        The replica sources, primary first.  All must agree on
        ``num_entries`` and on their capability vector (they claim to be
        the same list).
    breaker_policy:
        Per-replica circuit-breaker tuning; each replica's breaker is
        seeded with ``policy.seed + replica_index`` so cooldown jitter
        stays deterministic yet desynchronised.
    hedge_after:
        Seconds before a pending request speculatively hedges to the
        next candidate replica; ``None`` (default) disables hedging.
    obs:
        Optional :class:`~repro.obs.Observability` plane; failovers,
        hedges, hedge wins and breaker trips land in its registry
        (labelled by group name) in addition to the public counters.
    """

    def __init__(
        self,
        name: str,
        replicas: Sequence,
        *,
        breaker_policy: CircuitBreakerPolicy | None = None,
        hedge_after: float | None = None,
        obs=None,
    ):
        if not replicas:
            raise DatabaseError(f"replica group {name!r} has no replicas")
        if hedge_after is not None and hedge_after < 0:
            raise ValueError(
                f"hedge_after must be >= 0, got {hedge_after}"
            )
        self.name = name
        self._replicas = list(replicas)
        sizes = {int(r.num_entries) for r in self._replicas}
        if len(sizes) != 1:
            raise DatabaseError(
                f"replica group {name!r}: replicas disagree on N: "
                f"{sorted(sizes)}"
            )
        self._num_entries = sizes.pop()
        caps = {r.capabilities() for r in self._replicas}
        if len(caps) != 1:
            raise DatabaseError(
                f"replica group {name!r}: replicas disagree on capabilities"
            )
        self._capabilities = caps.pop()
        policy = breaker_policy or CircuitBreakerPolicy()
        self._breakers = [
            CircuitBreaker(
                CircuitBreakerPolicy(
                    failure_threshold=policy.failure_threshold,
                    cooldown_ticks=policy.cooldown_ticks,
                    jitter=policy.jitter,
                    seed=policy.seed + j,
                )
            )
            for j in range(len(self._replicas))
        ]
        self._hedge_after = hedge_after
        self._preferred = 0
        self._ticks = 0
        #: requests that needed at least one failover (observability)
        self.failovers = 0
        #: hedge timers that fired (a speculative duplicate was sent)
        self.hedges_fired = 0
        #: requests won by a hedged (non-first) attempt
        self.hedge_wins = 0
        obs = obs if obs is not None else NULL_OBS
        labels = {"group": name}
        self._m_failovers = obs.counter(
            "repro_replica_failovers_total", labels,
            help="requests re-issued on another replica",
        )
        self._m_hedges = obs.counter(
            "repro_replica_hedges_total", labels,
            help="hedge timers fired (speculative duplicates)",
        )
        self._m_hedge_wins = obs.counter(
            "repro_replica_hedge_wins_total", labels,
            help="requests won by a hedged attempt",
        )
        self._m_breaker_trips = obs.counter(
            "repro_replica_breaker_trips_total", labels,
            help="circuit breakers tripped open",
        )

    # ------------------------------------------------------------------
    # protocol surface
    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        return self._num_entries

    @property
    def supports_sorted(self) -> bool:
        return self._capabilities.sorted_allowed

    @property
    def supports_random(self) -> bool:
        return self._capabilities.random_allowed

    def capabilities(self) -> ListCapabilities:
        return self._capabilities

    @property
    def replicas(self) -> list:
        return list(self._replicas)

    @property
    def breakers(self) -> list[CircuitBreaker]:
        return list(self._breakers)

    # ------------------------------------------------------------------
    # candidate scheduling
    # ------------------------------------------------------------------
    def _candidate_order(self, tick: int) -> list[int]:
        """Replica indices to try, preferred replica first, filtered by
        breaker state.  When every breaker refuses, force-probe the one
        whose cooldown expires soonest (ties to the lower index)."""
        r = len(self._replicas)
        order = [(self._preferred + d) % r for d in range(r)]
        allowed = [j for j in order if self._breakers[j].allow(tick)]
        if allowed:
            return allowed
        soonest = min(order, key=lambda j: (self._breakers[j].reopen_in(tick), j))
        return [soonest]

    async def _execute(self, op: Callable, kind: str):
        """Run ``op(replica)`` with failover, breakers, and optional
        hedging; returns the first successful result."""
        tick = self._ticks
        self._ticks += 1
        order = self._candidate_order(tick)
        pending: dict[asyncio.Future, int] = {}
        hedged: set[asyncio.Future] = set()
        next_candidate = 0
        attempts = 0
        last_exc: BaseException | None = None

        def spawn(as_hedge: bool = False) -> None:
            nonlocal next_candidate
            j = order[next_candidate]
            next_candidate += 1
            task = asyncio.ensure_future(op(self._replicas[j]))
            pending[task] = j
            if as_hedge:
                hedged.add(task)

        async def settle(winner_result=None, error: BaseException | None = None):
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            if error is not None:
                raise error
            return winner_result

        spawn()
        while pending:
            timeout = (
                self._hedge_after
                if (
                    self._hedge_after is not None
                    and next_candidate < len(order)
                )
                else None
            )
            done, _ = await asyncio.wait(
                set(pending),
                timeout=timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if not done:
                # hedge timer: speculatively duplicate the request on
                # the next candidate (losers are cancelled uncharged)
                self.hedges_fired += 1
                self._m_hedges.inc()
                spawn(as_hedge=True)
                continue
            for task in done:
                j = pending.pop(task)
                if task.cancelled():
                    continue
                exc = task.exception()
                if exc is None:
                    self._breakers[j].record_success()
                    self._preferred = j
                    if task in hedged:
                        self.hedge_wins += 1
                        self._m_hedge_wins.inc()
                    return await settle(winner_result=task.result())
                if isinstance(exc, _RETRYABLE):
                    attempts += getattr(exc, "attempts", 1)
                    opens_before = self._breakers[j].opens
                    self._breakers[j].record_failure(tick)
                    if self._breakers[j].opens > opens_before:
                        self._m_breaker_trips.inc()
                    last_exc = exc
                    if next_candidate < len(order):
                        self.failovers += 1
                        self._m_failovers.inc()
                        spawn()
                    continue
                # non-retryable (unknown object, wire corruption, bug):
                # propagate immediately, cancelling any hedges
                return await settle(error=exc)
        raise ReplicaGroupExhaustedError(
            self.name, max(attempts, 1)
        ) from last_exc

    # ------------------------------------------------------------------
    # the access operations
    # ------------------------------------------------------------------
    async def page(self, start: int, count: int) -> SortedPage:
        """One stateless page ``[start, start + count)`` of the sorted
        list, served by whichever replica answers first/healthily."""
        check_window(start, count)
        return await self._execute(
            lambda r: r.page(start, count), "page"
        )

    async def random_access_batch(
        self, objects: Sequence[Hashable]
    ) -> list[float]:
        return await self._execute(
            lambda r: r.random_access_batch(list(objects)), "random"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ReplicatedGradedSource {self.name!r} "
            f"r={len(self._replicas)} n={self._num_entries} "
            f"failovers={self.failovers}>"
        )
