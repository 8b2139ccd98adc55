"""Service-backed access sessions: remote services, synchronous
charging.

:class:`ServiceSession` gives the paper's algorithms -- unmodified --
accounted access to ``m`` remote graded sources.  It reads every
list's sorted entries from one :class:`SharedListScan`, an append-only
published prefix with a single fetcher behind it (the fetcher pages the
source with :func:`~repro.services.protocol.read_pages`; the scan, not
the source, owns the cursor), and bridges its
random accesses onto the event loop that owns the services' I/O.
Where the scans come from is the only difference between its two uses:

* :class:`AsyncAccessSession` (the single-query plane) runs the
  session on a private loop thread over *private* scans it creates
  itself, so its prefetch is the scans' readahead;
* :meth:`repro.server.scancache.ScanCache.checkout` hands a query
  either the cache's *shared* scans (one underlying cursor serving
  many concurrent queries) or private ones, on the query service's
  loop.

Either way a session's :meth:`~ServiceSession.cancel` and
:meth:`~ServiceSession.close` are cooperative and charge-safe: the next
sorted or random access raises
:class:`~repro.middleware.errors.QueryCancelledError` *before*
anything is charged, so the accounting stops exactly at the prefix
the query consumed.  ``close`` detaches from shared scans and stops
private ones, so a private scan dies with its query.

charging equivalence contract
    :class:`ServiceSession` subclasses
    :class:`~repro.middleware.access.AccessSession` and overrides
    nothing about charging.  The parent's scalar machinery runs against
    a :class:`Database`-shaped facade (:class:`_ServiceBackedView`), so
    per-list counters, depth, the wild-guess certificate, capability
    checks, trace events and cost are *the same code paths* as the
    synchronous plane -- sorted accesses charge exactly the consumed
    prefix (scan pages beyond it, whoever demanded them, are uncharged
    speculation, like
    :meth:`~repro.middleware.access.AccessSession.columnar_view`
    reads), random accesses charge after their grade is served, and a
    failed service call raises *before* anything is charged.  The
    differential suites hold algorithms on these sessions to
    bit-for-bit equality (items, halting,
    :class:`~repro.middleware.access.AccessStats`) with the scalar,
    columnar and sharded backends.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from collections.abc import Sequence
from typing import Hashable

import numpy as np

from ..middleware.access import AccessSession, ListCapabilities
from ..middleware.cost import UNIT_COSTS, CostModel, QueryBudget
from ..middleware.errors import (
    CapabilityError,
    DatabaseError,
    ListLostError,
    QueryCancelledError,
    ServiceTimeoutError,
    ServiceUnavailableError,
    UnknownObjectError,
    WildGuessError,
)
from .protocol import RemoteGradedSource, read_pages

__all__ = ["SharedListScan", "ServiceSession", "AsyncAccessSession"]


class SharedListScan:
    """One list's materialized sorted prefix and its single fetcher.

    ``objects``/``grades`` are append-only and published grades-first
    under ``cond``, so a reader that observes ``position <
    len(objects)`` may read both without the lock.  Readers raise a
    monotone *demand watermark* (:meth:`demand`, thread-safe); the
    fetcher task, started lazily on the first demand, keeps
    ``demand + readahead_pages * batch_size`` entries materialized and
    then parks.  A scan nobody demands from costs nothing.  A scan is
    shared when a :class:`~repro.server.scancache.ScanCache` hands it
    to many sessions, and private when one session owns it; the
    machinery is the same.  ``attach``/``detach`` count consumers.

    Loop-affine: the fetcher runs on ``loop``, the loop that owns the
    source's I/O.
    """

    def __init__(
        self,
        source: RemoteGradedSource,
        loop: asyncio.AbstractEventLoop,
        *,
        batch_size: int = 64,
        readahead_pages: int = 2,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if readahead_pages < 0:
            raise ValueError(
                f"readahead_pages must be >= 0, got {readahead_pages}"
            )
        self._source = source
        self._loop = loop
        self._batch_size = batch_size
        self._readahead = readahead_pages * batch_size
        # --- the published prefix readers see ---
        self.objects: list = []
        self.grades: list[float] = []
        self.done = False
        self.error: BaseException | None = None
        self.cond = threading.Condition()
        #: how close to the frontier a reader gets before demanding more
        self.refill_margin = max(batch_size // 2, 1)
        # --- demand/fetcher plumbing ---
        self._lock = threading.Lock()
        self._demand = 0
        self._attached = 0
        self._closing = False
        self._fetcher: asyncio.Task | None = None
        self._wake: asyncio.Event | None = None
        # --- observability (uncharged; tests and status endpoints) ---
        self.pages_fetched = 0
        self.peak_attached = 0

    @property
    def name(self) -> str:
        return self._source.name

    @property
    def source(self) -> RemoteGradedSource:
        return self._source

    # ------------------------------------------------------------------
    # reader side (any thread)
    # ------------------------------------------------------------------
    def attach(self) -> None:
        with self._lock:
            self._attached += 1
            if self._attached > self.peak_attached:
                self.peak_attached = self._attached

    def detach(self) -> None:
        with self._lock:
            if self._attached <= 0:
                raise RuntimeError(f"detach without attach on {self.name!r}")
            self._attached -= 1

    @property
    def attached(self) -> int:
        """Currently attached consumers (sessions)."""
        with self._lock:
            return self._attached

    def materialized(self) -> int:
        """Entries in the prefix so far."""
        return len(self.objects)

    def demand(self, n: int) -> None:
        """Ask the fetcher to materialize at least ``n`` entries
        (monotone; thread-safe; cheap when already satisfied)."""
        with self._lock:
            if n <= self._demand:
                return
            self._demand = n
            if self._closing:
                return
        try:
            self._loop.call_soon_threadsafe(self._poke)
        except RuntimeError:
            # loop already closed (service teardown); waiters are
            # released by close()'s notify_all
            pass

    # ------------------------------------------------------------------
    # fetcher (loop-side)
    # ------------------------------------------------------------------
    def _poke(self) -> None:
        if self._closing:
            return
        if self._fetcher is None:
            self._fetcher = self._loop.create_task(self._fetch())
        elif self._wake is not None:
            self._wake.set()

    def _target(self) -> int:
        with self._lock:
            return self._demand + self._readahead

    async def _fetch(self) -> None:
        self._wake = asyncio.Event()
        try:
            source = self._source
            pages = read_pages(
                source.page, source.num_entries, self._batch_size
            )
            async for page in pages:
                with self.cond:
                    # grades first: readers' lock-free fast path gates
                    # on len(objects), which must trail grades
                    self.grades.extend(page.grades)
                    self.objects.extend(page.objects)
                    self.pages_fetched += 1
                    self.cond.notify_all()
                while (
                    not self._closing
                    and len(self.objects) >= self._target()
                ):
                    self._wake.clear()
                    await self._wake.wait()
                if self._closing:
                    return
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            # every reader of the scan sees the same failure (resilient
            # sources fail over *inside* a page request, so only truly
            # exhausted sources end up here)
            with self.cond:
                self.error = exc
                self.cond.notify_all()
            return
        with self.cond:
            self.done = True
            self.cond.notify_all()

    async def aclose(self) -> None:
        """Stop the fetcher and release any blocked readers (loop-side,
        idempotent)."""
        with self._lock:
            self._closing = True
        if self._wake is not None:
            self._wake.set()
        if self._fetcher is not None:
            self._fetcher.cancel()
            await asyncio.gather(self._fetcher, return_exceptions=True)
            self._fetcher = None
        with self.cond:
            self.cond.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SharedListScan {self.name!r} mat={len(self.objects)} "
            f"attached={self.attached} pages={self.pages_fetched}>"
        )


async def _drain_loop_tasks() -> None:
    """Cancel and await every other task on the running loop -- the
    courtesy :func:`asyncio.run` extends at shutdown, for a private
    loop about to stop (remote sources park reader tasks there)."""
    tasks = [
        task
        for task in asyncio.all_tasks()
        if task is not asyncio.current_task()
    ]
    for task in tasks:
        task.cancel()
    if tasks:
        await asyncio.gather(*tasks, return_exceptions=True)


class _ServiceBackedView:
    """:class:`~repro.middleware.database.Database`-shaped facade over
    a service session, so the parent class's scalar access machinery
    (and therefore its charging semantics) runs unmodified.  Never used
    for ground truth -- only ``num_lists`` / ``num_objects`` /
    ``sorted_entry`` / ``grade`` are served."""

    def __init__(self, session: "ServiceSession"):
        self._session = session

    @property
    def num_lists(self) -> int:
        return len(self._session._services)

    @property
    def num_objects(self) -> int:
        return self._session._num_objects

    def sorted_entry(self, list_index: int, position: int):
        return self._session._entry_at(list_index, position)

    def grade(self, obj: Hashable, list_index: int) -> float:
        return self._session._remote_grade(obj, list_index)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ServiceBackedView m={self.num_lists} "
            f"N={self.num_objects}>"
        )


class ServiceSession(AccessSession):
    """A query's accounted session over ``m`` lists that live behind
    :class:`~repro.services.protocol.RemoteGradedSource` services.

    Sorted entries come from ``scans`` (one :class:`SharedListScan`
    per service, same order): the session's counters advance only for
    entries *it* consumed, so a page pulled because another reader (or
    the readahead) demanded it is uncharged speculation, and each
    query's :class:`~repro.middleware.access.AccessStats` is
    bit-identical to a solo run of the same query.  Random accesses are
    per query: bridged onto ``loop``, the running event loop that owns
    the services' I/O.  Only :class:`AsyncAccessSession`, which owns
    its loop, stops it.

    :meth:`cancel` (any thread) and :meth:`close` make the next access
    raise :class:`~repro.middleware.errors.QueryCancelledError` before
    anything is charged; both wake a wait blocked on a scan frontier.

    Parameters
    ----------
    services:
        The remote sources, in list order.  All must agree on
        ``num_entries``.
    scans:
        One :class:`SharedListScan` per service, same order.
    loop:
        The event loop the scans fetch on and random accesses run on.
    cost_model, capabilities, forbid_wild_guesses, record_trace:
        As for :class:`~repro.middleware.access.AccessSession`;
        ``capabilities`` defaults to each service's declared modes.
    private:
        ``True`` when the session owns ``scans``: :meth:`close` then
        stops their fetchers, so nothing outlives the query.  ``False``
        (shared scans): :meth:`close` only detaches.
    wait_timeout:
        Seconds a read waits on a stalled scan or random-access bridge
        before raising
        :class:`~repro.middleware.errors.ServiceTimeoutError` (a
        deadlock net, not a latency model).
    budget, survive_list_loss:
        As for :class:`~repro.middleware.access.AccessSession`,
        forwarded unchanged so the scalar charging machinery owns them.
    query_id:
        Identifies this query in cancellation errors.
    """

    def __init__(
        self,
        services: Sequence[RemoteGradedSource],
        scans: Sequence[SharedListScan],
        loop: asyncio.AbstractEventLoop,
        cost_model: CostModel = UNIT_COSTS,
        capabilities: ListCapabilities | Sequence[ListCapabilities] | None = None,
        forbid_wild_guesses: bool = False,
        record_trace: bool = False,
        *,
        private: bool = False,
        wait_timeout: float = 30.0,
        budget: QueryBudget | None = None,
        survive_list_loss: bool = False,
        query_id: str = "query",
    ):
        if not services:
            raise DatabaseError("need at least one service")
        self._services = list(services)
        self._scans = list(scans)
        if len(self._scans) != len(self._services):
            raise DatabaseError(
                f"got {len(self._scans)} scans for "
                f"{len(self._services)} services"
            )
        sizes = {int(s.num_entries) for s in self._services}
        if len(sizes) != 1:
            raise DatabaseError(
                "services disagree on the database size N: "
                f"{sorted(sizes)}"
            )
        self._num_objects = sizes.pop()
        if self._num_objects < 1:
            raise DatabaseError("services must grade at least one object")
        self._loop = loop
        self._private = private
        self._wait_timeout = wait_timeout
        self._query_id = query_id
        self._cancelled = False
        self._closed = False
        if capabilities is None:
            capabilities = [s.capabilities() for s in self._services]
        super().__init__(
            _ServiceBackedView(self),
            cost_model,
            capabilities=capabilities,
            forbid_wild_guesses=forbid_wild_guesses,
            record_trace=record_trace,
            budget=budget,
            survive_list_loss=survive_list_loss,
        )
        for scan in self._scans:
            scan.attach()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Mark the query dead and wake any wait blocked on a scan.

        Thread-safe and idempotent; callable from the event loop while
        the engine blocks in a worker thread.  The engine's next access
        raises :class:`QueryCancelledError` *before* charging, so the
        session's accounting freezes at exactly the consumed prefix.
        """
        if self._cancelled:
            return
        self._cancelled = True
        self._wake_readers()

    def close(self) -> None:
        """End the session (idempotent): later accesses raise
        :class:`QueryCancelledError`.  Shared scans keep their prefix
        -- they are a cache -- but stop counting this session as a
        consumer; private scans are stopped."""
        if self._closed:
            return
        self._closed = True
        for scan in self._scans:
            scan.detach()
            if self._private:
                asyncio.run_coroutine_threadsafe(scan.aclose(), self._loop)
        self._wake_readers()

    def _wake_readers(self) -> None:
        for scan in self._scans:
            with scan.cond:
                scan.cond.notify_all()

    def __enter__(self) -> "ServiceSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._cancelled or self._closed:
            raise QueryCancelledError(self._query_id)

    # ------------------------------------------------------------------
    # sorted access: the scan's published prefix
    # ------------------------------------------------------------------
    def _entry_at(self, i: int, position: int):
        """The facade's ``sorted_entry``: ``(object, grade)`` at
        ``position`` of list ``i``, ``None`` on exhaustion, or raise.

        Fast path: the scan's lists only grow (grades published before
        objects), so once ``len(objects) > position`` both are readable
        without the lock; the fetcher is asked for more only when this
        reader nears the frontier.  Otherwise block until the prefix
        covers ``position``, the scan ends or fails, or the session
        is cancelled or closed.  The check before the read is
        :meth:`~repro.middleware.access.AccessSession.sorted_access`'s.
        """
        scan = self._scans[i]
        objects = scan.objects
        if position < len(objects):
            if len(objects) - position <= scan.refill_margin:
                scan.demand(position + 1)
            return objects[position], scan.grades[position]
        scan.demand(position + 1)
        deadline = time.monotonic() + self._wait_timeout
        with scan.cond:
            while (
                len(scan.objects) <= position
                and not scan.done
                and scan.error is None
                and not (self._cancelled or self._closed)
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceTimeoutError(
                        self._services[i].name
                    ) from None
                scan.cond.wait(timeout=remaining)
        self._check_open()
        if position < len(scan.objects):
            return scan.objects[position], scan.grades[position]
        if scan.error is not None:
            raise scan.error
        return None  # list exhausted

    # -- random-access bridging ----------------------------------------
    def _bridge_random(self, i: int, objects: list) -> list[float]:
        """Bridge one ``random_access_batch`` service round trip onto
        the loop and wait for it (uncharged; charging is the caller's
        job).  Its callers -- the facade's single probe, reached from
        :meth:`~repro.middleware.access.AccessSession.random_access`,
        and :meth:`random_access_batch` -- have run ``_check_open``
        first, so a dead query fails before anything is served."""
        future = asyncio.run_coroutine_threadsafe(
            self._services[i].random_access_batch(objects),
            self._loop,
        )
        try:
            return future.result(timeout=self._wait_timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise ServiceTimeoutError(self._services[i].name) from None

    def _remote_grade(self, obj: Hashable, i: int) -> float:
        """The facade's ``grade``: bridge one random-access batch of
        size one onto the loop and wait for it."""
        return float(self._bridge_random(i, [obj])[0])

    # ------------------------------------------------------------------
    # batched random access: one service round trip per batch
    # ------------------------------------------------------------------
    def random_access_batch(
        self,
        list_index: int,
        objects: Sequence[Hashable] | None,
        rows=None,
    ) -> np.ndarray:
        """Fetch the grades of ``objects``, charging one random access
        per object -- served by **one** bridged
        ``random_access_batch`` service round trip for the whole batch
        instead of the parent's one-call-per-object scalar replay.

        Batched-plane callers therefore pay one round trip of
        wall-clock per (list, batch); the cross-list twin for TA's
        resolution step and CA's phases is
        :meth:`random_access_across`.  The charging semantics are
        exactly the batched plane's: every object charges (repeats
        included) once its
        grade is served; with the no-wild-guess certificate armed, an
        unseen object charges the objects *before* it and then raises
        -- before any service round trip, matching the columnar fast
        path and the scalar loop's counters alike.  ``rows`` (a
        columnar-backend affordance) is ignored: services address
        objects by id.  When a trace is recorded the call falls back
        to the scalar loop so the event stream stays byte-identical.
        """
        self._check_open()
        self._check_list(list_index)
        if not self._capabilities[list_index].random_allowed:
            raise CapabilityError("random", list_index)
        if list_index in self._lost_lists:
            raise ListLostError(
                self._services[list_index].name, list_index
            )
        if objects is None:
            raise ValueError(
                "objects are required on a service-backed session "
                "(row addressing is a columnar-backend affordance)"
            )
        if self.trace is not None:
            # scalar fallback: per-access trace events, identical bytes
            return super().random_access_batch(list_index, objects)
        objects = list(objects)
        if self._forbid_wild_guesses:
            seen = self._seen_sorted
            for prefix, obj in enumerate(objects):
                if obj not in seen:
                    self._random_by_list[list_index] += prefix
                    raise WildGuessError(obj, list_index)
        if not objects:
            return np.empty(0, dtype=np.float64)
        try:
            grades = self._bridge_random(list_index, objects)
        except UnknownObjectError:
            # replay object by object for exact prefix charging: the
            # objects before the unknown one charge (their grades were
            # servable), the unknown raises uncharged -- the scalar
            # loop's accounting
            return super().random_access_batch(list_index, objects)
        except ListLostError:
            raise
        except ServiceUnavailableError as exc:
            if not self._survive_list_loss:
                raise
            # the whole batch failed in one round trip: nothing was
            # served, so nothing is charged -- mark the loss and
            # surface it as the dedicated degraded-mode signal
            self._lost_lists[list_index] = self._positions[list_index]
            raise ListLostError(
                self._services[list_index].name, list_index, exc.attempts
            ) from exc
        self._random_by_list[list_index] += len(objects)
        return np.asarray(grades, dtype=np.float64)

    def random_access_across(
        self, obj: Hashable, lists: Sequence[int]
    ) -> list[float]:
        """Fetch ``obj``'s grade in each of ``lists`` with every
        service round trip *in flight concurrently*, then replay the
        charges in list order -- so TA's resolution step and CA's
        random phase cost one round trip of wall-clock instead of
        ``len(lists)``, with accounting identical to the scalar loop.

        Exactness: any condition under which the scalar loop would
        interleave charging with a raise (trace recording, a list
        refusing random access, a wild guess, an out-of-range index)
        falls back to the parent's per-list loop wholesale.  On the
        concurrent path a failed round trip re-raises after the lists
        *before* it (in list order) were charged; grades fetched from
        later lists are discarded uncharged -- speculation, exactly
        like prefetched-but-unconsumed pages.
        """
        self._check_open()
        lists = list(lists)
        if (
            self.trace is not None
            or (self._forbid_wild_guesses and obj not in self._seen_sorted)
            or any(
                not (0 <= i < len(self._capabilities))
                or not self._capabilities[i].random_allowed
                or i in self._lost_lists
                for i in lists
            )
        ):
            # an already-lost list takes the parent's scalar loop too:
            # lists before it charge in order, then ListLostError
            return super().random_access_across(obj, lists)
        if not lists:
            return []

        async def _gather():
            return await asyncio.gather(
                *(
                    self._services[i].random_access_batch([obj])
                    for i in lists
                ),
                return_exceptions=True,
            )

        future = asyncio.run_coroutine_threadsafe(
            _gather(), self._loop
        )
        try:
            results = future.result(timeout=self._wait_timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise ServiceTimeoutError(
                self._services[lists[0]].name
            ) from None
        out: list[float] = []
        for i, served in zip(lists, results):
            if isinstance(served, BaseException):
                if (
                    self._survive_list_loss
                    and isinstance(served, ServiceUnavailableError)
                    and not isinstance(served, ListLostError)
                ):
                    # lists before i charged above (in list order);
                    # grades speculatively fetched from later lists
                    # are discarded uncharged, as on any failure
                    self._lost_lists[i] = self._positions[i]
                    raise ListLostError(
                        self._services[i].name, i, served.attempts
                    ) from served
                raise served
            self._random_by_list[i] += 1
            out.append(float(served[0]))
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def services(self) -> list[RemoteGradedSource]:
        return list(self._services)

    def prefetched(self, list_index: int) -> int:
        """Entries materialized for ``list_index`` so far (consumed or
        not); uncharged observability for tests and benchmarks."""
        self._check_list(list_index)
        return len(self._scans[list_index].objects)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self._query_id!r} "
            f"m={len(self._services)} N={self._num_objects} "
            f"s={self.sorted_accesses} r={self.random_accesses}>"
        )


class AsyncAccessSession(ServiceSession):
    """Accounted, capability-checked access to ``m`` remote services,
    on a private event loop thread with one private
    :class:`SharedListScan` per list as its prefetch pipeline.

    Parameters
    ----------
    services:
        One :class:`~repro.services.protocol.RemoteGradedSource` per
        list, in list order.  All must agree on ``num_entries``.
    cost_model, capabilities, forbid_wild_guesses, record_trace:
        As for :class:`~repro.middleware.access.AccessSession`;
        ``capabilities`` defaults to each service's declared modes.
    batch_size:
        Page size of the sorted scans.
    prefetch_pages:
        How many pages each scan may run ahead of its consumer.
        ``0`` fetches strictly on demand (no pipelining, no overlap
        between compute and transfer) -- the sequential baseline.
    wait_timeout:
        Seconds the consumer thread waits on a stalled scan or
        random-access bridge before raising
        :class:`~repro.middleware.errors.ServiceTimeoutError` (a
        deadlock net, not a latency model).
    eager:
        Arm every sorted-capable list's scan at construction, so the
        very first lockstep round already overlaps all ``m`` services
        (the default).  Pass ``False`` -- together with
        ``prefetch_pages=0`` -- for the strict sequential
        fetch-on-demand baseline, where no service is contacted until
        its list is actually read (this is what ``bench_async.py``'s
        sequential arm measures).
    budget, survive_list_loss:
        As for :class:`~repro.middleware.access.AccessSession` -- the
        per-query resource envelope and the degraded-mode switch; both
        are forwarded to the parent unchanged so the scalar charging
        machinery owns them.
    """

    def __init__(
        self,
        services: Sequence[RemoteGradedSource],
        cost_model: CostModel = UNIT_COSTS,
        capabilities: ListCapabilities | Sequence[ListCapabilities] | None = None,
        forbid_wild_guesses: bool = False,
        record_trace: bool = False,
        *,
        batch_size: int = 64,
        prefetch_pages: int = 2,
        wait_timeout: float = 30.0,
        eager: bool = True,
        budget: QueryBudget | None = None,
        survive_list_loss: bool = False,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if prefetch_pages < 0:
            raise ValueError(
                f"prefetch_pages must be >= 0, got {prefetch_pages}"
            )
        services = list(services)
        loop = asyncio.new_event_loop()
        try:
            super().__init__(
                services,
                [
                    SharedListScan(
                        s,
                        loop,
                        batch_size=batch_size,
                        readahead_pages=prefetch_pages,
                    )
                    for s in services
                ],
                loop,
                cost_model,
                capabilities,
                forbid_wild_guesses,
                record_trace,
                private=True,
                wait_timeout=wait_timeout,
                budget=budget,
                survive_list_loss=survive_list_loss,
            )
        except BaseException:
            self._closed = True
            loop.close()
            raise
        self._thread = threading.Thread(
            target=loop.run_forever,
            name="repro-async-session",
            daemon=True,
        )
        self._thread.start()
        if eager:
            for i in self.sorted_lists:
                self._scans[i].demand(1)

    def close(self) -> None:
        """Stop the scans and the private loop (idempotent)."""
        if self._closed:
            return
        super().close()
        loop = self._loop
        try:
            asyncio.run_coroutine_threadsafe(
                _drain_loop_tasks(), loop
            ).result(timeout=5.0)
        except Exception:  # pragma: no cover - defensive teardown
            pass
        loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout=5.0)
        if not self._thread.is_alive():
            loop.close()

    def __del__(self):  # pragma: no cover - defensive
        try:
            self.close()
        except Exception:
            pass
