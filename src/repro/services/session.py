"""Service-backed access sessions: remote services, synchronous
charging.

Two concrete sessions give the paper's algorithms -- unmodified --
accounted access to ``m`` remote graded sources:

* :class:`AsyncAccessSession` owns a private asyncio loop on a
  background thread and one prefetch task per list (the single-query
  plane: one session, one set of cursors);
* :class:`SharedScanSession` owns nothing: it reads the materialized
  prefix of *shared* per-list scans (one underlying cursor serving many
  concurrent queries; see :mod:`repro.server.scancache`) and bridges
  its random accesses onto a loop it is lent.  It adds cooperative
  cancellation: a cancelled query's next access raises
  :class:`~repro.middleware.errors.QueryCancelledError` *before*
  anything is charged, so its accounting stops exactly at the prefix it
  consumed.

Both share :class:`ServiceSession`, which holds everything that makes
the charging-equivalence contract work:

charging equivalence contract
    :class:`ServiceSession` subclasses
    :class:`~repro.middleware.access.AccessSession` and overrides
    nothing about charging.  The parent's scalar machinery runs against
    a :class:`Database`-shaped facade (:class:`_ServiceBackedView`), so
    per-list counters, depth, the wild-guess certificate, capability
    checks, trace events and cost are *the same code paths* as the
    synchronous plane -- sorted accesses charge exactly the consumed
    prefix (prefetched or shared-scan pages beyond it are uncharged
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
from typing import Hashable, Protocol

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
from .protocol import RemoteGradedSource

__all__ = ["ServiceSession", "AsyncAccessSession", "SharedScanSession"]


class _ListBuffer:
    """One list's prefetched prefix plus the thread/loop handshake."""

    __slots__ = ("objects", "grades", "done", "error", "cond", "space")

    def __init__(self):
        self.objects: list = []
        self.grades: list[float] = []
        self.done = False
        self.error: BaseException | None = None
        self.cond = threading.Condition()
        # created on the event loop by the prefetch task
        self.space: asyncio.Event | None = None


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


class SharedScan(Protocol):
    """What :class:`SharedScanSession` needs from a shared per-list
    scan (the concrete type lives in :mod:`repro.server.scancache`;
    this protocol keeps the dependency arrow pointing server -> here).

    ``objects``/``grades`` are append-only and published grades-first
    under ``cond``, so a reader that observes ``position <
    len(objects)`` may read both without the lock.  ``demand(n)`` is a
    thread-safe monotone watermark asking the producer to materialize
    at least ``n`` entries; ``refill_margin`` is how close to the
    frontier a reader may get before it should demand more.
    """

    objects: list
    grades: list[float]
    done: bool
    error: BaseException | None
    cond: threading.Condition
    refill_margin: int

    def demand(self, n: int) -> None: ...

    def attach(self) -> None: ...

    def detach(self) -> None: ...


class ServiceSession(AccessSession):
    """Shared machinery for sessions whose ``m`` lists live behind
    :class:`~repro.services.protocol.RemoteGradedSource` services.

    Subclasses supply *where sorted entries come from* (``_entry_at``)
    and *which loop bridges random accesses* (``_service_loop``); this
    base owns service validation, the Database-shaped facade, and the
    batched random-access overrides whose charging replay is identical
    for every service-backed plane.
    """

    def __init__(
        self,
        services: Sequence[RemoteGradedSource],
        cost_model: CostModel = UNIT_COSTS,
        capabilities: ListCapabilities | Sequence[ListCapabilities] | None = None,
        forbid_wild_guesses: bool = False,
        record_trace: bool = False,
        *,
        wait_timeout: float = 30.0,
        budget: QueryBudget | None = None,
        survive_list_loss: bool = False,
    ):
        if not services:
            raise DatabaseError("need at least one service")
        self._services = list(services)
        sizes = {int(s.num_entries) for s in self._services}
        if len(sizes) != 1:
            raise DatabaseError(
                "services disagree on the database size N: "
                f"{sorted(sizes)}"
            )
        self._num_objects = sizes.pop()
        if self._num_objects < 1:
            raise DatabaseError("services must grade at least one object")
        self._wait_timeout = wait_timeout
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

    # -- subclass surface ----------------------------------------------
    @property
    def _service_loop(self) -> asyncio.AbstractEventLoop:
        """The loop that owns the services' I/O (their simulated
        endpoints and transport connections are single-loop objects)."""
        raise NotImplementedError

    def _entry_at(self, i: int, position: int):
        """The facade's ``sorted_entry``: ``(object, grade)``, ``None``
        on exhaustion, or raise."""
        raise NotImplementedError

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
            self._service_loop,
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
            _gather(), self._service_loop
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


class AsyncAccessSession(ServiceSession):
    """Accounted, capability-checked access to ``m`` remote services,
    with a private event loop and per-list prefetch pipelines.

    Parameters
    ----------
    services:
        One :class:`~repro.services.protocol.RemoteGradedSource` per
        list, in list order.  All must agree on ``num_entries``.
    cost_model, capabilities, forbid_wild_guesses, record_trace:
        As for :class:`~repro.middleware.access.AccessSession`;
        ``capabilities`` defaults to each service's declared modes.
    batch_size:
        Page size of the sorted prefetch streams.
    prefetch_pages:
        How many pages each stream may run ahead of its consumer.
        ``0`` fetches strictly on demand (no pipelining, no overlap
        between compute and transfer) -- the sequential baseline.
    wait_timeout:
        Seconds the consumer thread waits on a stalled buffer or
        random-access bridge before raising
        :class:`~repro.middleware.errors.ServiceTimeoutError` (a
        deadlock net, not a latency model).
    eager:
        Arm every sorted-capable list's prefetcher at construction, so
        the very first lockstep round already overlaps all ``m``
        services (the default).  Pass ``False`` -- together with
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
        self._batch_size = batch_size
        self._prefetch_pages = prefetch_pages
        # wake the producer when fewer than half the prefetch window
        # (at least one page) remains buffered ahead of the consumer
        self._refill_margin = max(
            (prefetch_pages * batch_size) // 2, batch_size, 1
        )
        self._buffers = [_ListBuffer() for _ in services]
        self._prefetching: list[concurrent.futures.Future | None] = [
            None for _ in services
        ]
        self._closing = False
        super().__init__(
            services,
            cost_model,
            capabilities,
            forbid_wild_guesses,
            record_trace,
            wait_timeout=wait_timeout,
            budget=budget,
            survive_list_loss=survive_list_loss,
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-async-session",
            daemon=True,
        )
        self._thread.start()
        if eager:
            # arm every sorted-capable list's prefetcher up front so the
            # very first lockstep round already overlaps all m services
            for i in self.sorted_lists:
                self._ensure_prefetch(i)

    @property
    def _service_loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the prefetchers and the background loop (idempotent)."""
        if self._closing:
            return
        self._closing = True
        loop = self._loop
        try:
            future = asyncio.run_coroutine_threadsafe(self._shutdown(), loop)
            future.result(timeout=5.0)
        except Exception:  # pragma: no cover - defensive teardown
            pass
        try:
            loop.call_soon_threadsafe(loop.stop)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass
        self._thread.join(timeout=5.0)
        if not self._thread.is_alive():
            loop.close()

    async def _shutdown(self) -> None:
        """Cancel and drain the prefetch tasks on their own loop, so
        none is destroyed while pending."""
        for buf in self._buffers:
            if buf.space is not None:
                buf.space.set()
        tasks = [
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task()
        ]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def __enter__(self) -> "AsyncAccessSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - defensive
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # prefetch plumbing
    # ------------------------------------------------------------------
    def _ensure_prefetch(self, i: int) -> None:
        if self._prefetching[i] is None:
            self._prefetching[i] = asyncio.run_coroutine_threadsafe(
                self._prefetch_list(i), self._loop
            )

    def _buffer_target(self, i: int) -> int:
        """Entries list ``i``'s buffer may hold before its producer
        must wait: the consumed prefix plus the prefetch window (or a
        single on-demand entry when pipelining is off)."""
        ahead = self._prefetch_pages * self._batch_size
        return self._positions[i] + max(ahead, 1)

    async def _prefetch_list(self, i: int) -> None:
        buf = self._buffers[i]
        buf.space = asyncio.Event()
        try:
            stream = self._services[i].sorted_access_stream(self._batch_size)
            async for page in stream:
                with buf.cond:
                    # grades first: the consumer's lock-free fast path
                    # gates on len(objects), which must trail grades
                    buf.grades.extend(page.grades)
                    buf.objects.extend(page.objects)
                    buf.cond.notify_all()
                while (
                    not self._closing
                    and len(buf.objects) >= self._buffer_target(i)
                ):
                    buf.space.clear()
                    await buf.space.wait()
                if self._closing:
                    return
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            with buf.cond:
                buf.error = exc
                buf.cond.notify_all()
            return
        with buf.cond:
            buf.done = True
            buf.cond.notify_all()

    def _signal_space(self, i: int) -> None:
        space = self._buffers[i].space
        if space is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(space.set)

    def _entry_at(self, i: int, position: int):
        """The facade's ``sorted_entry``: block until the prefetched
        prefix covers ``position`` (or the stream ends / fails).

        Fast path: the buffer lists only ever grow (grades before
        objects), so once ``len(objects) > position`` both entries are
        readable without the lock; the producer is woken only when the
        remaining buffered-ahead window runs low, not on every entry.
        """
        buf = self._buffers[i]
        objects = buf.objects
        if position < len(objects):
            if len(objects) - position <= self._refill_margin:
                self._signal_space(i)
            return objects[position], buf.grades[position]
        self._ensure_prefetch(i)
        self._signal_space(i)
        deadline = time.monotonic() + self._wait_timeout
        with buf.cond:
            while (
                len(buf.objects) <= position
                and not buf.done
                and buf.error is None
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceTimeoutError(
                        self._services[i].name
                    ) from None
                buf.cond.wait(timeout=remaining)
        if position < len(buf.objects):
            return buf.objects[position], buf.grades[position]
        if buf.error is not None:
            raise buf.error
        return None  # stream exhausted

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def prefetched(self, list_index: int) -> int:
        """Entries buffered for ``list_index`` so far (consumed or not);
        uncharged observability for tests and benchmarks."""
        self._check_list(list_index)
        return len(self._buffers[list_index].objects)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<AsyncAccessSession m={len(self._services)} "
            f"N={self._num_objects} s={self.sorted_accesses} "
            f"r={self.random_accesses}>"
        )


class SharedScanSession(ServiceSession):
    """A query's accounted view over *shared* per-list scans.

    Many concurrent queries hold a ``SharedScanSession`` over the same
    :class:`SharedScan` objects: one underlying sorted cursor per list
    materializes an append-only global prefix, and every query reads
    that prefix at its own pace.  Charging stays per query -- the
    parent's counters advance only for entries *this* session consumed,
    so a page pulled because a deeper query demanded it is uncharged
    speculation for everyone else, and each query's
    :class:`~repro.middleware.access.AccessStats` is bit-identical to a
    solo run of the same query.

    Cancellation (:meth:`cancel`) is cooperative and charge-safe: the
    next access raises
    :class:`~repro.middleware.errors.QueryCancelledError` before
    charging, and any wait blocked on a scan frontier is woken
    immediately.

    Parameters
    ----------
    services:
        The remote sources backing the scans, in list order (used for
        random access, which is always per-query, and for names).
    scans:
        One attached :class:`SharedScan` per service, same order.
    loop:
        The running event loop that owns the services' I/O; random
        accesses are bridged onto it.  Unlike
        :class:`AsyncAccessSession` this session does not own the loop
        and never stops it.
    query_id:
        Identifies this query in cancellation errors and bills.
    """

    def __init__(
        self,
        services: Sequence[RemoteGradedSource],
        scans: Sequence[SharedScan],
        loop: asyncio.AbstractEventLoop,
        cost_model: CostModel = UNIT_COSTS,
        capabilities: ListCapabilities | Sequence[ListCapabilities] | None = None,
        forbid_wild_guesses: bool = False,
        record_trace: bool = False,
        *,
        wait_timeout: float = 30.0,
        budget: QueryBudget | None = None,
        survive_list_loss: bool = False,
        query_id: str = "query",
    ):
        scans = list(scans)
        if len(scans) != len(list(services)):
            raise DatabaseError(
                f"got {len(scans)} scans for {len(list(services))} services"
            )
        self._scans = scans
        self._session_loop = loop
        self._query_id = query_id
        self._cancelled = False
        self._closed = False
        super().__init__(
            services,
            cost_model,
            capabilities,
            forbid_wild_guesses,
            record_trace,
            wait_timeout=wait_timeout,
            budget=budget,
            survive_list_loss=survive_list_loss,
        )
        for scan in self._scans:
            scan.attach()

    @property
    def _service_loop(self) -> asyncio.AbstractEventLoop:
        return self._session_loop

    @property
    def query_id(self) -> str:
        return self._query_id

    @property
    def cancelled(self) -> bool:
        return self._cancelled

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
        for scan in self._scans:
            with scan.cond:
                scan.cond.notify_all()

    def close(self) -> None:
        """Detach from every shared scan (idempotent).  The scans keep
        their materialized prefix -- they are a cache -- but stop
        counting this query as a consumer."""
        if self._closed:
            return
        self._closed = True
        for scan in self._scans:
            scan.detach()

    def __enter__(self) -> "SharedScanSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # access plumbing
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._cancelled:
            raise QueryCancelledError(self._query_id)

    def _entry_at(self, i: int, position: int):
        """The facade's ``sorted_entry`` against the shared prefix.

        Fast path mirrors :class:`AsyncAccessSession`: the scan's
        lists only grow (grades published before objects), so once
        ``len(objects) > position`` both are readable without the
        lock; the shared producer is asked for more only when this
        reader nears the frontier.  The cancellation check before the
        read is :meth:`~repro.middleware.access.AccessSession.sorted_access`'s.
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
                and not self._cancelled
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceTimeoutError(
                        self._services[i].name
                    ) from None
                scan.cond.wait(timeout=remaining)
        if self._cancelled:
            raise QueryCancelledError(self._query_id)
        if position < len(scan.objects):
            return scan.objects[position], scan.grades[position]
        if scan.error is not None:
            raise scan.error
        return None  # stream exhausted

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SharedScanSession {self._query_id!r} "
            f"m={len(self._services)} N={self._num_objects} "
            f"s={self.sorted_accesses} r={self.random_accesses}>"
        )
