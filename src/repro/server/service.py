"""The concurrent top-k query service.

:class:`QueryService` turns the library into a server: many top-k
queries in flight at once over one set of backing services, scheduled
cooperatively on a single asyncio loop.  The moving parts:

* **Admission** (:class:`~repro.middleware.cost.AdmissionPolicy`): at
  most ``max_active`` queries run concurrently, arrivals beyond that
  wait FIFO in a bounded queue, and a full queue refuses with
  :class:`~repro.middleware.errors.AdmissionError`.  Dispatch runs as
  *urgent* work on the :class:`~repro.server.scheduler.Scheduler`;
  housekeeping (forgetting collected queries) is a timed call every
  ``sweep_after`` seconds, so bookkeeping can never delay a query
  start and an idle service sleeps.
* **Engine execution**: the paper's synchronous engines run unmodified
  via :meth:`~repro.core.base.TopKAlgorithm.run_on_loop` on a worker
  pool of ``max_active`` threads; the loop stays free to admit, feed
  scans, serve random accesses, and cancel.  Over a local
  ``database=`` each query gets a plain, cancellable
  :class:`~repro.middleware.access.AccessSession` on the database's
  columnar snapshot projected onto the query's lists, so the chunked
  columnar engines run directly on the worker -- no simulated services
  and no scan cache.
* **Scan sharing** (:class:`~repro.server.scancache.ScanCache`), for
  caller-supplied ``services=``: concurrent queries over the same
  lists read one underlying sorted cursor per list.  Charging is
  untouched -- each query's
  :class:`~repro.services.session.ServiceSession` charges exactly
  the prefix *it* consumed.
* **Source ops**: a ``database=`` service also serves its lists over
  the wire (the ``page``/``random``/``run_page`` ops of
  :class:`~repro.server.wire.QueryServer`), read at op time straight
  from the database's current columnar snapshot -- nothing is copied,
  and a write has nothing to rebuild.  The ``latency``/``failures``/
  ``retry`` models run once per op, through one endpoint per list and
  one per (list, shard run).
* **Billing** (:class:`~repro.middleware.cost.BillingLedger`): every
  terminal query -- completed, failed, or cancelled -- posts a
  :class:`~repro.middleware.cost.QueryBill`; the paper's middleware
  cost *is* the meter.

Use it embedded (``service.start()`` on a private loop thread,
``submit``/``result``/``cancel`` from any thread) or attached to an
existing loop (``await service.astart()``), which is how
:class:`~repro.server.wire.QueryServer` hosts it.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

from ..aggregation import (
    AVERAGE,
    MAX,
    MEDIAN,
    MIN,
    PRODUCT,
    SUM,
    AggregationFunction,
)
from ..core import (
    CombinedAlgorithm,
    NoRandomAccessAlgorithm,
    StreamCombine,
    ThresholdAlgorithm,
    TopKAlgorithm,
    TopKResult,
)
from ..core.base import QueryError
from ..middleware.access import AccessSession
from ..middleware.cost import (
    AdmissionPolicy,
    BillingLedger,
    CostModel,
    QueryBill,
    QueryBudget,
)
from ..middleware.database import ColumnarDatabase, Database, ShardedDatabase
from ..middleware.errors import (
    AdmissionError,
    DatabaseError,
    QueryCancelledError,
    UnknownQueryError,
    UnknownViewError,
)
from ..middleware.mutable import MutableDatabase
from ..obs import NULL_OBS, Observability
from ..views import LiveView, ViewEvent
from ..services.assemble import _per_list
from ..services.protocol import RemoteGradedSource
from ..services.session import ServiceSession, _drain_loop_tasks
from ..services.simulated import (
    FailureModel,
    LatencyModel,
    RetryPolicy,
    _SimulatedEndpoint,
)
from .scancache import ScanCache
from .scheduler import Scheduler

__all__ = [
    "ALGORITHMS",
    "AGGREGATIONS",
    "QuerySpec",
    "QueryHandle",
    "QueryService",
    "QueryStatus",
]


#: name -> zero-argument engine factory (fresh instance per query; the
#: engines are stateless across runs but cheap to construct, and a
#: fresh instance keeps any future per-run state private)
ALGORITHMS: dict[str, Callable[[], TopKAlgorithm]] = {
    "ta": ThresholdAlgorithm,
    "ta-seen": lambda: ThresholdAlgorithm(remember_seen=True),
    "nra": NoRandomAccessAlgorithm,
    "ca": CombinedAlgorithm,
    "stream-combine": StreamCombine,
}

#: name -> aggregation function (all variadic)
AGGREGATIONS: dict[str, AggregationFunction] = {
    "min": MIN,
    "max": MAX,
    "sum": SUM,
    "average": AVERAGE,
    "product": PRODUCT,
    "median": MEDIAN,
}


class QueryStatus:
    """Lifecycle states of a submitted query (string constants)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"
    ERROR = "error"

    TERMINAL = frozenset({DONE, CANCELLED, ERROR})


@dataclass(frozen=True)
class QuerySpec:
    """One top-k query, by value (constructible from a wire dict).

    ``lists`` selects which of the service's lists the query runs over
    (``None`` = all, in order); the aggregation's arity is checked
    against it.  ``sorted_cost``/``random_cost`` are the paper's
    ``cS``/``cR`` for *this* query's bill; ``deadline_s``/``max_cost``
    arm a per-query :class:`~repro.middleware.cost.QueryBudget` (the
    wall clock starts at admission, so time spent queued counts).

    ``mode`` distinguishes one-shot queries (``"oneshot"``, the
    default) from standing subscriptions (``"view"``, protocol v2).
    Decoding is unknown-field tolerant in both directions: a v1 dict
    without ``mode`` decodes as a one-shot, and unknown keys are
    ignored, so mixed-version clients and servers interoperate.
    """

    algorithm: str
    aggregation: str
    k: int
    lists: tuple[int, ...] | None = None
    sorted_cost: float = 1.0
    random_cost: float = 1.0
    deadline_s: float | None = None
    max_cost: float | None = None
    forbid_wild_guesses: bool = False
    mode: str = "oneshot"

    def make_algorithm(self) -> TopKAlgorithm:
        factory = ALGORITHMS.get(self.algorithm)
        if factory is None:
            raise QueryError(
                f"unknown algorithm {self.algorithm!r}; "
                f"known: {sorted(ALGORITHMS)}"
            )
        return factory()

    def make_aggregation(self) -> AggregationFunction:
        aggregation = AGGREGATIONS.get(self.aggregation)
        if aggregation is None:
            raise QueryError(
                f"unknown aggregation {self.aggregation!r}; "
                f"known: {sorted(AGGREGATIONS)}"
            )
        return aggregation

    def cost_model(self) -> CostModel:
        return CostModel(self.sorted_cost, self.random_cost)

    def make_budget(self) -> QueryBudget | None:
        if self.deadline_s is None and self.max_cost is None:
            return None
        return QueryBudget(
            deadline_s=self.deadline_s, max_cost=self.max_cost
        )

    def as_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "aggregation": self.aggregation,
            "k": self.k,
            "lists": None if self.lists is None else list(self.lists),
            "sorted_cost": self.sorted_cost,
            "random_cost": self.random_cost,
            "deadline_s": self.deadline_s,
            "max_cost": self.max_cost,
            "forbid_wild_guesses": self.forbid_wild_guesses,
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, data) -> "QuerySpec":
        """Build a spec from an untrusted wire dict, validating shapes
        (name resolution happens at admission)."""
        if not isinstance(data, dict):
            raise ValueError("query spec must be a dict")
        algorithm = data.get("algorithm")
        aggregation = data.get("aggregation")
        if not isinstance(algorithm, str) or not isinstance(aggregation, str):
            raise ValueError("spec needs string 'algorithm'/'aggregation'")
        k = data.get("k")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f"spec 'k' must be a positive int, got {k!r}")
        lists = data.get("lists")
        if lists is not None:
            if not isinstance(lists, (list, tuple)) or not all(
                isinstance(i, int) and not isinstance(i, bool) for i in lists
            ):
                raise ValueError("'lists' must be a list of ints or None")
            lists = tuple(int(i) for i in lists)
        def _number(key, default):
            value = data.get(key, default)
            if value is None and default is None:
                return None
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{key!r} must be a number")
            return float(value)
        mode = data.get("mode", "oneshot")
        if mode not in ("oneshot", "view"):
            raise ValueError(
                f"spec 'mode' must be 'oneshot' or 'view', got {mode!r}"
            )
        return cls(
            algorithm=algorithm,
            aggregation=aggregation,
            k=k,
            lists=lists,
            sorted_cost=_number("sorted_cost", 1.0),
            random_cost=_number("random_cost", 1.0),
            deadline_s=_number("deadline_s", None),
            max_cost=_number("max_cost", None),
            forbid_wild_guesses=bool(data.get("forbid_wild_guesses", False)),
            mode=mode,
        )


class _QueryState:
    """Loop-confined bookkeeping for one submitted query."""

    __slots__ = (
        "query_id",
        "spec",
        "algorithm",
        "aggregation",
        "lists",
        "budget",
        "future",
        "status",
        "session",
        "cancel_requested",
        "submitted_at",
        "finished_at",
        "bill",
        "collected",
        "trace",
        "probe",
    )

    def __init__(
        self,
        query_id: str,
        spec: QuerySpec,
        algorithm: TopKAlgorithm,
        aggregation: AggregationFunction,
        lists: list[int],
        budget: QueryBudget | None,
    ):
        self.query_id = query_id
        self.spec = spec
        self.algorithm = algorithm
        self.aggregation = aggregation
        self.lists = lists
        self.budget = budget
        self.future: concurrent.futures.Future = concurrent.futures.Future()
        self.status = QueryStatus.QUEUED
        #: the running query's session; dropped once the bill is posted
        self.session: _DirectSession | ServiceSession | None = None
        self.cancel_requested = False
        self.submitted_at = time.monotonic()
        self.finished_at: float | None = None
        self.bill: QueryBill | None = None
        self.collected = False
        #: lifecycle trace + bound-trajectory probe (None when the
        #: service runs without an observability plane)
        self.trace = None
        self.probe = None


class _DirectSession(AccessSession):
    """A plain :class:`~repro.middleware.access.AccessSession` that
    :meth:`cancel` stops at its next charging call: the cancelled
    query raises :class:`QueryCancelledError` before anything more is
    charged, as a :class:`~repro.services.session.ServiceSession`
    does, so its bill is exactly the prefix it had consumed."""

    def __init__(self, database: Database, query_id: str, **kwargs):
        super().__init__(database, **kwargs)
        self._query_id = query_id
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    def close(self) -> None:
        pass

    def _check_open(self) -> None:
        if self._cancelled:
            raise QueryCancelledError(self._query_id)


class _ViewState:
    """Loop-confined bookkeeping for one standing subscription."""

    #: ring-buffer bound on retained (undelivered) view events; a
    #: subscriber lagging further than this loses the oldest deltas
    #: (detectable: the next poll's first seq jumps)
    MAX_EVENTS = 4096

    __slots__ = (
        "view_id",
        "spec",
        "view",
        "events",
        "next_seq",
        "waiters",
        "created_at",
    )

    def __init__(self, view_id: str, spec: QuerySpec, view: LiveView):
        self.view_id = view_id
        self.spec = spec
        self.view = view
        self.events: deque[dict] = deque(maxlen=self.MAX_EVENTS)
        self.next_seq = 0
        self.waiters: list[asyncio.Future] = []
        self.created_at = time.monotonic()

    def record(self, event: ViewEvent) -> None:
        self.next_seq += 1
        entry = dict(event.as_dict())
        entry["seq"] = self.next_seq
        self.events.append(entry)
        self.wake()

    def wake(self) -> None:
        for waiter in self.waiters:
            if not waiter.done():
                waiter.set_result(None)
        self.waiters.clear()

    def since(self, after: int) -> list[dict]:
        return [e for e in self.events if e["seq"] > after]


@dataclass(frozen=True)
class QueryHandle:
    """A submitted query: its id and the future carrying its result.

    ``future`` is a :class:`concurrent.futures.Future` resolving to the
    :class:`~repro.core.result.TopKResult` (or raising the query's
    terminal error / :class:`QueryCancelledError`); thread-safe to wait
    on, and ``asyncio.wrap_future`` makes it awaitable.
    """

    query_id: str
    future: concurrent.futures.Future
    service: "QueryService"

    def result(self, timeout: float | None = None) -> TopKResult:
        return self.service.result(self.query_id, timeout=timeout)

    def cancel(self) -> bool:
        return self.service.cancel(self.query_id)

    def bill(self) -> QueryBill | None:
        return self.service.bill_for(self.query_id)


#: default seconds between housekeeping sweeps (and the least time a
#: collected terminal query lingers before one forgets it)
SWEEP_AFTER_S = 30.0


class QueryService:
    """See the module docstring.

    Parameters
    ----------
    services:
        The ``m`` backing :class:`~repro.services.protocol.RemoteGradedSource`
        objects, in list order, queried through the scan cache.
    database:
        Or a local database: queries run the columnar engines on it
        directly, and the source ops serve its lists, with the
        optional ``latency``/``failures``/``retry`` models (one model,
        or one per list) applied to those ops only.  The models' state
        lives as long as the service: one endpoint per list and one
        per (list, shard run), never rebuilt by a write, so a
        :class:`~repro.services.simulated.FailureModel` script's call
        index counts that endpoint's calls since the service started.
    admission:
        :class:`~repro.middleware.cost.AdmissionPolicy`; defaults to 4
        active / 256 queued / no default budget.
    share_scans:
        ``services=`` only.  ``True`` (default): concurrent queries
        share one sorted cursor per list through the
        :class:`~repro.server.scancache.ScanCache`.  ``False``: every
        query gets private scans that stop when it ends (identical
        machinery; the benchmark's control arm).
    batch_size, readahead_pages:
        ``services=`` only.  Scan paging: page size of the shared
        cursors and how many pages the fetcher keeps ahead of the
        deepest consumer.
    wait_timeout:
        Deadlock net for worker threads blocked on a scan frontier or a
        random-access bridge, and for a mutation waiting on the queries
        it drains.
    sweep_after:
        Seconds between housekeeping sweeps; a collected terminal query
        lingers at least this long before a sweep forgets it.
    obs:
        An :class:`~repro.obs.Observability` plane; when given, every
        query carries a lifecycle trace plus a bound-trajectory probe,
        service counters land in the metrics registry, and queries over
        the slow-query threshold are retained with their per-round
        τ/W/B profile.  ``None`` (default) costs one attribute load per
        hook -- results are bit-identical either way.
    """

    def __init__(
        self,
        services: Sequence[RemoteGradedSource] | None = None,
        *,
        database: Database | None = None,
        latency: LatencyModel | Sequence[LatencyModel | None] | None = None,
        failures: FailureModel | Sequence[FailureModel | None] | None = None,
        retry: RetryPolicy | Sequence[RetryPolicy | None] | None = None,
        admission: AdmissionPolicy | None = None,
        share_scans: bool = True,
        batch_size: int = 64,
        readahead_pages: int = 2,
        wait_timeout: float = 30.0,
        sweep_after: float = SWEEP_AFTER_S,
        obs: Observability | None = None,
    ):
        if sweep_after <= 0:
            raise ValueError(f"sweep_after must be > 0, got {sweep_after}")
        if (services is None) == (database is None):
            raise DatabaseError(
                "pass exactly one of services= or database="
            )
        self._database = database
        #: ``database=``: the source ops' (latency, failures, retry)
        #: models, their endpoints (see :meth:`_endpoint`), and the run
        #: triples ``run_page`` serves with the database version they
        #: were read at
        self._source_models = (latency, failures, retry)
        self._endpoints: dict[tuple[int, int | None], _SimulatedEndpoint] = {}
        self._runs: tuple[int, list[list[tuple]]] | None = None
        self._services: list[RemoteGradedSource] = []
        self._num_objects = 0
        if database is not None:
            # a scalar database is immutable: convert it once
            self._columnar: ColumnarDatabase | None = (
                database
                if isinstance(database, ColumnarDatabase)
                else database.to_columnar()
            )
        elif latency is not None or failures is not None or retry is not None:
            raise DatabaseError(
                "latency/failures/retry only apply with database=; "
                "attach models to the services you pass"
            )
        else:
            assert services is not None
            self._columnar = None
            self._services = list(services)
            if not self._services:
                raise DatabaseError("need at least one service")
            sizes = {int(s.num_entries) for s in self._services}
            if len(sizes) != 1:
                raise DatabaseError(
                    f"services disagree on N: {sorted(sizes)}"
                )
            self._num_objects = sizes.pop()
        self._admission = admission or AdmissionPolicy()
        self._share_scans = share_scans
        self._batch_size = batch_size
        self._readahead_pages = readahead_pages
        self._wait_timeout = wait_timeout
        self._sweep_after = sweep_after
        self._ledger = BillingLedger()
        self._scheduler = Scheduler()
        self._cache: ScanCache | None = None
        self._queries: dict[str, _QueryState] = {}
        self._queue: deque[str] = deque()
        self._active: set[str] = set()
        self._next_query = 0
        self._views: dict[str, _ViewState] = {}
        self._next_view = 0
        #: mutation barrier: while > 0, no new query may start (a
        #: mutation edits the grade matrix in place; in-flight engine
        #: runs read an isolated snapshot, but the barrier keeps the
        #: simpler invariant that runs and writes never overlap)
        self._mutations_pending = 0
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self._admission.max_active,
            thread_name_prefix="repro-query",
        )
        self._draining = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._owns_loop = False
        self._closed = False
        self._obs = obs
        # pre-resolved instruments: NULL_INSTRUMENT when the plane is
        # absent/disabled, so the hot paths below never branch on obs
        plane = obs if obs is not None else NULL_OBS
        _c, _g, _h = plane.counter, plane.gauge, plane.histogram
        self._m_submitted = _c(
            "repro_queries_submitted_total",
            help="queries admitted (queued or started)",
        )
        self._m_refused = _c(
            "repro_queries_refused_total",
            help="submissions refused at admission",
        )
        self._m_outcomes = {
            outcome: _c(
                "repro_queries_finished_total",
                {"outcome": outcome},
                help="terminal queries by outcome",
            )
            for outcome in ("ok", "cancelled", "error")
        }
        self._m_queued = _g(
            "repro_queries_queued", help="admission queue depth"
        )
        self._m_active = _g(
            "repro_queries_active", help="queries currently running"
        )
        self._m_duration = _h(
            "repro_query_wall_seconds",
            help="submit-to-terminal wall time",
        )
        self._m_cost = _h(
            "repro_query_middleware_cost",
            help="per-query charged middleware cost s*cS + r*cR",
        )
        self._m_sorted = _c(
            "repro_sorted_accesses_total",
            help="charged sorted accesses across finished queries",
        )
        self._m_random = _c(
            "repro_random_accesses_total",
            help="charged random accesses across finished queries",
        )
        self._m_mutations = {
            action: _c(
                "repro_mutations_total",
                {"action": action},
                help="applied mutations by action",
            )
            for action in ("insert", "update", "delete")
        }
        self._m_views = _g(
            "repro_views_active", help="standing views registered"
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_lists(self) -> int:
        if self._database is not None:
            return self._database.num_lists
        return len(self._services)

    @property
    def num_objects(self) -> int:
        if self._database is not None:
            return self._database.num_objects
        return self._num_objects

    @property
    def admission(self) -> AdmissionPolicy:
        return self._admission

    def source_meta(self) -> tuple[list[dict], list[list[int]]]:
        """The ``sources`` and ``runs`` entries of the ``meta`` wire op,
        read off the database (none for caller-supplied
        ``services=``)."""
        db = self._database
        if db is None:
            return [], []
        n = db.num_objects
        sources = [
            {"name": f"list-{i}", "n": n, "sorted": True, "random": True}
            for i in range(db.num_lists)
        ]
        runs = [[len(run[0]) for run in row] for row in self._source_runs()]
        return sources, runs

    def _source_runs(self) -> list[list[tuple]]:
        """The ``[list][run]`` ``(rows, grades, ties)`` triples the
        ``run_page`` op serves: a sharded database's per-shard runs (a
        mutable one's live segments, read once per version), none
        for any other database."""
        db = self._database
        if not isinstance(db, ShardedDatabase):
            return []
        version = self.mutable.version if self.mutable is not None else 0
        if self._runs is None or self._runs[0] != version:
            self._runs = (
                version, [db.list_runs(i) for i in range(db.num_lists)]
            )
        return self._runs[1]

    def _endpoint(
        self, list_index: int, run: int | None = None
    ) -> _SimulatedEndpoint:
        """The source-op endpoint of list ``list_index`` (or of its
        shard run ``run``), made on its first op with the list's
        models -- a service that serves no source op makes none."""
        endpoint = self._endpoints.get((list_index, run))
        if endpoint is None:
            name = f"list-{list_index}"
            if run is not None:
                name += f"/shard-{run}"
            m = self.num_lists
            latency, failures, retry = self._source_models
            endpoint = _SimulatedEndpoint(
                name,
                _per_list(latency, m, "latency")[list_index],
                _per_list(failures, m, "failure")[list_index],
                _per_list(retry, m, "retry")[list_index],
            )
            self._endpoints[list_index, run] = endpoint
        return endpoint

    @property
    def database(self) -> Database | None:
        """The backing database, when the service owns one (``None``
        for externally-provided services)."""
        return self._database

    @property
    def mutable(self) -> MutableDatabase | None:
        """The backing database when it supports the write plane,
        else ``None`` (mutations and subscriptions require it)."""
        db = self._database
        return db if isinstance(db, MutableDatabase) else None

    @property
    def ledger(self) -> BillingLedger:
        return self._ledger

    @property
    def scheduler(self) -> Scheduler:
        return self._scheduler

    @property
    def scan_cache(self) -> ScanCache | None:
        """The scan cache of a ``services=`` service (``None`` before
        start, and always for ``database=``)."""
        return self._cache

    @property
    def obs(self) -> Observability | None:
        """The attached observability plane (``None`` when absent)."""
        return self._obs

    def metrics(self) -> dict:
        """A JSON-safe snapshot of the metrics registry (the payload of
        the ``metrics`` wire op); an empty, disabled-shaped snapshot
        when no observability plane is attached."""
        if self._obs is None:
            return {"enabled": False, "metrics": []}
        return self._obs.registry.snapshot()

    def bills(self) -> list[QueryBill]:
        return self._ledger.bills()

    def bill_for(self, query_id: str) -> QueryBill | None:
        state = self._queries.get(query_id)
        if state is None:
            for bill in self._ledger.bills():
                if bill.query_id == query_id:
                    return bill
            raise UnknownQueryError(query_id)
        return state.bill

    def query_trace(self, query_id: str) -> dict | None:
        """The lifecycle trace of ``query_id`` as a JSON-safe dict
        (:meth:`QueryTrace.as_dict`: spans, attributes, and the
        attached bound-trajectory profile) -- the payload of the
        ``trace`` wire op.

        A still-tracked query reports its in-flight trace; completed
        queries are looked up in the tracer's bounded completed ring.
        Returns ``None`` when tracing is off for the query; raises
        :class:`~repro.middleware.errors.UnknownQueryError` for an id
        that is neither tracked nor retained (never issued, or aged
        out of the ring -- indistinguishable by design, the ring is
        the only memory of finished queries).
        """
        state = self._queries.get(query_id)
        if state is not None:
            trace = state.trace
            if trace is None:
                return None
            record = trace.as_dict()
            return record or None  # NULL_TRACE serialises empty
        if self._obs is not None:
            trace = self._obs.tracer.find(query_id)
            if trace is not None:
                return trace.as_dict()
        raise UnknownQueryError(query_id)

    def stats(self) -> dict:
        """Service-level counters (thread-safe snapshot, approximate
        while queries move between states)."""
        return {
            "m": self.num_lists,
            "n": self.num_objects,
            "queued": len(self._queue),
            "active": len(self._active),
            "tracked": len(self._queries),
            "share_scans": self._database is None and self._share_scans,
            "views": len(self._views),
            "mutable": self.mutable is not None,
            "version": (
                self.mutable.version if self.mutable is not None else None
            ),
            "ledger": self._ledger.totals(),
            "cache": (
                self._cache.stats()
                if self._cache is not None
                else {"shared": False, "scans": []}
            ),
            "store": (
                self._database.store_snapshot()
                if hasattr(self._database, "store_snapshot")
                else None
            ),
            "scheduler": {
                "ran": dict(self._scheduler.ran),
                "pending": self._scheduler.pending(),
                "failures": len(self._scheduler.failures),
            },
        }

    # ------------------------------------------------------------------
    # lifecycle: attached to an existing loop
    # ------------------------------------------------------------------
    async def astart(self) -> "QueryService":
        """Arm the service on the *running* loop (idempotent)."""
        if self._loop is not None:
            return self
        self._loop = asyncio.get_running_loop()
        if self._database is None:
            self._cache = ScanCache(
                self._services,
                self._loop,
                batch_size=self._batch_size,
                readahead_pages=self._readahead_pages,
                shared=self._share_scans,
            )
        self._scheduler.start()
        self._scheduler.call_later(self._sweep_after, self._sweep)
        return self

    async def adrain(self, timeout: float = 5.0) -> bool:
        """Stop admitting, let queued + running queries finish; True
        when everything reached a terminal state within ``timeout``."""
        self._draining = True
        deadline = time.monotonic() + timeout
        while self._queue or self._active:
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.01)
        return True

    async def aclose(self) -> None:
        """Cancel everything in flight and tear down (loop-side,
        idempotent)."""
        self._draining = True
        for view_state in list(self._views.values()):
            self._drop_view(view_state)
        for state in list(self._queries.values()):
            if state.status not in QueryStatus.TERMINAL:
                try:
                    self._cancel_on_loop(state.query_id)
                except UnknownQueryError:  # pragma: no cover - racy sweep
                    pass
        # let cancelled engines unwind off their worker threads
        deadline = time.monotonic() + self._wait_timeout
        while self._active and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        await self._scheduler.stop()
        if self._cache is not None:
            await self._cache.aclose()
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # lifecycle: own loop on a background thread (embedded mode)
    # ------------------------------------------------------------------
    def start(self) -> "QueryService":
        """Run the service on a private event loop thread; returns
        ``self`` once armed."""
        if self._loop is not None:
            raise RuntimeError("service already started")
        loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=loop.run_forever, name="repro-query-service", daemon=True
        )
        self._thread.start()
        self._owns_loop = True
        asyncio.run_coroutine_threadsafe(self.astart(), loop).result(
            timeout=10.0
        )
        return self

    def close(self) -> None:
        """Stop the embedded service (idempotent)."""
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        if loop is None or not self._owns_loop:
            return
        try:
            asyncio.run_coroutine_threadsafe(self.aclose(), loop).result(
                timeout=10.0
            )
        except Exception:  # pragma: no cover - defensive teardown
            pass
        try:
            # mimic asyncio.run teardown: cancel whatever still lives on
            # the loop (e.g. transport reader tasks owned by remote
            # sources) so no task is destroyed while pending
            asyncio.run_coroutine_threadsafe(
                _drain_loop_tasks(), loop
            ).result(timeout=5.0)
        except Exception:  # pragma: no cover - defensive teardown
            pass
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            if not self._thread.is_alive():
                loop.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise RuntimeError(
                "service not started (call start() or await astart())"
            )
        return self._loop

    # ------------------------------------------------------------------
    # submission / results / cancellation
    # ------------------------------------------------------------------
    async def asubmit(self, spec: QuerySpec) -> QueryHandle:
        """Admit one query (loop-side).  Raises
        :class:`~repro.middleware.errors.AdmissionError` when refused,
        :class:`~repro.core.base.QueryError` /
        :class:`ValueError` when the spec is invalid."""
        if self._draining:
            self._m_refused.inc()
            raise AdmissionError("service is draining; resubmit elsewhere")
        # resolve eagerly: an invalid query fails at the submission
        # boundary, never inside a worker
        algorithm = spec.make_algorithm()
        aggregation = spec.make_aggregation()
        lists = (
            list(range(self.num_lists))
            if spec.lists is None
            else list(spec.lists)
        )
        for i in lists:
            if not (0 <= i < self.num_lists):
                raise QueryError(
                    f"list index {i} out of range for m={self.num_lists}"
                )
        if len(set(lists)) != len(lists):
            raise QueryError(f"duplicate list indices in {lists}")
        if not lists:
            raise QueryError("query needs at least one list")
        aggregation.check_arity(len(lists))
        if spec.k > self.num_objects:
            raise QueryError(
                f"k={spec.k} exceeds the database size N={self.num_objects}"
            )
        spec.cost_model()  # validates positivity
        budget = spec.make_budget() or self._admission.default_budget()
        if budget is not None:
            budget.start()  # queue time counts against the deadline
        self._next_query += 1
        query_id = f"q{self._next_query:05d}"
        state = _QueryState(
            query_id, spec, algorithm, aggregation, lists, budget
        )
        if (
            len(self._active) >= self._admission.max_active
            or self._queue
            or self._mutations_pending
        ):
            if len(self._queue) >= self._admission.max_queued:
                self._m_refused.inc()
                raise AdmissionError(
                    f"admission queue full ({self._admission.max_queued} "
                    "queued); retry later"
                )
            self._queries[query_id] = state
            self._m_submitted.inc()
            self._begin_trace(state)
            self._queue.append(query_id)
            if state.trace is not None:
                state.trace.begin("queued")
            self._m_queued.set(len(self._queue))
            self._scheduler.call_soon(self._admit_more)
        else:
            self._queries[query_id] = state
            self._m_submitted.inc()
            self._begin_trace(state)
            self._start_query(state)
        return QueryHandle(query_id, state.future, self)

    def _begin_trace(self, state: _QueryState) -> None:
        obs = self._obs
        if obs is None or not obs.enabled:
            return
        state.trace = obs.tracer.trace(
            state.query_id,
            algorithm=state.spec.algorithm,
            aggregation=state.spec.aggregation,
            k=state.spec.k,
            lists=list(state.lists),
        )
        state.trace.event("admitted")

    def submit(self, spec: QuerySpec) -> QueryHandle:
        """Thread-safe submission from outside the loop."""
        future = asyncio.run_coroutine_threadsafe(
            self.asubmit(spec), self._require_loop()
        )
        return future.result(timeout=self._wait_timeout)

    def _admit_more(self) -> None:
        """Urgent scheduler callback: fill free slots FIFO."""
        if self._mutations_pending:
            return  # the mutation re-arms admission when it completes
        while self._queue and len(self._active) < self._admission.max_active:
            state = self._queries.get(self._queue.popleft())
            if state is None or state.status != QueryStatus.QUEUED:
                continue  # cancelled while queued
            self._start_query(state)
        self._m_queued.set(len(self._queue))

    def _start_query(self, state: _QueryState) -> None:
        state.status = QueryStatus.RUNNING
        self._active.add(state.query_id)
        self._m_active.set(len(self._active))
        if state.trace is not None:
            state.trace.end("queued")
            state.trace.begin("running")
        assert self._loop is not None
        self._loop.create_task(self._run_query(state))

    def _open_session(
        self, state: _QueryState
    ) -> _DirectSession | ServiceSession:
        """The query's session: a direct one on the columnar snapshot
        projected onto its lists, or a scan-cache checkout."""
        spec = state.spec
        if self._columnar is not None:
            return _DirectSession(
                self._columnar._speculation_store()._project(state.lists),
                state.query_id,
                cost_model=spec.cost_model(),
                forbid_wild_guesses=spec.forbid_wild_guesses,
                budget=state.budget,
            )
        assert self._cache is not None
        return self._cache.checkout(
            state.lists,
            query_id=state.query_id,
            cost_model=spec.cost_model(),
            forbid_wild_guesses=spec.forbid_wild_guesses,
            budget=state.budget,
            wait_timeout=self._wait_timeout,
        )

    async def _run_query(self, state: _QueryState) -> None:
        session: _DirectSession | ServiceSession | None = None
        try:
            session = self._open_session(state)
            state.session = session
            if state.trace is not None:
                assert self._obs is not None
                # the probe rides the session into the engine; its
                # reads are uncharged session properties, so the
                # middleware bill is identical with or without it
                state.probe = self._obs.probe(session)
                session.probe = state.probe
                state.trace.probe = state.probe
            if state.cancel_requested:
                raise QueryCancelledError(state.query_id)
            result = await state.algorithm.run_on_loop(
                session,
                state.aggregation,
                state.spec.k,
                executor=self._executor,
            )
        except QueryCancelledError as exc:
            self._finish(state, session, "cancelled", None, exc)
        except BaseException as exc:
            self._finish(state, session, "error", None, exc)
        else:
            self._finish(state, session, "ok", result, None)
        finally:
            if session is not None:
                session.close()
            self._active.discard(state.query_id)
            self._m_active.set(len(self._active))
            valve = getattr(self._database, "page_cache", None)
            if not self._active and valve is not None:
                # between queries: hand a store's resident pages back
                # (the next query faults in only what it reads)
                valve.release_mappings()
            self._scheduler.call_soon(self._admit_more)

    def _finish(
        self,
        state: _QueryState,
        session: AccessSession | None,
        outcome: str,
        result: TopKResult | None,
        exc: BaseException | None,
    ) -> None:
        if state.status in QueryStatus.TERMINAL:  # pragma: no cover
            return
        state.finished_at = time.monotonic()
        stats = session.stats() if session is not None else None
        bill = QueryBill(
            query_id=state.query_id,
            algorithm=state.spec.algorithm,
            aggregation=state.spec.aggregation,
            k=state.spec.k,
            lists=tuple(state.lists),
            sorted_accesses=stats.sorted_accesses if stats else 0,
            random_accesses=stats.random_accesses if stats else 0,
            middleware_cost=stats.middleware_cost if stats else 0.0,
            wall_seconds=state.finished_at - state.submitted_at,
            outcome=outcome,
            halt_reason=result.halt_reason if result is not None else None,
        )
        self._ledger.post(bill)
        state.bill = bill
        # the bill is posted: a finished query keeps no session (nor,
        # through a sealed probe, any of its seen-object state)
        state.session = None
        if state.probe is not None:
            state.probe.finish(bill.halt_reason)
        self._m_outcomes[outcome].inc()
        self._m_duration.observe(bill.wall_seconds)
        self._m_cost.observe(bill.middleware_cost)
        self._m_sorted.inc(bill.sorted_accesses)
        self._m_random.inc(bill.random_accesses)
        if state.trace is not None:
            trace = state.trace
            trace.end(
                "running",
                outcome=outcome,
                cost=bill.middleware_cost,
                sorted=bill.sorted_accesses,
                random=bill.random_accesses,
            )
            obs = self._obs
            assert obs is not None
            obs.tracer.finish(trace)
            obs.slow_queries.consider(
                trace, duration_s=bill.wall_seconds, outcome=outcome
            )
        if outcome == "ok":
            state.status = QueryStatus.DONE
            assert result is not None
            state.future.set_result(result)
        else:
            state.status = (
                QueryStatus.CANCELLED
                if outcome == "cancelled"
                else QueryStatus.ERROR
            )
            assert exc is not None
            if outcome == "cancelled":
                # raised inside the access plane: its traceback would
                # keep the session's frames alive as long as the future
                exc = exc.with_traceback(None)
            state.future.set_exception(exc)

    def _cancel_on_loop(self, query_id: str) -> bool:
        state = self._queries.get(query_id)
        if state is None:
            raise UnknownQueryError(query_id)
        if state.status in QueryStatus.TERMINAL:
            return False
        state.cancel_requested = True
        if state.status == QueryStatus.QUEUED:
            # never started: terminal immediately, zero-access bill
            self._finish(
                state, None, "cancelled", None,
                QueryCancelledError(query_id),
            )
            return True
        if state.session is not None:
            state.session.cancel()
        return True

    def cancel(self, query_id: str) -> bool:
        """Thread-safe cancel; True when the query was still live.
        Raises :class:`UnknownQueryError` for ids never issued or
        already swept."""
        future = asyncio.run_coroutine_threadsafe(
            _call_async(self._cancel_on_loop, query_id), self._require_loop()
        )
        return future.result(timeout=self._wait_timeout)

    def result(
        self, query_id: str, timeout: float | None = None
    ) -> TopKResult:
        """Block for a query's result (thread-safe); re-raises the
        query's terminal error (including
        :class:`QueryCancelledError`)."""
        state = self._queries.get(query_id)
        if state is None:
            raise UnknownQueryError(query_id)
        try:
            return state.future.result(timeout=timeout)
        finally:
            state.collected = True

    def status(self, query_id: str) -> dict:
        state = self._queries.get(query_id)
        if state is None:
            raise UnknownQueryError(query_id)
        return {
            "query": query_id,
            "status": state.status,
            "queued": len(self._queue),
            "active": len(self._active),
        }

    def query_state(self, query_id: str) -> _QueryState:
        """Internal/loop-side accessor used by the wire layer."""
        state = self._queries.get(query_id)
        if state is None:
            raise UnknownQueryError(query_id)
        return state

    # ------------------------------------------------------------------
    # standing views + the mutation plane (protocol v2)
    # ------------------------------------------------------------------
    def _require_mutable(self) -> MutableDatabase:
        db = self.mutable
        if db is None:
            raise QueryError(
                "this service is not backed by a MutableDatabase; "
                "construct it with database=MutableColumnarDatabase(...) "
                "to enable mutations and subscriptions"
            )
        return db

    async def asubscribe(self, spec: QuerySpec) -> dict:
        """Register a standing query (loop-side).

        Returns ``{"view", "result", "seq", "version"}`` -- the view
        id, the initial :class:`~repro.core.result.TopKResult`
        snapshot, the event sequence floor to poll from (0), and the
        database version the snapshot reflects.  Subsequent deltas
        stream through :meth:`aview_events`.
        """
        if self._draining:
            raise AdmissionError("service is draining; resubmit elsewhere")
        db = self._require_mutable()
        # same eager validation as one-shot admission
        spec.make_algorithm()
        aggregation = spec.make_aggregation()
        if spec.lists is not None and tuple(spec.lists) != tuple(
            range(self.num_lists)
        ):
            raise QueryError(
                "standing views run over the full list set; "
                f"got lists={list(spec.lists)} for m={self.num_lists}"
            )
        aggregation.check_arity(self.num_lists)
        spec.cost_model()  # validates positivity
        self._next_view += 1
        view_id = f"v{self._next_view:05d}"
        view = LiveView(
            db,
            spec.make_algorithm,
            aggregation,
            spec.k,
            cost_model=spec.cost_model(),
            obs=self._obs,
        )
        state = _ViewState(view_id, spec, view)
        view._on_event = state.record
        self._views[view_id] = state
        self._m_views.set(len(self._views))
        return {
            "view": view_id,
            "result": view.result,
            "seq": 0,
            "version": view.version,
        }

    async def aview_events(
        self, view_id: str, after: int = 0, timeout: float = 10.0
    ) -> dict:
        """Long-poll one view's delta stream (loop-side): events with
        ``seq > after``, waiting up to ``timeout`` seconds (on the
        scheduler's timed band) when none are pending yet."""
        state = self._views.get(view_id)
        if state is None:
            raise UnknownViewError(view_id)
        events = state.since(after)
        if not events and timeout > 0:
            loop = self._require_loop()
            waiter: asyncio.Future = loop.create_future()
            state.waiters.append(waiter)
            timer = self._scheduler.call_later(
                timeout,
                lambda: waiter.done() or waiter.set_result(None),
            )
            try:
                await waiter
            finally:
                timer.cancel()
                if waiter in state.waiters:  # pragma: no cover - racy
                    state.waiters.remove(waiter)
            if self._views.get(view_id) is not state:
                # unsubscribed (or connection died) while parked
                raise UnknownViewError(view_id)
            events = state.since(after)
        return {
            "view": view_id,
            "events": events,
            "seq": state.next_seq,
            "version": state.view.version,
        }

    def _drop_view(self, state: _ViewState) -> None:
        state.view.close()
        self._views.pop(state.view_id, None)
        self._m_views.set(len(self._views))
        state.wake()  # parked long-polls resolve, then see the drop

    async def aunsubscribe(self, view_id: str) -> bool:
        """Tear down a standing view (loop-side); raises
        :class:`~repro.middleware.errors.UnknownViewError` for ids
        never issued or already dropped."""
        state = self._views.get(view_id)
        if state is None:
            raise UnknownViewError(view_id)
        self._drop_view(state)
        return True

    async def amutate(
        self,
        action: str,
        obj,
        *,
        grades: Sequence[float] | None = None,
        list_index: int | None = None,
        grade: float | None = None,
    ) -> dict:
        """Apply one mutation to the backing database (loop-side).

        ``action`` is ``"insert"`` (with ``grades``), ``"update"``
        (with ``list_index`` + ``grade``) or ``"delete"``.  The write
        is serialised against query execution: admission pauses, the
        active set drains, the mutation applies (standing views update
        synchronously here, firing their deltas), and subsequent
        queries and source ops read the new contents.  Returns
        ``{"version", "n"}``.
        """
        db = self._require_mutable()
        if self._draining:
            raise AdmissionError("service is draining; no more writes")
        self._mutations_pending += 1
        try:
            deadline = time.monotonic() + self._wait_timeout
            while self._active:
                if time.monotonic() >= deadline:
                    raise QueryError(
                        "mutation timed out waiting for active queries "
                        "to drain"
                    )
                await asyncio.sleep(0.001)
            if action == "insert":
                if grades is None:
                    raise QueryError("insert needs grades=[...]")
                db.insert(obj, grades)
            elif action == "update":
                if list_index is None or grade is None:
                    raise QueryError(
                        "update needs list_index= and grade="
                    )
                db.update_grade(obj, list_index, grade)
            elif action == "delete":
                if db.num_objects <= 1:
                    raise QueryError(
                        "refusing to delete the last object; the "
                        "service requires a non-empty database"
                    )
                db.delete(obj)
            else:
                raise QueryError(
                    f"unknown mutation action {action!r}; "
                    "known: insert, update, delete"
                )
            self._m_mutations[action].inc()
            return {"version": db.version, "n": db.num_objects}
        finally:
            self._mutations_pending -= 1
            self._scheduler.call_soon(self._admit_more)

    # -- thread-safe wrappers ------------------------------------------
    def subscribe(self, spec: QuerySpec) -> dict:
        """Thread-safe :meth:`asubscribe`."""
        future = asyncio.run_coroutine_threadsafe(
            self.asubscribe(spec), self._require_loop()
        )
        return future.result(timeout=self._wait_timeout)

    def view_events(
        self, view_id: str, after: int = 0, timeout: float = 10.0
    ) -> dict:
        """Thread-safe :meth:`aview_events`."""
        future = asyncio.run_coroutine_threadsafe(
            self.aview_events(view_id, after, timeout),
            self._require_loop(),
        )
        return future.result(timeout=timeout + self._wait_timeout)

    def unsubscribe(self, view_id: str) -> bool:
        """Thread-safe :meth:`aunsubscribe`."""
        future = asyncio.run_coroutine_threadsafe(
            self.aunsubscribe(view_id), self._require_loop()
        )
        return future.result(timeout=self._wait_timeout)

    def mutate(
        self,
        action: str,
        obj,
        *,
        grades: Sequence[float] | None = None,
        list_index: int | None = None,
        grade: float | None = None,
    ) -> dict:
        """Thread-safe :meth:`amutate`."""
        future = asyncio.run_coroutine_threadsafe(
            self.amutate(
                action,
                obj,
                grades=grades,
                list_index=list_index,
                grade=grade,
            ),
            self._require_loop(),
        )
        return future.result(timeout=2 * self._wait_timeout)

    # ------------------------------------------------------------------
    # housekeeping
    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        """Timed callback: forget terminal queries whose results were
        collected and have lingered past ``sweep_after``; re-arms
        itself ``sweep_after`` seconds out."""
        now = time.monotonic()
        for query_id in list(self._queries):
            state = self._queries[query_id]
            if (
                state.status in QueryStatus.TERMINAL
                and state.collected
                and state.finished_at is not None
                and now - state.finished_at >= self._sweep_after
            ):
                del self._queries[query_id]
        if not self._draining:
            self._scheduler.call_later(self._sweep_after, self._sweep)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<QueryService m={self.num_lists} N={self.num_objects} "
            f"active={len(self._active)} queued={len(self._queue)}>"
        )


async def _call_async(fn, *args):
    return fn(*args)
