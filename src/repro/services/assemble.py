"""Service assembly and the drain adapters.

Builders (the :func:`~repro.middleware.sources.assemble_database` style
helpers, pointed the other way -- local data *into* remote services):

* :func:`services_for_database` -- one
  :class:`~repro.services.simulated.SimulatedListService` per list of
  any :class:`~repro.middleware.database.Database`, preserving its
  exact per-list tie order (O(m) over a columnar database);
* :func:`services_for_sources` -- wrap a
  :class:`~repro.middleware.sources.GradedSource` sequence (the
  examples' metasearch engines / restaurant subsystems) as services,
  carrying their capability flags;
* :func:`shard_run_services` -- one
  :class:`~repro.services.simulated.ShardRunService` per (list, shard)
  run of a :class:`~repro.middleware.database.ShardedDatabase`: the
  distributed form of PR 3's shard layout.

Drain adapters (how served pages reach the engines unmodified).  Each
pages its sources with :func:`~repro.services.protocol.read_pages`:

* :func:`assemble_remote_database` -- concurrently drain every list
  (:func:`drain_columns`) into a
  :class:`~repro.middleware.database.ColumnarDatabase` (or
  :class:`~repro.middleware.database.ShardedDatabase`) plus the
  matching capability vector.  The drained backend is identical to one
  built locally -- tie order is the services' authoritative order --
  so the speculative chunked engines of TA/NRA/CA/Stream-Combine run
  on it *unmodified* and bit-for-bit equal to every other backend.
* :func:`fetch_merged_orders` -- gather the ``S`` runs of each list
  (:func:`fetch_run` for each, overlapped, or sequential round-robin
  for the baseline) and feed them to a
  :class:`~repro.middleware.database.ListMergeCursor` k-way merge:
  exact global sorted order out of per-shard remote runs, however the
  arrivals interleaved.

Both gather modes produce identical bytes; only wall-clock differs
(``benchmarks/bench_async.py`` measures the gap).
"""

from __future__ import annotations

import asyncio
from collections.abc import Sequence

import numpy as np

from ..middleware.access import ListCapabilities
from ..middleware.database import (
    ColumnarDatabase,
    Database,
    ListMergeCursor,
    ShardedDatabase,
)
from ..middleware.errors import DatabaseError
from ..middleware.sources import GradedSource
from .protocol import RemoteGradedSource, RunPage, RunStreamSource, read_pages
from .simulated import (
    FailureModel,
    LatencyModel,
    RetryPolicy,
    ShardRunService,
    SimulatedListService,
)

__all__ = [
    "services_for_database",
    "services_for_sources",
    "shard_run_services",
    "drain_columns",
    "assemble_remote_database",
    "fetch_run",
    "fetch_merged_orders",
]


def _list_models(m: int, latency, failures, retry) -> list[dict]:
    """Each list's ``latency``/``failures``/``retry`` keywords: one
    model (or None) is broadcast to every list, a sequence must hold
    one per list."""
    columns: list[list] = []
    for what, value in (
        ("latency", latency), ("failure", failures), ("retry", retry)
    ):
        if value is None or not isinstance(value, (list, tuple)):
            value = [value] * m
        elif len(value) != m:
            raise DatabaseError(
                f"got {len(value)} {what} entries for m={m} lists"
            )
        columns.append(value)
    return [
        dict(latency=lat, failures=fail, retry=ret)
        for lat, fail, ret in zip(*columns)
    ]


def services_for_database(
    db: Database,
    *,
    latency: LatencyModel | Sequence[LatencyModel | None] | None = None,
    failures: FailureModel | Sequence[FailureModel | None] | None = None,
    retry: RetryPolicy | Sequence[RetryPolicy | None] | None = None,
    capabilities: Sequence[ListCapabilities] | None = None,
) -> list[SimulatedListService]:
    """One simulated service per list of ``db``, streaming that list's
    exact sorted order (tie placement included), all over one columnar
    snapshot ``db.to_columnar()``: O(m) over a columnar database, and
    a frozen copy of a mutable one (later writes do not show)."""
    snapshot = db.to_columnar()
    m = db.num_lists
    caps = [ListCapabilities()] * m if capabilities is None else capabilities
    return [
        SimulatedListService._over(
            snapshot, i, f"list-{i}",
            supports_sorted=caps[i].sorted_allowed,
            supports_random=caps[i].random_allowed,
            **models,
        )
        for i, models in enumerate(_list_models(m, latency, failures, retry))
    ]


def services_for_sources(
    sources: Sequence[GradedSource],
    *,
    latency: LatencyModel | Sequence[LatencyModel | None] | None = None,
    failures: FailureModel | Sequence[FailureModel | None] | None = None,
    retry: RetryPolicy | Sequence[RetryPolicy | None] | None = None,
) -> list[SimulatedListService]:
    """Wrap graded sources (the paper's QBIC / search-engine / Zagat
    subsystems) as remote services, keeping their names, entry order
    and capability flags."""
    if not sources:
        raise DatabaseError("need at least one source")
    models = _list_models(len(sources), latency, failures, retry)
    return [
        SimulatedListService(
            src.name,
            src.entries,
            supports_sorted=src.supports_sorted,
            supports_random=src.supports_random,
            **models[i],
        )
        for i, src in enumerate(sources)
    ]


def shard_run_services(
    db: ShardedDatabase,
    *,
    latency: LatencyModel | Sequence[LatencyModel | None] | None = None,
    failures: FailureModel | Sequence[FailureModel | None] | None = None,
    retry: RetryPolicy | Sequence[RetryPolicy | None] | None = None,
) -> list[list[ShardRunService]]:
    """``[list][shard]`` grid of run services over ``db``'s shard-local
    sorted runs -- each serves one ``(rows, grades, ties)`` run, the
    unit :class:`~repro.middleware.database.ListMergeCursor` merges.
    A sequence model is per *list* (every shard of list ``i`` gets
    entry ``i``), like :func:`services_for_database`."""
    models = _list_models(db.num_lists, latency, failures, retry)
    return [
        [
            ShardRunService(f"list-{i}/shard-{s}", *run, **models[i])
            for s, run in enumerate(db.list_runs(i))
        ]
        for i in range(db.num_lists)
    ]


# ----------------------------------------------------------------------
# drain adapters
# ----------------------------------------------------------------------

async def _drain_column(
    service: RemoteGradedSource, batch_size: int
) -> list[tuple]:
    entries: list[tuple] = []
    async for page in read_pages(
        service.page, service.num_entries, batch_size
    ):
        entries.extend(page)
    return entries


def drain_columns(
    services: Sequence[RemoteGradedSource], *, batch_size: int = 256
) -> list[list[tuple]]:
    """Page every service's sorted list to its end, all services at
    once; returns one ``[(object, grade), ...]`` column per service, in
    the exact order served."""
    if not services:
        raise DatabaseError("need at least one service")

    async def _drain_all():
        return await asyncio.gather(
            *(_drain_column(s, batch_size) for s in services)
        )

    return list(asyncio.run(_drain_all()))


def assemble_remote_database(
    services: Sequence[RemoteGradedSource],
    num_shards: int | None = None,
    *,
    batch_size: int = 256,
) -> tuple[ColumnarDatabase, list[ListCapabilities]]:
    """Drain remote services into a columnar (or sharded) backend plus
    the matching capability vector -- the async twin of
    :func:`~repro.middleware.sources.assemble_database`.

    The services' lists are drained concurrently (the overlap is
    where the wall-clock win lives; see ``benchmarks/bench_async.py``)
    and compiled with
    :meth:`~repro.middleware.database.Database.from_columns` semantics:
    the served order *is* the tie order, so the resulting backend is
    bit-identical to one assembled locally from the same lists, and
    the speculative chunked engines run on it unmodified.

    Raises :class:`~repro.middleware.errors.DatabaseError` if the
    services disagree on the object universe or none supports sorted
    access (then nothing could be drained without wild guesses).
    """
    if not any(s.supports_sorted for s in services):
        raise DatabaseError(
            "at least one service must support sorted access (|Z| >= 1)"
        )
    columns = drain_columns(services, batch_size=batch_size)
    universe = {obj for obj, _ in columns[0]}
    for service, column in zip(services[1:], columns[1:]):
        if {obj for obj, _ in column} != universe:
            raise DatabaseError(
                f"services {services[0].name!r} and {service.name!r} "
                "disagree on the object universe"
            )
    database = ColumnarDatabase.from_columns(columns)
    if num_shards is not None:
        database = ShardedDatabase.from_database(
            database, num_shards=num_shards
        )
    return database, [s.capabilities() for s in services]


def _concat_run(pages: Sequence[RunPage]) -> RunPage:
    if not pages:
        return RunPage(
            np.empty(0, dtype=np.intp),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
        )
    return RunPage(*(np.concatenate(parts) for parts in zip(*pages)))


async def fetch_run(source: RunStreamSource, batch_size: int) -> RunPage:
    """Page one shard run to its end and concatenate it into one
    ``(rows, grades, ties)`` run."""
    return _concat_run(
        [
            page
            async for page in read_pages(
                source.run_page, source.num_entries, batch_size
            )
        ]
    )


async def _fetch_runs_round_robin(
    sources: Sequence[RunStreamSource], batch_size: int
) -> list[RunPage]:
    """The sequential baseline: one page in flight at a time, cycling
    the sources -- what a synchronous single-threaded client does."""
    readers = [
        read_pages(s.run_page, s.num_entries, batch_size) for s in sources
    ]
    parts: list[list[RunPage]] = [[] for _ in sources]
    live = list(range(len(sources)))
    while live:
        still: list[int] = []
        for s in live:
            try:
                parts[s].append(await anext(readers[s]))
            except StopAsyncIteration:
                continue
            still.append(s)
        live = still
    return [_concat_run(pages) for pages in parts]


def fetch_merged_orders(
    grid: Sequence[Sequence[RunStreamSource]],
    *,
    batch_size: int = 512,
    sequential: bool = False,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gather every list's per-shard runs and k-way merge them.

    All ``S x m`` runs are paged concurrently (or, with ``sequential``,
    one list at a time by round-robin with one page in flight -- the
    benchmarks' baseline), then each list's runs feed a
    :class:`~repro.middleware.database.ListMergeCursor` whose
    vectorised drain reconstructs the global ``(rows, grades)`` order
    -- bit-identical to the owning
    :class:`~repro.middleware.database.ShardedDatabase`'s own merged
    orders, tie placement included.  Both modes make the same calls and
    give the same arrays; only wall-clock differs.
    """
    if not grid:
        raise DatabaseError("need at least one list of run services")

    async def _gather_all():
        if sequential:
            return [
                await _fetch_runs_round_robin(sources, batch_size)
                for sources in grid
            ]
        return await asyncio.gather(
            *(
                asyncio.gather(*(fetch_run(s, batch_size) for s in sources))
                for sources in grid
            )
        )

    runs_per_list = asyncio.run(_gather_all())
    return [ListMergeCursor(runs).drain() for runs in runs_per_list]
