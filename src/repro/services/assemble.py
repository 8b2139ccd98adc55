"""Service assembly and the drain adapters.

Builders (the :func:`~repro.middleware.sources.assemble_database` style
helpers, pointed the other way -- local data *into* remote services):

* :func:`services_for_database` -- one
  :class:`~repro.services.simulated.SimulatedListService` per list of
  any :class:`~repro.middleware.database.Database`, preserving its
  exact per-list tie order;
* :func:`services_for_sources` -- wrap a
  :class:`~repro.middleware.sources.GradedSource` sequence (the
  examples' metasearch engines / restaurant subsystems) as services,
  carrying their capability flags;
* :func:`shard_run_services` -- one
  :class:`~repro.services.simulated.ShardRunService` per (list, shard)
  run of a :class:`~repro.middleware.database.ShardedDatabase`: the
  distributed form of PR 3's shard layout.

Drain adapters (how prefetched batches reach the engines unmodified):

* :func:`assemble_remote_database` -- concurrently drain all sorted
  streams into a :class:`~repro.middleware.database.ColumnarDatabase`
  (or :class:`~repro.middleware.database.ShardedDatabase`) plus the
  matching capability vector.  The drained backend is identical to one
  built locally -- tie order is the services' authoritative order --
  so the speculative chunked engines of TA/NRA/CA/Stream-Combine run
  on it *unmodified* and bit-for-bit equal to every other backend.
* :func:`fetch_merged_orders` -- gather the ``S`` run streams of each
  list (overlapped, or sequential round-robin for the baseline) and
  feed them to a :class:`~repro.middleware.database.ListMergeCursor`
  k-way merge: exact global sorted order out of per-shard remote
  streams, however the arrivals interleaved.

Both drain modes produce identical bytes; only wall-clock differs
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
from .protocol import RemoteGradedSource, RunStreamSource
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
    "fetch_merged_orders",
]


def _per_list(value, m: int, what: str) -> list:
    """Broadcast one model (or None) to every list, or validate a
    per-list sequence."""
    if value is None or not isinstance(value, (list, tuple)):
        return [value] * m
    if len(value) != m:
        raise DatabaseError(
            f"got {len(value)} {what} entries for m={m} lists"
        )
    return list(value)


def services_for_database(
    db: Database,
    *,
    latency: LatencyModel | Sequence[LatencyModel | None] | None = None,
    failures: FailureModel | Sequence[FailureModel | None] | None = None,
    retry: RetryPolicy | Sequence[RetryPolicy | None] | None = None,
    capabilities: Sequence[ListCapabilities] | None = None,
) -> list[SimulatedListService]:
    """One simulated service per list of ``db``, streaming that list's
    exact sorted order (tie placement included)."""
    m = db.num_lists
    n = db.num_objects
    lat = _per_list(latency, m, "latency")
    fail = _per_list(failures, m, "failure")
    ret = _per_list(retry, m, "retry")
    services: list[SimulatedListService] = []
    for i in range(m):
        entries = [db.sorted_entry(i, pos) for pos in range(n)]
        caps = (
            capabilities[i]
            if capabilities is not None
            else ListCapabilities()
        )
        services.append(
            SimulatedListService(
                f"list-{i}",
                entries,
                supports_sorted=caps.sorted_allowed,
                supports_random=caps.random_allowed,
                latency=lat[i],
                failures=fail[i],
                retry=ret[i],
            )
        )
    return services


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
    m = len(sources)
    lat = _per_list(latency, m, "latency")
    fail = _per_list(failures, m, "failure")
    ret = _per_list(retry, m, "retry")
    return [
        SimulatedListService(
            src.name,
            src.entries,
            supports_sorted=src.supports_sorted,
            supports_random=src.supports_random,
            latency=lat[i],
            failures=fail[i],
            retry=ret[i],
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
    m = db.num_lists
    lat = _per_list(latency, m, "latency")
    fail = _per_list(failures, m, "failure")
    ret = _per_list(retry, m, "retry")
    grid: list[list[ShardRunService]] = []
    for i in range(m):
        row: list[ShardRunService] = []
        for s, (rows, grades, ties) in enumerate(db.list_runs(i)):
            row.append(
                ShardRunService(
                    f"list-{i}/shard-{s}",
                    rows,
                    grades,
                    ties,
                    latency=lat[i],
                    failures=fail[i],
                    retry=ret[i],
                )
            )
        grid.append(row)
    return grid


# ----------------------------------------------------------------------
# drain adapters
# ----------------------------------------------------------------------

async def _drain_sorted(
    service: RemoteGradedSource, batch_size: int
) -> list[tuple]:
    entries: list[tuple] = []
    async for page in service.sorted_access_stream(batch_size):
        entries.extend(zip(page.objects, page.grades))
    return entries


async def _drain_columns_overlapped(
    services: Sequence[RemoteGradedSource], batch_size: int
) -> list[list[tuple]]:
    return list(
        await asyncio.gather(
            *(_drain_sorted(s, batch_size) for s in services)
        )
    )


async def _drain_columns_round_robin(
    services: Sequence[RemoteGradedSource], batch_size: int
) -> list[list[tuple]]:
    """The sequential baseline: one page in flight at a time, cycling
    the services -- what a synchronous single-threaded client does."""
    columns: list[list[tuple]] = [[] for _ in services]
    streams = [s.sorted_access_stream(batch_size) for s in services]
    live = list(range(len(services)))
    while live:
        still: list[int] = []
        for i in live:
            try:
                page = await anext(streams[i])
            except StopAsyncIteration:
                continue
            columns[i].extend(zip(page.objects, page.grades))
            still.append(i)
        live = still
    return columns


def drain_columns(
    services: Sequence[RemoteGradedSource],
    *,
    batch_size: int = 256,
    sequential: bool = False,
) -> list[list[tuple]]:
    """Drain every service's sorted stream to completion; returns one
    ``[(object, grade), ...]`` column per service, in the exact order
    served.  ``sequential`` uses the round-robin baseline instead of
    overlapping the streams; the columns are identical either way."""
    if not services:
        raise DatabaseError("need at least one service")
    drainer = (
        _drain_columns_round_robin if sequential else _drain_columns_overlapped
    )
    return asyncio.run(drainer(services, batch_size))


def assemble_remote_database(
    services: Sequence[RemoteGradedSource],
    num_shards: int | None = None,
    *,
    batch_size: int = 256,
    sequential: bool = False,
) -> tuple[ColumnarDatabase, list[ListCapabilities]]:
    """Drain remote services into a columnar (or sharded) backend plus
    the matching capability vector -- the async twin of
    :func:`~repro.middleware.sources.assemble_database`.

    The services' streams are drained concurrently (the overlap is
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
    columns = drain_columns(
        services, batch_size=batch_size, sequential=sequential
    )
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


async def _gather_runs_overlapped(
    shard_services: Sequence[RunStreamSource], batch_size: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    return list(
        await asyncio.gather(
            *(s.fetch_run(batch_size) for s in shard_services)
        )
    )


async def _gather_runs_round_robin(
    shard_services: Sequence[RunStreamSource], batch_size: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    parts: list[list[tuple]] = [[] for _ in shard_services]
    streams = [s.run_stream(batch_size) for s in shard_services]
    live = list(range(len(shard_services)))
    while live:
        still: list[int] = []
        for s in live:
            try:
                chunk = await anext(streams[s])
            except StopAsyncIteration:
                continue
            parts[s].append(chunk)
            still.append(s)
        live = still
    runs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for s, chunks in enumerate(parts):
        if chunks:
            runs.append(tuple(np.concatenate(a) for a in zip(*chunks)))
        else:
            runs.append(
                (
                    np.empty(0, dtype=np.intp),
                    np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=np.int64),
                )
            )
    return runs


def fetch_merged_orders(
    grid: Sequence[Sequence[RunStreamSource]],
    *,
    batch_size: int = 512,
    sequential: bool = False,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gather every list's per-shard run streams and k-way merge them.

    All ``S x m`` streams are drained concurrently (or by sequential
    round-robin for the baseline), then each list's runs feed a
    :class:`~repro.middleware.database.ListMergeCursor` whose
    vectorised drain reconstructs the global ``(rows, grades)`` order
    -- bit-identical to the owning
    :class:`~repro.middleware.database.ShardedDatabase`'s own merged
    orders, tie placement included.
    """
    if not grid:
        raise DatabaseError("need at least one list of run services")

    async def _gather_all():
        gather = (
            _gather_runs_round_robin if sequential else _gather_runs_overlapped
        )
        if sequential:
            # strict baseline: one list at a time, one page in flight
            out: list[list] = []
            for shard_services in grid:
                out.append(await gather(shard_services, batch_size))
            return out
        return list(
            await asyncio.gather(
                *(gather(shard_services, batch_size) for shard_services in grid)
            )
        )

    runs_per_list = asyncio.run(_gather_all())
    return [ListMergeCursor(runs).drain() for runs in runs_per_list]
