"""Asynchronous remote-source subsystem.

The paper's middleware is a *client of autonomous remote subsystems*
(Section 1): each of the ``m`` graded lists lives in a separate service
with its own access latency.  This package realises that setting:

* :mod:`repro.services.protocol` -- the asynchronous wire contract:
  :class:`RemoteGradedSource` serves stateless sorted pages
  (``page(start, count)``) and random-access batches,
  :class:`RunStreamSource` serves shard-run pages (``run_page``), and
  :func:`read_pages` is the one sequential reader over either -- the
  middleware, not the source, owns every cursor;
* :mod:`repro.services.simulated` -- in-process services over one
  list of a columnar database or one per-shard run, behind
  configurable latency, jitter, failure and retry models;
* :mod:`repro.services.session` -- :class:`ServiceSession`, the one
  accounted session over services: it reads each list's sorted entries
  from a :class:`SharedListScan` (a published prefix with one page
  fetcher) while charging the *identical*
  :class:`~repro.middleware.access.AccessStats`/trace semantics as the
  synchronous plane.  :class:`AsyncAccessSession` is that session on a
  private loop thread over private scans, overlapping all ``m``
  services' page fetches; the query service's scan cache lends it
  shared ones;
* :mod:`repro.services.assemble` -- builders and drain adapters: remote
  pages into the columnar/sharded backends (and their merge cursors)
  the speculative chunked engines consume unmodified;
* :mod:`repro.services.network` -- transport-backed factories
  (:func:`network_services`, :func:`network_shard_runs`) connecting the
  same contracts to a :mod:`repro.transport` server in another process.

See ``docs/ARCHITECTURE.md`` ("Async services", "Real transport") for
the overlap model and the charging equivalence contract.
"""

from .assemble import (
    assemble_remote_database,
    drain_columns,
    fetch_merged_orders,
    fetch_run,
    services_for_database,
    services_for_sources,
    shard_run_services,
)
from .network import network_client, network_services, network_shard_runs
from .protocol import (
    RemoteGradedSource,
    RunPage,
    RunStreamSource,
    SortedPage,
    read_pages,
)
from .session import AsyncAccessSession, ServiceSession, SharedListScan
from .simulated import (
    FailureModel,
    LatencyModel,
    RetryPolicy,
    ShardRunService,
    SimulatedListService,
)

__all__ = [
    "RemoteGradedSource",
    "RunStreamSource",
    "SortedPage",
    "RunPage",
    "read_pages",
    "AsyncAccessSession",
    "ServiceSession",
    "SharedListScan",
    "LatencyModel",
    "FailureModel",
    "RetryPolicy",
    "SimulatedListService",
    "ShardRunService",
    "services_for_database",
    "services_for_sources",
    "shard_run_services",
    "drain_columns",
    "assemble_remote_database",
    "fetch_run",
    "fetch_merged_orders",
    "network_client",
    "network_services",
    "network_shard_runs",
]
